"""Optional C acceleration for the vectorized dispatch engine.

Two pieces of the fault-free fast path are irreducibly sequential —
per-element decision chains NumPy cannot express — and in CPython they
cost two orders of magnitude more than the arithmetic they perform:

* the θ-walk guesser in :mod:`repro.sim.dispatch_batch`, and
* the exact earliest-finish recurrence itself (each admission updates
  the free time the next admission reads).

This module compiles both as a few dozen lines of C once per process
(system ``cc``, a temp directory, no build system) and exposes them
through :data:`theta_walk` and :data:`dispatch_exact`.

``dispatch_exact`` mirrors the scan loop bit for bit — same
``arrival if arrival > free else free`` start rule, same strict
first-minimum winner over the ``(width, classes)`` service matrix,
same fault-segment ``limit`` / per-accelerator next-down cut
conditions as ``_corrected_step_k`` — so the NumPy speculate-and-verify
engine becomes the fallback rather than the hot path when a compiler
is present.  One k-wide kernel serves every partition width, the
paper's one- and two-wide C5+C3-style partitions included.  ``inf``
service entries (infeasible accelerator/class pairs) are safe: an
infinite candidate finish can never win a strict-less comparison, and
the next-down check only ever tests the winner.  Plain ``-O2`` keeps
IEEE semantics (no ``-ffast-math``, no FMA contraction opportunities in
pure add/compare code), and a self-check against a Python reference
guards the build before it is trusted.  Any failure (no ``cc``, sandboxed filesystem,
self-check mismatch) leaves both exports ``None`` and the pure-Python
paths take over.  Set ``REPRO_NO_NATIVE=1`` to force that fallback
explicitly (CI exercises it so the Python paths stay covered).
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import shutil
import subprocess
import tempfile

import numpy as np

_LOG = logging.getLogger("repro.sim.native")

_SOURCE = r"""
#include <stdint.h>

int64_t repro_theta_walk(const double *u, const double *v, int64_t n,
                         double theta, uint8_t *out)
{
    int64_t picks = 0;
    for (int64_t j = 0; j < n; ++j) {
        if (u[j] > theta) {
            out[j] = 1;
            theta += v[j];
            ++picks;
        } else {
            out[j] = 0;
        }
    }
    return picks;
}

/* The k-wide exact loop: svc is the row-major (k, classes) service
 * matrix, nd the per-accelerator next-down array.  Winner = first
 * strict minimum finish in lane order (np.argmin semantics); any lane
 * whose start reaches `limit` cuts the segment before a commit. */
int64_t repro_dispatch_k(const double *arrivals, const int64_t *cids,
                         const double *svc, int64_t k, int64_t classes,
                         int64_t n, double limit, const double *nd,
                         double *state, int64_t *acc,
                         double *start, double *fin)
{
    int64_t j = 0;
    for (; j < n; ++j) {
        double a = arrivals[j];
        int64_t c = cids[j];
        int64_t best = 0;
        double best_st = 0.0;
        double best_e = 0.0;
        int cut = 0;
        for (int64_t i = 0; i < k; ++i) {
            double f = state[i];
            double st = a > f ? a : f;
            if (st >= limit) {
                cut = 1;
                break;
            }
            double e = st + svc[i * classes + c];
            if (i == 0 || e < best_e) {
                best = i;
                best_st = st;
                best_e = e;
            }
        }
        if (cut || best_e > nd[best])
            break;
        state[best] = best_e;
        acc[j] = best;
        start[j] = best_st;
        fin[j] = best_e;
    }
    return j;
}
"""

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_UINT8_P = ctypes.POINTER(ctypes.c_uint8)


def _reference_walk(u, v, theta):
    out = []
    for j, value in enumerate(u):
        if value > theta:
            out.append(1)
            theta += v[j]
        else:
            out.append(0)
    return out


def _reference_dispatch(arrivals, cids, rows, state, limit, nds):
    """Pure-Python mirror of the scan/``_corrected_step_k`` loop."""
    out = []
    for a, c in zip(arrivals, cids):
        starts = [a if a > f else f for f in state]
        if any(st >= limit for st in starts):
            break
        fins = [st + row[c] for st, row in zip(starts, rows)]
        best = 0
        for i in range(1, len(fins)):
            if fins[i] < fins[best]:
                best = i
        if fins[best] > nds[best]:
            break
        state[best] = fins[best]
        out.append((best, starts[best], fins[best]))
    return out


def _check_dispatch(kwide):
    inf = float("inf")
    arrivals = [0.0, 0.1, 0.15, 0.2, 1.0, 1.05, 1.5, 2.0]
    cids = [0, 1, 0, 1, 0, 0, 1, 1]
    # four lanes, one infeasible (inf) entry: the kernel must never let
    # an infinite candidate win a strict-less comparison
    rows = [[0.3, 0.5], [0.4, 0.5], [0.35, inf], [0.25, 0.45]]
    cases = [
        (2, inf, (inf, inf)),
        (2, 1.2, (inf, inf)),
        (2, inf, (1.4, inf)),
        (2, inf, (inf, 0.6)),
        (1, inf, (inf,)),
        (1, 0.9, (0.7,)),
        (3, inf, (inf, inf, inf)),
        (3, 1.3, (inf, inf, inf)),
        (3, inf, (inf, 0.8, inf)),
        (4, inf, (inf, inf, inf, inf)),
        (4, 1.1, (inf, inf, inf, 0.9)),
        (4, inf, (0.6, inf, inf, inf)),
    ]
    for width, limit, nds in cases:
        state = [0.05, 0.0, 0.02, 0.01][:width]
        ref_state = list(state)
        expect = _reference_dispatch(
            arrivals, cids, rows[:width], ref_state, limit, nds
        )
        arr = np.asarray(arrivals)
        cid = np.asarray(cids, dtype=np.int64)
        st = np.asarray(state)
        acc = np.empty(arr.size, dtype=np.int64)
        starts = np.empty(arr.size)
        fins = np.empty(arr.size)
        matrix = np.ascontiguousarray(rows[:width], dtype=np.float64)
        nd_arr = np.asarray(nds, dtype=np.float64)
        q = kwide(
            arr.ctypes.data_as(_DOUBLE_P),
            cid.ctypes.data_as(_INT64_P),
            matrix.ctypes.data_as(_DOUBLE_P),
            width,
            matrix.shape[1],
            arr.size,
            limit,
            nd_arr.ctypes.data_as(_DOUBLE_P),
            st.ctypes.data_as(_DOUBLE_P),
            acc.ctypes.data_as(_INT64_P),
            starts.ctypes.data_as(_DOUBLE_P),
            fins.ctypes.data_as(_DOUBLE_P),
        )
        got = list(zip(acc[:q].tolist(), starts[:q].tolist(), fins[:q].tolist()))
        if q != len(expect) or got != expect:
            return False
        # the committed prefix must leave the same free clocks the
        # reference loop left
        if st.tolist() != ref_state:
            return False
    return True


def _build():
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    tmp = None
    try:
        tmp = tempfile.mkdtemp(prefix="repro-native-")
        source = os.path.join(tmp, "walk.c")
        lib_path = os.path.join(tmp, "libreprowalk.so")
        with open(source, "w", encoding="utf-8") as handle:
            handle.write(_SOURCE)
        for compiler in ("cc", "gcc", "clang"):
            if shutil.which(compiler) is None:
                continue
            try:
                subprocess.run(
                    [compiler, "-O2", "-fPIC", "-shared", "-o", lib_path, source],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                break
            except (subprocess.SubprocessError, OSError):
                continue
        else:
            return None
        library = ctypes.CDLL(lib_path)
        walk = library.repro_theta_walk
        walk.restype = ctypes.c_int64
        walk.argtypes = [_DOUBLE_P, _DOUBLE_P, ctypes.c_int64, ctypes.c_double, _UINT8_P]
        kwide = library.repro_dispatch_k
        kwide.restype = ctypes.c_int64
        kwide.argtypes = [
            _DOUBLE_P,
            _INT64_P,
            _DOUBLE_P,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_double,
            _DOUBLE_P,
            _DOUBLE_P,
            _INT64_P,
            _DOUBLE_P,
            _DOUBLE_P,
        ]

        # self-check against the reference implementations before
        # trusting the build
        check_u = [0.5, -1.0, 2.0, 0.25, 3.0, 3.0, 0.0]
        check_v = [1.0, 1.0, 0.5, 2.0, 0.5, 0.5, 1.0]
        for theta in (-1.0, 0.0, 0.4, 10.0):
            cu = np.asarray(check_u)
            cv = np.asarray(check_v)
            got = np.empty(cu.size, dtype=np.uint8)
            walk(
                cu.ctypes.data_as(_DOUBLE_P),
                cv.ctypes.data_as(_DOUBLE_P),
                cu.size,
                theta,
                got.ctypes.data_as(_UINT8_P),
            )
            if got.tolist() != _reference_walk(check_u, check_v, theta):
                return None
        if not _check_dispatch(kwide):
            return None
        return walk, kwide
    except Exception:
        return None
    finally:
        # the loaded .so stays mapped; the directory entry can go
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


_BUILT = _build()
_WALK, _KWIDE = _BUILT if _BUILT is not None else (None, None)

#: whether the compiled kernels passed the self-check and are in use
NATIVE_AVAILABLE = _BUILT is not None

if NATIVE_AVAILABLE:
    _LOG.info(
        "native dispatch kernels compiled (k-wide exact earliest-finish loop)"
    )
elif os.environ.get("REPRO_NO_NATIVE"):
    _LOG.info(
        "REPRO_NO_NATIVE set: vectorized dispatch uses the NumPy "
        "speculate-and-verify fallback"
    )
else:
    _LOG.warning(
        "no working C compiler: vectorized dispatch falls back to the "
        "NumPy speculate-and-verify engine (slower, same results)"
    )


def _theta_walk_native(u: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
    """Boolean pick array for the k=2 busy-regime θ-walk, at C speed."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    v = np.ascontiguousarray(v, dtype=np.float64)
    out = np.empty(u.size, dtype=np.uint8)
    _WALK(
        u.ctypes.data_as(_DOUBLE_P),
        v.ctypes.data_as(_DOUBLE_P),
        u.size,
        theta,
        out.ctypes.data_as(_UINT8_P),
    )
    return out.view(np.bool_)


def _dispatch_exact_native(arrivals, class_ids, services, free, limit, nds=None):
    """Exact earliest-finish dispatch over one clean stretch.

    ``services`` is the engine's ``(width, classes)`` float64 matrix
    (any width; ``inf`` marks infeasible pairs); ``free`` is the
    mutable per-accelerator clock list, updated in place; ``nds`` the
    per-accelerator next-down array (``None`` = unconstrained).
    Returns ``(accepted, accs, starts, fins)`` — the maximal prefix
    satisfying the ``limit`` / next-down constraints, with per-request
    results bit-identical to the scan loop.
    """
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    class_ids = np.ascontiguousarray(class_ids, dtype=np.int64)
    n = arrivals.size
    width = services.shape[0]
    starts = np.empty(n, dtype=np.float64)
    fins = np.empty(n, dtype=np.float64)
    state = np.asarray(free, dtype=np.float64)
    if nds is None:
        nds = (math.inf,) * width
    acc = np.empty(n, dtype=np.int64)
    matrix = np.ascontiguousarray(services, dtype=np.float64)
    nd_arr = np.ascontiguousarray(nds, dtype=np.float64)
    q = _KWIDE(
        arrivals.ctypes.data_as(_DOUBLE_P),
        class_ids.ctypes.data_as(_INT64_P),
        matrix.ctypes.data_as(_DOUBLE_P),
        width,
        matrix.shape[1],
        n,
        limit,
        nd_arr.ctypes.data_as(_DOUBLE_P),
        state.ctypes.data_as(_DOUBLE_P),
        acc.ctypes.data_as(_INT64_P),
        starts.ctypes.data_as(_DOUBLE_P),
        fins.ctypes.data_as(_DOUBLE_P),
    )
    for order in range(width):
        free[order] = float(state[order])
    return q, acc[:q], starts[:q], fins[:q]


#: the accelerated kernels, or ``None`` when no compiler is available —
#: callers must keep a pure-Python path behind these checks
theta_walk = _theta_walk_native if _WALK is not None else None
dispatch_exact = _dispatch_exact_native if _KWIDE is not None else None
