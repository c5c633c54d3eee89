"""Optional C acceleration for the vectorized dispatch engine.

Two pieces of the fault-free fast path are irreducibly sequential —
per-element decision chains NumPy cannot express — and in CPython they
cost two orders of magnitude more than the arithmetic they perform:

* the θ-walk guesser in :mod:`repro.sim.dispatch_batch`, and
* the exact earliest-finish recurrence itself (each admission updates
  the free time the next admission reads).

This module compiles both as a few dozen lines of C (system ``cc``, a
temp directory, no build system) and exposes them through
:data:`theta_walk` and :data:`dispatch_exact`.  A build that passes the
self-check is kept as ``$XDG_CACHE_HOME/repro/libreprowalk-<key>.so``
(default ``~/.cache/repro``), keyed by a hash of the source, flags,
compiler path and platform, so later processes load it instead of
compiling.  Every load, cached or fresh, runs the self-check first; a
cached file that fails to load or fails the check is deleted and
rebuilt once, and an unwritable cache directory only means the build
is not kept.

``dispatch_exact`` mirrors the scan loop bit for bit — same
``arrival if arrival > free else free`` start rule, same strict
first-minimum winner over the ``(width, classes)`` service matrix,
same fault-segment ``limit`` / per-accelerator next-down cut
conditions as ``_corrected_step_k`` — so the NumPy speculate-and-verify
engine becomes the fallback rather than the hot path when a compiler
is present.  One k-wide kernel serves every partition width, the
paper's one- and two-wide C5+C3-style partitions included.  ``inf``
service entries (infeasible pairs, down accelerators in a fault
segment) are safe: an infinite candidate finish can never win a
strict-less comparison, the next-down check only ever tests the
winner, and a row whose every lane is ``inf`` stops the loop before it
is committed (the fault loop requeues it).  Plain ``-O2`` keeps
IEEE semantics (no ``-ffast-math``, no FMA contraction opportunities in
pure add/compare code), and a self-check against a Python reference
guards the library before it is trusted.  Any failure (no ``cc``,
sandboxed filesystem, self-check mismatch) leaves both exports ``None``
and the pure-Python paths take over.  Set ``REPRO_NO_NATIVE=1`` to
force that fallback explicitly (CI exercises it so the Python paths
stay covered).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import math
import os
import platform
import shutil
import subprocess
import tempfile

import numpy as np

_LOG = logging.getLogger("repro.sim.native")

_SOURCE = r"""
#include <math.h>
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
 * whose start reaches `limit` cuts the segment before a commit, and so
 * does a row no lane can serve (every service inf). */
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
        if (cut || isinf(best_e) || best_e > nd[best])
            break;
        state[best] = best_e;
        acc[j] = best;
        start[j] = best_st;
        fin[j] = best_e;
    }
    return j;
}
"""

#: compilers tried in order, and the flags every build uses
_COMPILERS = ("cc", "gcc", "clang")
_FLAGS = ("-O2", "-fPIC", "-shared")
#: length of the SHA-256 seal at the end of a cached library
_SEAL_BYTES = hashlib.sha256().digest_size

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
        if math.isinf(fins[best]) or fins[best] > nds[best]:
            break
        state[best] = fins[best]
        out.append((best, starts[best], fins[best]))
    return out


def _check_dispatch(kwide):
    inf = float("inf")
    arrivals = [0.0, 0.1, 0.15, 0.2, 1.0, 1.05, 1.5, 2.0, 2.5]
    cids = [0, 1, 0, 1, 0, 0, 1, 1, 2]
    # four lanes with inf (infeasible or down) entries: the kernel must
    # never let an infinite candidate win a strict-less comparison, and
    # must stop before class 2's row on one lane, where no lane can serve
    rows = [
        [0.3, 0.5, inf],
        [0.4, 0.5, 0.6],
        [0.35, inf, inf],
        [0.25, 0.45, inf],
    ]
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


def _check_walk(walk) -> bool:
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
            return False
    return True


def _bind(lib_path: str):
    """Load ``lib_path``; its ``(walk, kwide)`` kernels if they pass the
    self-check against the reference implementations, else ``None``."""
    try:
        library = ctypes.CDLL(lib_path)
        walk = library.repro_theta_walk
        kwide = library.repro_dispatch_k
    except (OSError, AttributeError):
        return None
    walk.restype = ctypes.c_int64
    walk.argtypes = [_DOUBLE_P, _DOUBLE_P, ctypes.c_int64, ctypes.c_double, _UINT8_P]
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
    if not (_check_walk(walk) and _check_dispatch(kwide)):
        return None
    return walk, kwide


def _cache_dir() -> str:
    """Directory of compiled kernels: ``$XDG_CACHE_HOME/repro``, by
    default ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro")


def _cache_key(compiler: str) -> str:
    """Hash of everything the compiled bytes depend on."""
    digest = hashlib.sha256()
    for part in (_SOURCE, *_FLAGS, compiler, platform.machine(), platform.system()):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _trusted(directory: str) -> bool:
    """Whether ``directory`` is ours alone: code loaded from it must not
    be replaceable by another user."""
    try:
        info = os.stat(directory)
    except OSError:
        return False
    return info.st_uid == os.getuid() and not info.st_mode & 0o022


def _intact(path: str) -> bool:
    """Whether a cache file ends with the SHA-256 of the bytes before it.

    ``_publish`` appends that seal (the loader ignores trailing bytes).
    Checking it first matters: loading a truncated library can kill the
    process with SIGBUS before any self-check gets to run.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError:
        return False
    body, seal = data[:-_SEAL_BYTES], data[-_SEAL_BYTES:]
    return bool(body) and hashlib.sha256(body).digest() == seal


def _compile(compiler: str, directory: str) -> str | None:
    source = os.path.join(directory, "walk.c")
    lib_path = os.path.join(directory, "libreprowalk.so")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(_SOURCE)
    try:
        subprocess.run(
            [compiler, *_FLAGS, "-o", lib_path, source],
            check=True,
            capture_output=True,
            timeout=120,
        )
    except (subprocess.SubprocessError, OSError):
        return None
    return lib_path


def _publish(lib_path: str, cached: str) -> bool:
    """Copy a checked build, sealed with its SHA-256, to ``cached``
    atomically (temp file in the cache directory, then ``os.replace``);
    ``False`` if it cannot be written there."""
    directory = os.path.dirname(cached)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        if not _trusted(directory):
            return False
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(cached) + ".", dir=directory)
    except OSError:
        return False
    try:
        with open(lib_path, "rb") as built:
            body = built.read()
        with os.fdopen(fd, "wb") as out:
            out.write(body + hashlib.sha256(body).digest())
        os.replace(tmp, cached)
        return True
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        return False


def _build():
    """``(walk, kwide, origin, cached_path)`` or ``None`` (fallback).

    ``origin`` is ``"cached"`` when a previous process's build was
    loaded from the cache and ``"compiled"`` otherwise; ``cached_path``
    is the cache file, or ``None`` when a fresh build could not be
    saved there.  Either way the kernels passed the self-check.
    """
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    try:
        for compiler in filter(None, map(shutil.which, _COMPILERS)):
            cached = os.path.join(
                _cache_dir(), f"libreprowalk-{_cache_key(compiler)}.so"
            )
            if os.path.exists(cached) and _trusted(os.path.dirname(cached)):
                kernels = _bind(cached) if _intact(cached) else None
                if kernels is not None:
                    return (*kernels, "cached", cached)
                # damaged, foreign or miscompiled: evict, rebuild once
                _LOG.warning("evicting unusable cached kernel %s", cached)
                with contextlib.suppress(OSError):
                    os.unlink(cached)
            # the loaded .so stays mapped once its directory is removed
            with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
                lib_path = _compile(compiler, tmp)
                if lib_path is None:
                    continue
                kernels = _bind(lib_path)
                if kernels is None:
                    return None
                saved = cached if _publish(lib_path, cached) else None
                return (*kernels, "compiled", saved)
    except Exception:
        _LOG.warning("native dispatch kernel build failed", exc_info=True)
    return None


_BUILT = _build()
_WALK, _KWIDE, NATIVE_ORIGIN, NATIVE_PATH = (
    _BUILT if _BUILT is not None else (None, None, None, None)
)

#: whether the compiled kernels passed the self-check and are in use
NATIVE_AVAILABLE = _BUILT is not None

if NATIVE_AVAILABLE:
    _LOG.info(
        "native dispatch kernels %s (k-wide exact earliest-finish loop)%s",
        NATIVE_ORIGIN,
        f": {NATIVE_PATH}" if NATIVE_PATH else "",
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
