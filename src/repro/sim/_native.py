"""The dispatch kernel: compiled C when it builds, Python otherwise.

The exact earliest-finish recurrence is irreducibly sequential — each
admission updates the free time the next admission reads, a decision
chain NumPy cannot express — and in CPython it costs two orders of
magnitude more than the arithmetic it performs.

This module compiles it as a few dozen lines of C (system ``cc``, a
temp directory, no build system) and exposes it through
:data:`dispatch_exact`.  A build that passes the self-check is kept as
``$XDG_CACHE_HOME/repro/libreprowalk-<key>.so`` (default
``~/.cache/repro``), keyed by a hash of the source, flags,
compiler path and platform, so later processes load it instead of
compiling.  Every load, cached or fresh, runs the self-check first; a
cached file that fails to load or fails the check is deleted and
rebuilt once, and an unwritable cache directory only means the build
is not kept.

The kernel mirrors the scan loop bit for bit — same ``arrival if
arrival > free else free`` start rule, same strict first-minimum
winner over the ``(width, classes)`` service matrix — and stops a
fault batch where the scalar fault loop must take over.  Under a fault
schedule each accelerator (lane) is a segment of its own, with its own
service column and its own limit (its next window boundary): the
kernel stops before a row whose start on some lane reaches that lane's
limit, and before a winner whose finish crosses its accelerator's next
down window (a kill).  One k-wide kernel serves every partition width,
fault-free blocks and fault segments alike, the paper's one- and
two-wide C5+C3-style partitions included.  ``inf`` service entries
(infeasible pairs, down accelerators in a fault segment) are safe: an
infinite candidate finish can never win a strict-less comparison, the
next-down check only ever tests the winner, and a row whose every lane
is ``inf`` is decided as unservable (accelerator ``-1``) without
touching a clock, and the fault loop requeues or sheds it.  Plain
``-O2`` keeps IEEE semantics (no ``-ffast-math``, no FMA contraction
opportunities in pure add/compare code).

:func:`_dispatch_python` is the same loop in Python, with the same
signature: the self-check compares every build against it, and it *is*
:data:`dispatch_exact` when no build passes (no ``cc``, sandboxed
filesystem, self-check mismatch) — slower, same results.  Set
``REPRO_NO_NATIVE=1`` to force it explicitly (CI exercises it so the
Python kernel stays covered); :func:`native_available` says which one
is in use.
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
from array import array

import numpy as np

from repro.sim._disk_cache import cache_dir, publish, read_sealed, trusted

_LOG = logging.getLogger("repro.sim.native")

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* The k-wide exact loop: svc is the row-major (k, classes) service
 * matrix, lim and nd the per-lane segment end and next down onset.
 * Winner = first strict minimum finish in lane order (np.argmin
 * semantics).  A row stops the loop before any commit when some lane's
 * start reaches that lane's own lim, or when the winner's finish
 * crosses its next down onset; a row no lane can serve (every finish
 * inf) is marked acc = -1 with inf start and finish, and changes no
 * clock. */
int64_t repro_dispatch_k(const double *arrivals, const int64_t *cids,
                         const double *svc, int64_t k, int64_t classes,
                         int64_t n, const double *lim, const double *nd,
                         double *state, int64_t *acc,
                         double *start, double *fin)
{
    /* the smallest limit, held in a register: a lane's own limit is
     * read only for a start that reaches it (never on fault-free runs,
     * whose limits are all inf), and the hint keeps the common path
     * straight-line (without it an 8-wide fault-free 1M-row call ran
     * ~10% slower) */
    double lo = INFINITY;
    for (int64_t i = 0; i < k; ++i)
        if (lim[i] < lo)
            lo = lim[i];
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
            if (__builtin_expect(st >= lo, 0) && st >= lim[i]) {
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
        if (cut)
            break;
        if (isinf(best_e)) {
            acc[j] = -1;
            start[j] = INFINITY;
            fin[j] = INFINITY;
            continue;
        }
        if (best_e > nd[best])
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
#: every array argument is passed as its address, ``ndarray.ctypes.data``:
#: half the cost of ``ctypes.data_as``, and a kernel call takes nine
_PTR = ctypes.c_void_p


def _lane_limits(limits, width: int) -> list[float]:
    """Per-lane segment ends: ``limits`` is one for every lane, or a
    float shared by all of them."""
    if isinstance(limits, (int, float)):
        return [float(limits)] * width
    return [float(limit) for limit in limits]


def _dispatch_python(arrivals, class_ids, services, free, limits, nds=None):
    """The kernel in Python: :data:`dispatch_exact`'s signature and
    results, one row at a time (linear in rows x width).

    The scan loop plus the kernel's fault-segment cut conditions (a
    lane's own ``limits`` entry, the winner's next down onset) and its
    unservable-row mark (``(-1, inf, inf)`` for a row no lane can serve,
    which changes no clock).
    """
    width = len(free)
    lims = _lane_limits(limits, width)
    inf = math.inf
    downs = [inf] * width if nds is None else [float(nd) for nd in nds]
    # per class, its service on every lane
    rows = np.asarray(services, dtype=np.float64).T.tolist()
    state = [float(f) for f in free]
    lanes = range(width)
    # the smallest limit: a lane's own limit is read only for a start
    # that reaches it, as in the C loop
    lo = min(lims)
    # typed buffers and memoryview reads: no Python float per row is
    # kept, so a block's temporaries stay at 8 bytes per value
    accs = array("q")
    starts = array("d")
    fins = array("d")
    put_acc, put_start, put_fin = accs.append, starts.append, fins.append
    for a, c in zip(
        memoryview(np.ascontiguousarray(arrivals, dtype=np.float64)),
        memoryview(np.ascontiguousarray(class_ids, dtype=np.int64)),
    ):
        row = rows[c]
        best = 0
        best_st = best_e = inf
        cut = False
        for i in lanes:
            f = state[i]
            st = a if a > f else f
            if st >= lo and st >= lims[i]:
                cut = True
                break
            e = st + row[i]
            if e < best_e:
                best = i
                best_st = st
                best_e = e
        if cut:
            break
        if best_e == inf:
            put_acc(-1)
            put_start(inf)
            put_fin(inf)
            continue
        if best_e > downs[best]:
            break
        state[best] = best_e
        put_acc(best)
        put_start(best_st)
        put_fin(best_e)
    free[:] = state
    return (
        len(accs),
        np.frombuffer(accs, dtype=np.int64),
        np.frombuffer(starts, dtype=np.float64),
        np.frombuffer(fins, dtype=np.float64),
    )


def _wrap(kwide):
    """``kwide`` behind :data:`dispatch_exact`'s signature."""

    def dispatch(arrivals, class_ids, services, free, limits, nds=None):
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
        lim_arr = np.asarray(_lane_limits(limits, width), dtype=np.float64)
        nd_arr = np.ascontiguousarray(nds, dtype=np.float64)
        q = kwide(
            arrivals.ctypes.data,
            class_ids.ctypes.data,
            matrix.ctypes.data,
            width,
            matrix.shape[1],
            n,
            lim_arr.ctypes.data,
            nd_arr.ctypes.data,
            state.ctypes.data,
            acc.ctypes.data,
            starts.ctypes.data,
            fins.ctypes.data,
        )
        for order in range(width):
            free[order] = float(state[order])
        return q, acc[:q], starts[:q], fins[:q]

    return dispatch


def _check_dispatch(kwide):
    inf = float("inf")
    arrivals = [0.0, 0.1, 0.15, 0.2, 1.0, 1.02, 1.05, 1.5, 2.0, 2.5, 2.7]
    cids = [0, 1, 0, 1, 0, 3, 0, 1, 1, 2, 0]
    # four lanes with inf (infeasible or down) entries: the kernel must
    # never let an infinite candidate win a strict-less comparison, and
    # must mark the rows no lane can serve (class 3's everywhere, class
    # 2's on one lane) and go on past them
    rows = [
        [0.3, 0.5, inf, inf],
        [0.4, 0.5, 0.6, inf],
        [0.35, inf, inf, inf],
        [0.25, 0.45, inf, inf],
    ]
    # (width, per-lane limits, next downs): a shared limit, per-lane
    # limits cutting one lane's backlog before another's, and next-down
    # cuts
    cases = [
        (2, (inf, inf), (inf, inf)),
        (2, (1.2, 1.2), (inf, inf)),
        (2, (inf, 1.2), (inf, inf)),
        (2, (inf, inf), (1.4, inf)),
        (2, (inf, inf), (inf, 0.6)),
        (1, (inf,), (inf,)),
        (1, (0.9,), (0.7,)),
        (3, (inf, inf, inf), (inf, inf, inf)),
        (3, (1.3, 1.3, 1.3), (inf, inf, inf)),
        (3, (inf, 0.4, 2.2), (inf, inf, inf)),
        (3, (inf, inf, inf), (inf, 0.8, inf)),
        (4, (inf, inf, inf, inf), (inf, inf, inf, inf)),
        (4, (1.1, 1.1, 1.1, 1.1), (inf, inf, inf, 0.9)),
        (4, (2.6, inf, 1.6, inf), (inf, inf, inf, inf)),
        (4, (inf, inf, inf, inf), (0.6, inf, inf, inf)),
    ]
    dispatch = _wrap(kwide)
    for width, limits, nds in cases:
        matrix = np.asarray(rows[:width])
        expect_state = [0.05, 0.0, 0.02, 0.01][:width]
        got_state = list(expect_state)
        expect = _dispatch_python(arrivals, cids, matrix, expect_state, limits, nds)
        got = dispatch(arrivals, cids, matrix, got_state, limits, nds)
        if got[0] != expect[0] or any(
            g.tolist() != e.tolist() for g, e in zip(got[1:], expect[1:])
        ):
            return False
        # the committed prefix must leave the same free clocks the
        # Python loop left
        if got_state != expect_state:
            return False
    return True


def _bind(lib_path: str):
    """Load ``lib_path``; its k-wide kernel if it passes the self-check
    against the reference loop, else ``None``."""
    try:
        kwide = ctypes.CDLL(lib_path).repro_dispatch_k
    except (OSError, AttributeError):
        return None
    kwide.restype = ctypes.c_int64
    kwide.argtypes = [
        _PTR,
        _PTR,
        _PTR,
        ctypes.c_int64,
        ctypes.c_int64,
        ctypes.c_int64,
        _PTR,
        _PTR,
        _PTR,
        _PTR,
        _PTR,
        _PTR,
    ]
    return kwide if _check_dispatch(kwide) else None


def _cache_key(compiler: str) -> str:
    """Hash of everything the compiled bytes depend on."""
    digest = hashlib.sha256()
    for part in (_SOURCE, *_FLAGS, compiler, platform.machine(), platform.system()):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _compile(compiler: str, directory: str) -> str | None:
    import subprocess

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


#: what every failed build's warning ends with
_FALLBACK = "dispatch falls back to the Python kernel (slower, same results)"


def _build():
    """``(kwide, origin, cached_path)`` or ``None`` (fallback).

    ``origin`` is ``"cached"`` when a previous process's build was
    loaded from the cache and ``"compiled"`` otherwise; ``cached_path``
    is the cache file, or ``None`` when a fresh build could not be
    saved there.  Either way the kernel passed the self-check.  A
    ``None`` other than under ``REPRO_NO_NATIVE`` logs its cause: no
    compiler on ``PATH``, every compile failing, or a fresh build
    failing its self-check.
    """
    if os.environ.get("REPRO_NO_NATIVE"):
        return None
    try:
        compilers = [path for path in map(shutil.which, _COMPILERS) if path]
        for compiler in compilers:
            cached = os.path.join(
                cache_dir(), f"libreprowalk-{_cache_key(compiler)}.so"
            )
            if os.path.exists(cached) and trusted(os.path.dirname(cached)):
                # a library loaded unsealed could die of SIGBUS in the
                # loader before the self-check runs
                kwide = _bind(cached) if read_sealed(cached) is not None else None
                if kwide is not None:
                    return kwide, "cached", cached
                # damaged, foreign or miscompiled: evict, rebuild once
                _LOG.warning("evicting unusable cached kernel %s", cached)
                with contextlib.suppress(OSError):
                    os.unlink(cached)
            # compiling is the only use of these: a cached load skips them
            import tempfile

            # the loaded .so stays mapped once its directory is removed
            with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
                lib_path = _compile(compiler, tmp)
                if lib_path is None:
                    continue
                kwide = _bind(lib_path)
                if kwide is None:
                    _LOG.warning(
                        "the C kernel built with %s failed its self-check "
                        "against the Python kernel: %s",
                        compiler,
                        _FALLBACK,
                    )
                    return None
                with open(lib_path, "rb") as built:
                    saved = cached if publish(built.read(), cached) else None
                return kwide, "compiled", saved
        if compilers:
            _LOG.warning(
                "the C kernel failed to compile with %s: %s",
                ", ".join(compilers),
                _FALLBACK,
            )
        else:
            _LOG.warning(
                "no C compiler on PATH (tried %s): %s",
                ", ".join(_COMPILERS),
                _FALLBACK,
            )
    except Exception:
        _LOG.warning(
            "native dispatch kernel build failed: %s", _FALLBACK, exc_info=True
        )
    return None


_BUILT = _build()
_KWIDE, NATIVE_ORIGIN, NATIVE_PATH = (
    _BUILT if _BUILT is not None else (None, None, None)
)

#: whether the compiled kernel passed the self-check and is in use
NATIVE_AVAILABLE = _BUILT is not None

if NATIVE_AVAILABLE:
    _LOG.info(
        "native dispatch kernel %s (k-wide exact earliest-finish loop)%s",
        NATIVE_ORIGIN,
        f": {NATIVE_PATH}" if NATIVE_PATH else "",
    )
elif os.environ.get("REPRO_NO_NATIVE"):
    _LOG.info(
        "REPRO_NO_NATIVE set: dispatch runs the Python kernel"
    )


#: exact earliest-finish dispatch over one clean stretch, the compiled
#: kernel or its Python mirror.  ``(arrivals, class_ids, services, free,
#: limits, nds=None) -> (decided, accs, starts, fins)``: ``services`` is
#: the engine's ``(width, classes)`` float64 matrix (any width; ``inf``
#: marks infeasible pairs); ``free`` is the mutable per-accelerator clock
#: list, updated in place; ``limits`` the per-accelerator segment ends
#: (or one float for every lane) and ``nds`` the per-accelerator next
#: down onsets (``None`` = unconstrained).  Returns the maximal prefix
#: satisfying the limit / next-down constraints, with per-request
#: results bit-identical to the scan loop; a row no lane can serve is
#: decided as accelerator ``-1`` with inf start and finish.
dispatch_exact = _wrap(_KWIDE) if _KWIDE is not None else _dispatch_python


def native_available() -> bool:
    """Whether :data:`dispatch_exact` is the compiled kernel (read
    dynamically, so a test that swaps in :func:`_dispatch_python` flips
    this too)."""
    return dispatch_exact is not _dispatch_python
