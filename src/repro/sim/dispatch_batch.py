"""Speculative NumPy batch engine for earliest-finish dispatch.

The seed scan in :mod:`repro.sim.serving` retires one request per loop
iteration; at a million requests the interpreter overhead dwarfs the
arithmetic.  This module is the serving fast path: it dispatches the
same trace through the native exact loop when a C compiler is present,
and otherwise in vectorized *speculate-and-verify* rounds, staying
**byte-identical** to the seed scan either way:

1. **Guess** the per-request accelerator assignment with cheap
   approximate math — a θ-walk over cumulative service sums when a
   two-wide partition is saturated, a blockwise frontier argmin on
   wider fleets, or an elementwise ``arrival + service`` argmin when
   the partition is idle.
2. **Reconstruct** the per-accelerator finish trajectories the guess
   implies, exactly: each accelerator's busy chain is a sequential
   ``np.cumsum`` (NumPy's ``add.accumulate`` adds left to right, the
   same float64 additions the scalar loop performs one at a time).
3. **Verify** every decision against the true earliest-finish rule on
   the reconstructed state: candidate finishes are
   ``max(arrival, free) + service`` — the scan's exact expression —
   and a position is valid only when the guessed winner matches and the
   winner's start semantics (busy vs idle) match the reconstruction.
4. **Accept** the longest valid prefix.  By induction the scheduler
   state at the first mismatch is exact, so one scalar *corrected step*
   is computed from the already-verified candidates and the round
   always makes progress.

Why byte-identity holds: the scan computes ``start = max(arrival,
free)`` (a comparison, no rounding) and ``finish = start + service``
(one float64 add).  Every accepted value here is produced by that same
single add — either inside a sequential cumsum over the accelerator's
busy chain or as ``arrival + service`` for an idle admission — on
bit-equal operands.  The guessers' rearranged arithmetic is only ever
a *guess*; nothing they compute reaches the output.

The rounds are width-generic: one busy and one idle formulation cover
every partition width ``k >= 1``, with the winner chosen by
``np.argmin`` over a ``(k, batch)`` finish matrix (first strict
minimum — the scan's lane-order tie-break).  ``inf`` service entries
(infeasible pairs) never win a strict-less comparison, so they flow
through the verification untouched.  Persistent low acceptance (an
adversarial arrival pattern) hands escalating bursts to an exact scalar
loop rather than degrading quadratically.  The rounds serve fault-free
runs only: fault segments batch through the native kernel alone, and
without it a faulted run takes the scan's scalar fault loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim._native import dispatch_exact as _native_dispatch

#: speculation window right after a cut (kept small: a failed round's
#: cost is proportional to the window it speculated over)
MIN_WINDOW = 512

#: a round accepting fewer than this many requests counts as stalled
STALL_ACCEPT = 256

#: consecutive stalled rounds before handing a burst to the scalar
#: loop — regime-transition churn (idle<->busy warmup) is skipped
#: at scalar speed instead of being speculated over and over
MAX_STALLS = 2

#: first scalar burst length; doubles while stalls persist, so
#: adversarial traces degrade to scalar throughput plus a vanishing
#: fraction of failed speculation rounds
MIN_BURST = 256

_INF = math.inf


def native_available() -> bool:
    """Whether the compiled exact loop is in use (read dynamically, so
    tests that monkeypatch :data:`_native_dispatch` flip this too)."""
    return _native_dispatch is not None


def _finite_or(values: np.ndarray, fill: float) -> np.ndarray:
    if np.isfinite(values).all():
        return values
    return np.where(np.isfinite(values), values, fill)


def _theta_walk(u_list, v_list, theta: float) -> list:
    """Indices the θ-walk guesses for accelerator 1 (k=2 busy regime).

    Position ``j`` is an acc-1 pick iff ``U[j] > θ``, where θ starts at
    ``free1 - free0`` folded into the cumulative-sum frame and grows by
    ``V[j]`` at each pick.  Pure guess — accuracy only affects speed.
    It runs only in the NumPy rounds, which serve runs without the
    native kernel.
    """
    enders = []
    append = enders.append
    for j, u in enumerate(u_list):
        if u > theta:
            append(j)
            theta += v_list[j]
    return enders


def _walk_picks(u: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
    """Boolean θ-walk pick array."""
    d = np.zeros(u.size, dtype=bool)
    enders = _theta_walk(u.tolist(), v.tolist(), theta)
    if enders:
        d[enders] = True
    return d


_ARANGE = np.empty(0, dtype=np.int64)


def _arange(n: int) -> np.ndarray:
    """A cached ``0..n-1`` view (the busy round needs it every call)."""
    global _ARANGE
    if _ARANGE.size < n:
        _ARANGE = np.arange(max(n, 2 * _ARANGE.size), dtype=np.int64)
    return _ARANGE[:n]


def _guess_busy(svc: np.ndarray, free) -> np.ndarray:
    """Guessed lane assignment for a saturated batch; ``(batch,)`` int64.

    Pure speculation — a wrong guess costs a shorter accepted prefix,
    never a wrong result.  Three regimes:

    * ``k == 1`` — there is nothing to guess;
    * ``k == 2`` — the θ-walk over cumulative service sums (the exact
      busy-handoff recurrence rewritten as a threshold walk);
    * ``k > 2`` — a blockwise frontier argmin: within each small block
      every request picks the lane with the least loaded frontier, then
      the frontiers advance by the service each lane absorbed.  Blocks
      trade guess accuracy for vectorization; ``inf`` (infeasible)
      entries lose every argmin, steering guesses to feasible lanes.
    """
    k, B = svc.shape
    if k == 1:
        return np.zeros(B, dtype=np.int64)
    if k == 2:
        s0, s1 = svc[0], svc[1]
        s0f = _finite_or(s0, 0.0)
        u = np.cumsum(s0f)
        u -= s1
        if s0f is not s0:
            u[~np.isfinite(s0)] = _INF
        v = s0f + _finite_or(s1, 0.0)
        return _walk_picks(u, v, float(free[1]) - float(free[0])).astype(np.int64)
    d = np.empty(B, dtype=np.int64)
    frontier = np.asarray(free, dtype=np.float64).copy()
    block = max(32, 2 * k)
    offsets = np.arange(block)
    for lo in range(0, B, block):
        hi = min(lo + block, B)
        blk = svc[:, lo:hi]
        pick = np.argmin(frontier[:, None] + blk, axis=0)
        d[lo:hi] = pick
        frontier += np.bincount(
            pick, weights=blk[pick, offsets[: hi - lo]], minlength=k
        )
    return d


def _round_k_busy(a, c, services, free):
    """One saturated-regime speculation round at any width.

    Returns ``(accepted, accs, starts, fins, reason)`` where ``reason``
    is ``None`` (full window) or ``"idle"`` (the cut position needs an
    idle admission — the caller should try the idle guesser).
    """
    k = services.shape[0]
    B = a.size
    svc = services[:, c]
    d = _guess_busy(svc, free)
    ar = _arange(B)
    onehot = d == np.arange(k)[:, None]
    excl = np.cumsum(onehot, axis=1)
    excl -= onehot
    fb = np.empty((k, B))
    trajs = []
    for i in range(k):
        traj = np.cumsum(np.concatenate(((free[i],), svc[i][onehot[i]])))
        trajs.append(traj)
        fb[i] = traj[excl[i]]
    # the selected accelerator's free-before must not exceed the
    # arrival (busy-handoff semantics)
    ok = fb[d, ar] >= a
    st = np.maximum(a, fb)
    fin = st + svc
    w = np.argmin(fin, axis=0)
    ok &= w == d
    if ok.all():
        for i in range(k):
            free[i] = float(trajs[i][-1])
        return B, d, st[d, ar], fin[d, ar], None
    q = int(np.argmin(ok))
    for i in range(k):
        free[i] = float(trajs[i][excl[i][q]])
    accs = d[:q]
    starts = st[d[:q], ar[:q]]
    fins = fin[d[:q], ar[:q]]
    reason = None if float(fb[d[q], q]) >= float(a[q]) else "idle"
    step = _corrected_step_k(float(a[q]), svc[:, q], free)
    return (
        q + 1,
        np.concatenate((accs, (step[0],))),
        np.concatenate((starts, (step[1],))),
        np.concatenate((fins, (step[2],))),
        reason,
    )


def _round_k_idle(a, c, services, free):
    """One idle-regime round: every admission guessed as ``arrival + service``."""
    k = services.shape[0]
    B = a.size
    svc = services[:, c]
    finc = a + svc
    d = np.argmin(finc, axis=0)
    ar = _arange(B)
    fins_full = finc[d, ar]
    fb = np.empty((k, B))
    lasts = np.empty((k, B), dtype=np.int64)
    prev = np.empty(B, dtype=np.int64)
    for i in range(k):
        lasts[i] = np.maximum.accumulate(np.where(d == i, ar, -1))
        prev[0] = -1
        prev[1:] = lasts[i][:-1]
        fb[i] = np.where(prev >= 0, fins_full[np.maximum(prev, 0)], free[i])
    ok = (a >= fb).all(axis=0)
    if ok.all():
        for i in range(k):
            last = int(lasts[i][-1])
            if last >= 0:
                free[i] = float(fins_full[last])
        return B, d, a.copy(), fins_full, None
    q = int(np.argmin(ok))
    if q:
        for i in range(k):
            last = int(lasts[i][q - 1])
            if last >= 0:
                free[i] = float(fins_full[last])
    accs = d[:q]
    starts = a[:q].copy()
    fins = fins_full[:q]
    reason = "busy" if bool((a[q] < fb[:, q]).any()) else None
    step = _corrected_step_k(float(a[q]), svc[:, q], free)
    return (
        q + 1,
        np.concatenate((accs, (step[0],))),
        np.concatenate((starts, (step[1],))),
        np.concatenate((fins, (step[2],))),
        reason,
    )


def _corrected_step_k(arrival, svc_col, free):
    """One exact scalar dispatch step from verified state.

    Mirrors the scan body bit for bit: ``start = arrival if arrival >
    free else free``, ``finish = start + service``, winner = first
    strictly smaller finish in lane order.  Updates ``free`` in place
    and returns ``(acc, start, finish)``.
    """
    starts = [arrival if arrival > f else f for f in free]
    best = 0
    best_fin = starts[0] + float(svc_col[0])
    for i in range(1, len(starts)):
        fin = starts[i] + float(svc_col[i])
        if fin < best_fin:
            best = i
            best_fin = fin
    free[best] = best_fin
    return best, starts[best], best_fin


def _one_round(a, c, services, free, busy):
    if busy:
        return _round_k_busy(a, c, services, free)
    return _round_k_idle(a, c, services, free)


def _dispatch_burst(arrivals, class_ids, rows, free):
    """Exact scalar dispatch of one burst the rounds keep mispredicting.

    The scan body lane by lane: ``rows[c]`` lists class ``c``'s service
    on every lane (``inf`` = infeasible, never a strict-less winner) and
    the winner is the first strict minimum finish.  Updates ``free`` in
    place and returns ``(accs, starts, fins)`` arrays.
    """
    lanes = range(len(free))
    accs: list[int] = []
    starts: list[float] = []
    fins: list[float] = []
    for arrival, cid in zip(arrivals, class_ids):
        row = rows[cid]
        best = 0
        best_fin = _INF
        for i in lanes:
            idle = free[i]
            fin = (arrival if arrival > idle else idle) + row[i]
            if fin < best_fin:
                best = i
                best_fin = fin
        idle = free[best]
        free[best] = best_fin
        accs.append(best)
        starts.append(arrival if arrival > idle else idle)
        fins.append(best_fin)
    return np.asarray(accs, dtype=np.int64), np.asarray(starts), np.asarray(fins)


def dispatch_vectorized(arrivals, class_ids, services, free, flush, chunk_size):
    """Dispatch a fault-free trace: the fast path's entry point.

    ``services`` is a ``(width, classes)`` float64 matrix with ``inf``
    marking infeasible pairs; ``free`` is the mutable per-accelerator
    clock list.  With the native kernel every ``chunk_size`` chunk is
    dispatched in one C pass; otherwise speculate-and-verify rounds run,
    and the stretches speculation keeps mispredicting (regime
    transitions, adversarial arrival patterns) go through an exact
    scalar loop in escalating bursts.  ``flush(base, accs, starts,
    fins)`` receives every dispatched stretch in trace order.
    """
    n = int(arrivals.size)
    if _native_dispatch is not None:
        # exact native loop: no speculation to verify, no constraints to
        # hit — every chunk is fully dispatched in one C pass
        pos = 0
        while pos < n:
            hi = min(pos + chunk_size, n)
            _, accs, starts, fins = _native_dispatch(
                arrivals[pos:hi], class_ids[pos:hi], services, free, _INF
            )
            flush(pos, accs, starts, fins)
            pos = hi
        return
    pos = 0
    max_window = max(chunk_size, MIN_WINDOW)
    window = MIN_WINDOW
    busy = max(free) > float(arrivals[0]) if n else False
    stalls = 0
    burst = MIN_BURST
    rows = services.T.tolist()
    while pos < n:
        hi = min(pos + window, n)
        span = hi - pos
        q, accs, starts, fins, reason = _one_round(
            arrivals[pos:hi], class_ids[pos:hi], services, free, busy
        )
        if q:
            flush(pos, accs, starts, fins)
            pos += q
        if reason == "idle":
            busy = False
        elif reason == "busy":
            busy = True
        if q >= span:
            window = min(window * 4, max_window)
            stalls = 0
            burst = MIN_BURST
        elif q >= STALL_ACCEPT:
            window = min(max(2 * q, MIN_WINDOW), max_window)
            stalls = 0
            burst = MIN_BURST
        else:
            window = MIN_WINDOW
            stalls += 1
            if stalls >= MAX_STALLS:
                end = min(pos + burst, n)
                flush(
                    pos,
                    *_dispatch_burst(
                        arrivals[pos:end].tolist(),
                        class_ids[pos:end].tolist(),
                        rows,
                        free,
                    ),
                )
                pos = end
                burst = min(burst * 2, max_window)
                stalls = 0
                if pos < n:
                    busy = max(free) > float(arrivals[pos])
