"""Discrete-event core: a buffered-pipeline simulator.

Every dataflow in the paper's design is a linear pipeline of stages
connected by single or double buffers: DRAM tiles flow through
``load -> AIE -> store``, native tiles through ``stream-in -> compute ->
stream-out``.  Buffer depth is the knob the paper studies (double vs
single buffering, Sections IV-A and V-G): a double buffer (2 slots) lets
adjacent stages overlap; a single buffer (1 slot) serialises them.

:class:`PipelineSimulator` computes exact start/end times for every
(item, stage) pair under those constraints:

* a stage starts an item when the item has left the previous stage,
* a stage processes one item at a time, in order,
* a stage cannot *finish* handing an item downstream until the
  downstream buffer has a free slot (``slots`` releases happen when the
  downstream stage finishes the item ``slots`` positions earlier).

This reproduces pipeline fill/drain and blocking effects the closed-form
``#tiles * max(...)`` analytical model abstracts away — exactly the gap
the paper observes between its model and hardware runs.

Constant-service stages (``service`` given as a number rather than a
callable) additionally unlock a vectorized solver: after a scalar
warm-up it detects which constraint binds each stage in steady state
(its own previous item, the upstream hand-off, or downstream
backpressure), replays the remaining items as NumPy recurrences, and
*verifies* the replay elementwise against every constraint — any
violation falls back to the exact loop at the first bad item, so the
result is always bit-identical to the scalar simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

from repro.obs.spans import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: ``run(vectorize=None)`` auto-enables the vectorized solver at this size
VECTORIZE_MIN_ITEMS = 512


@dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage.

    ``service`` maps an item index to its processing time; a plain
    number means every item takes that constant time (and makes the
    stage eligible for the vectorized solver).  ``slots`` is the
    capacity of the buffer *feeding* this stage (2 = double buffered,
    1 = single buffered); the first stage's value is ignored (its input
    is always available).
    """

    name: str
    service: Union[Callable[[int], float], float, int]
    slots: int = 2

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError("buffer needs at least one slot")
        if not callable(self.service) and float(self.service) < 0:
            raise ValueError("service time must be non-negative")

    def service_fn(self) -> Callable[[int], float]:
        """The per-item service callable (constants are wrapped)."""
        if callable(self.service):
            return self.service
        value = float(self.service)
        return lambda _item: value

    @property
    def constant_service(self) -> float | None:
        """The constant service time, or None for callable services."""
        if callable(self.service):
            return None
        return float(self.service)


@dataclass
class PipelineResult:
    """Timing of a pipeline run."""

    stage_names: list[str]
    num_items: int
    #: end[s][t]: when stage s finished item t
    end_times: list[list[float]]
    #: start[s][t]: when stage s began item t
    start_times: list[list[float]]

    @property
    def makespan(self) -> float:
        if self.num_items == 0:
            return 0.0
        return self.end_times[-1][-1]

    def stage_busy(self, stage: int) -> float:
        """Total service time stage ``stage`` spent processing."""
        return sum(
            e - s for s, e in zip(self.start_times[stage], self.end_times[stage])
        )

    def stage_busy_by_name(self, name: str) -> float:
        return self.stage_busy(self.stage_names.index(name))

    def bottleneck_stage(self) -> str:
        """Name of the stage with the largest total busy time."""
        busiest = max(range(len(self.stage_names)), key=self.stage_busy)
        return self.stage_names[busiest]


class PipelineSimulator:
    """Simulates items flowing through buffered stages."""

    def __init__(self, stages: Sequence[PipelineStage]):
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        self.stages = list(stages)

    def run(self, num_items: int, vectorize: bool | None = None) -> PipelineResult:
        """Simulate ``num_items`` items through the pipeline.

        ``vectorize=None`` (default) picks the vectorized solver
        automatically when every stage has a constant service time and
        the run is long enough to amortize the warm-up; ``True`` opts in
        for any size (callable services still fall back to the exact
        loop); ``False`` forces the exact loop.  Both paths produce
        bit-identical timings.
        """
        if num_items < 0:
            raise ValueError("num_items must be non-negative")
        constants = [stage.constant_service for stage in self.stages]
        eligible = all(value is not None for value in constants)
        if vectorize is None:
            vectorize = eligible and num_items >= VECTORIZE_MIN_ITEMS
        with span(
            "pipeline.run",
            track="pipeline",
            items=num_items,
            stages=len(self.stages),
            vectorize=bool(vectorize and eligible),
        ):
            if vectorize and eligible and num_items > 0:
                return self._run_vectorized(num_items, constants)
            return self._run_exact(num_items)

    def _run_exact(self, num_items: int) -> PipelineResult:
        n_stages = len(self.stages)
        services = [stage.service_fn() for stage in self.stages]
        start = [[0.0] * num_items for _ in range(n_stages)]
        end = [[0.0] * num_items for _ in range(n_stages)]
        for t in range(num_items):
            for s in range(n_stages):
                ready = end[s - 1][t] if s > 0 else 0.0
                stage_free = end[s][t - 1] if t > 0 else 0.0
                begin = max(ready, stage_free)
                # blocking: the buffer between s and s+1 must have a free
                # slot before this stage can write item t into it; a slot
                # frees when the downstream stage finishes the item
                # `slots` positions earlier.
                if s + 1 < n_stages:
                    slots = self.stages[s + 1].slots
                    if t - slots >= 0:
                        begin = max(begin, end[s + 1][t - slots])
                start[s][t] = begin
                end[s][t] = begin + services[s](t)
        return PipelineResult(
            stage_names=[stage.name for stage in self.stages],
            num_items=num_items,
            end_times=end,
            start_times=start,
        )

    # -- vectorized constant-service solver ----------------------------

    def _run_vectorized(
        self, num_items: int, constants: Sequence[float]
    ) -> PipelineResult:
        """Steady-state replay with exact verification.

        The recurrence ``begin[s][t] = max(end[s-1][t], end[s][t-1],
        end[s+1][t-slots])`` cannot be vectorized directly, but in
        steady state each stage's max is won by the *same* constraint
        every item.  So: run the exact loop for a warm-up prefix, detect
        the winning constraint per stage over a trailing window, replay
        the rest of the run as per-stage NumPy recurrences (in an order
        that respects which rows feed which), then verify elementwise
        that every replayed begin really dominates all of its
        constraints.  Verification failure keeps the verified prefix and
        resumes the exact loop — the output is bit-identical to
        :meth:`_run_exact` in every case, which the test suite asserts.
        """
        # NumPy loads only for runs this long: the scalar loop never
        # pays its import
        import numpy as np

        n_stages = len(self.stages)
        max_slots = max((stage.slots for stage in self.stages[1:]), default=1)
        end = np.zeros((n_stages, num_items))
        start = np.zeros((n_stages, num_items))
        cursor = self._fill_exact(
            end, start, 0, min(num_items, max(32, 4 * (n_stages + max_slots)))
        )
        attempts = 0
        window = 8 + max_slots
        while cursor < num_items:
            attempts += 1
            if attempts > 8:
                self._fill_exact(end, start, cursor, num_items)
                break
            plan = self._detect_pattern(end, start, cursor, min(window, cursor - 1))
            if plan is None:
                cursor = self._fill_exact(
                    end, start, cursor, min(num_items, cursor + max(64, 2 * window))
                )
                continue
            self._replay(end, start, cursor, plan, constants)
            good = self._verify(end, start, cursor)
            if good == num_items - cursor:
                break
            if good == 0:
                cursor = self._fill_exact(
                    end, start, cursor, min(num_items, cursor + max(64, 2 * window))
                )
            else:
                cursor += good
        return PipelineResult(
            stage_names=[stage.name for stage in self.stages],
            num_items=num_items,
            end_times=[row.tolist() for row in end],
            start_times=[row.tolist() for row in start],
        )

    def _fill_exact(
        self, end: np.ndarray, start: np.ndarray, lo: int, hi: int
    ) -> int:
        """Run the exact recurrence for items ``[lo, hi)`` in-place."""
        n_stages = len(self.stages)
        constants = [stage.constant_service for stage in self.stages]
        for t in range(lo, hi):
            for s in range(n_stages):
                ready = end[s - 1, t] if s > 0 else 0.0
                stage_free = end[s, t - 1] if t > 0 else 0.0
                begin = max(ready, stage_free)
                if s + 1 < n_stages:
                    slots = self.stages[s + 1].slots
                    if t - slots >= 0:
                        begin = max(begin, end[s + 1, t - slots])
                start[s, t] = begin
                end[s, t] = begin + constants[s]
        return hi

    def _detect_pattern(
        self, end: np.ndarray, start: np.ndarray, cursor: int, window: int
    ) -> list[tuple[int, str]] | None:
        """Which constraint won each stage's max over the last ``window``
        items — and an evaluation order whose data dependencies (fwd
        needs the upstream row, blk the downstream row) are acyclic.
        Returns ``[(stage, branch), ...]`` or None when no consistent
        acyclic assignment exists (e.g. a single-buffered ping-pong where
        adjacent stages alternate winners)."""
        import numpy as np

        if window < 2:
            return None
        n_stages = len(self.stages)
        lo = cursor - window
        matches: list[list[str]] = []
        for s in range(n_stages):
            begin_w = start[s, lo:cursor]
            branches = []
            if np.array_equal(begin_w, end[s, lo - 1 : cursor - 1]):
                branches.append("self")
            if s > 0 and np.array_equal(begin_w, end[s - 1, lo:cursor]):
                branches.append("fwd")
            if s + 1 < n_stages:
                k = self.stages[s + 1].slots
                if lo - k >= 0 and np.array_equal(
                    begin_w, end[s + 1, lo - k : cursor - k]
                ):
                    branches.append("blk")
            if not branches:
                return None
            matches.append(branches)
        plan: list[tuple[int, str]] = []
        scheduled: set[int] = set()
        progress = True
        while progress and len(plan) < n_stages:
            progress = False
            for s in range(n_stages):
                if s in scheduled:
                    continue
                for branch in matches[s]:
                    dep = {"self": None, "fwd": s - 1, "blk": s + 1}[branch]
                    if dep is None or dep in scheduled:
                        plan.append((s, branch))
                        scheduled.add(s)
                        progress = True
                        break
        return plan if len(plan) == n_stages else None

    def _replay(
        self,
        end: np.ndarray,
        start: np.ndarray,
        cursor: int,
        plan: Sequence[tuple[int, str]],
        constants: Sequence[float],
    ) -> None:
        """Extend each stage's row over ``[cursor, n)`` assuming its
        detected constraint keeps winning (verified afterwards)."""
        import numpy as np

        n = end.shape[1]
        for s, branch in plan:
            c = constants[s]
            if branch == "self":
                # chained additions via accumulate: bit-identical to the
                # scalar loop's sequential `begin + c` chain
                seeded = np.empty(n - cursor + 1)
                seeded[0] = end[s, cursor - 1]
                seeded[1:] = c
                acc = np.add.accumulate(seeded)
                start[s, cursor:] = acc[:-1]
                end[s, cursor:] = acc[1:]
            elif branch == "fwd":
                src = end[s - 1, cursor:]
                start[s, cursor:] = src
                end[s, cursor:] = src + c
            else:  # blk
                k = self.stages[s + 1].slots
                src = end[s + 1, cursor - k : n - k]
                start[s, cursor:] = src
                end[s, cursor:] = src + c

    def _verify(self, end: np.ndarray, start: np.ndarray, cursor: int) -> int:
        """Items from ``cursor`` whose replayed begins dominate *every*
        constraint (the replay is exact up to the first violation)."""
        import numpy as np

        n_stages, n = end.shape
        bad = np.zeros(n - cursor, dtype=bool)
        for s in range(n_stages):
            begin = start[s, cursor:]
            bad |= begin < np.concatenate(([end[s, cursor - 1]], end[s, cursor:-1]))
            if s > 0:
                bad |= begin < end[s - 1, cursor:]
            if s + 1 < n_stages:
                k = self.stages[s + 1].slots
                if cursor - k >= 0:
                    bad |= begin < end[s + 1, cursor - k : n - k]
                else:
                    tail = begin[k - cursor :]
                    bad[k - cursor :] |= tail < end[s + 1, : n - k]
        if not bad.any():
            return n - cursor
        return int(np.argmax(bad))
