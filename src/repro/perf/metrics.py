"""Lightweight timing/counter instrumentation for the evaluation engine.

Every batched evaluation path (DSE exploration, serving prewarm)
reports an :class:`EvalStats` describing how much work it did and how
much of it the memoization layer absorbed.  The CLI surfaces the
aggregate after a run (``--stats``).

The dataclasses are plain per-batch values.  :func:`record_eval` and
:func:`record_faults` publish each one into
:data:`repro.obs.metrics.GLOBAL_METRICS` under the ``repro_eval_*`` /
``repro_fault_*`` names documented in ``docs/observability.md``; that
registry is the only store, so ``--stats`` (via :func:`read_totals`),
``--metrics-out`` and shard-worker dumps all read the same counters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry


@dataclass
class EvalStats:
    """Counters for one batch of model evaluations.

    ``evaluations`` counts candidates actually pushed through the model
    (skipped/infeasible candidates count in ``skipped`` instead);
    ``cache_hits``/``cache_misses`` describe how the memoization layer
    behaved during the batch; ``wall_seconds`` is the batch wall time.
    """

    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    skipped: int = 0
    wall_seconds: float = 0.0

    @property
    def attempted(self) -> int:
        """Candidates considered, feasible or not."""
        return self.evaluations + self.skipped

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served from memory."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def evals_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.evaluations / self.wall_seconds

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Fold ``other`` into this instance (returns self for chaining)."""
        self.evaluations += other.evaluations
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.skipped += other.skipped
        self.wall_seconds += other.wall_seconds
        return self

    def snapshot(self) -> "EvalStats":
        """An immutable-by-convention copy of the current counters."""
        return EvalStats(
            evaluations=self.evaluations,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            skipped=self.skipped,
            wall_seconds=self.wall_seconds,
        )

    def delta_since(self, snapshot: "EvalStats") -> "EvalStats":
        """Counters accumulated since ``snapshot`` was taken.

        The standard way to publish one operation's contribution when
        the operation mutates a long-lived stats object: take a
        snapshot before, :func:`record_eval` the delta after.
        """
        return EvalStats(
            evaluations=self.evaluations - snapshot.evaluations,
            cache_hits=self.cache_hits - snapshot.cache_hits,
            cache_misses=self.cache_misses - snapshot.cache_misses,
            skipped=self.skipped - snapshot.skipped,
            wall_seconds=self.wall_seconds - snapshot.wall_seconds,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "skipped": self.skipped,
            "wall_seconds": self.wall_seconds,
            "hit_rate": self.hit_rate,
            "evals_per_second": self.evals_per_second,
        }

    def summary(self) -> str:
        return (
            f"{self.evaluations} evaluations ({self.skipped} skipped) in "
            f"{self.wall_seconds * 1e3:.1f} ms; "
            f"cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.hit_rate:.0%})"
        )


@contextmanager
def track(stats: EvalStats) -> Iterator[EvalStats]:
    """Time a block of work into ``stats.wall_seconds``."""
    start = time.perf_counter()
    try:
        yield stats
    finally:
        stats.wall_seconds += time.perf_counter() - start


@dataclass
class FaultStats:
    """Counters for one fault-injected serving run.

    ``windows`` is the schedule size; ``kills`` counts executions a down
    window interrupted; ``retries`` the retry attempts consumed;
    ``requeues`` the attempts deferred to a schedule transition because
    nothing was usable; ``shed``/``completed`` partition the offered
    requests.
    """

    windows: int = 0
    kills: int = 0
    retries: int = 0
    requeues: int = 0
    shed: int = 0
    completed: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "windows": self.windows,
            "kills": self.kills,
            "retries": self.retries,
            "requeues": self.requeues,
            "shed": self.shed,
            "completed": self.completed,
        }

    def summary(self) -> str:
        return (
            f"{self.windows} fault windows: {self.kills} kills, "
            f"{self.retries} retries, {self.requeues} requeues, "
            f"{self.shed} shed / {self.completed} completed"
        )


# (field, metric name, help) per published counter; the field names
# double as the keyword arguments that rebuild the dataclass from totals
_EVAL_COUNTERS = (
    ("evaluations", "repro_eval_evaluations_total", "Model evaluations performed"),
    ("cache_hits", "repro_eval_cache_hits_total",
     "Evaluations served from the memo cache"),
    ("cache_misses", "repro_eval_cache_misses_total",
     "Evaluations that missed the memo cache"),
    ("skipped", "repro_eval_skipped_total", "Infeasible candidates skipped"),
)
_FAULT_COUNTERS = (
    ("windows", "repro_fault_windows_total", "Fault windows in injected schedules"),
    ("kills", "repro_fault_kills_total", "Executions interrupted by a down window"),
    ("retries", "repro_fault_retries_total", "Retry attempts consumed"),
    ("requeues", "repro_fault_requeues_total",
     "Attempts deferred to a schedule transition"),
    ("shed", "repro_fault_shed_total", "Requests shed after exhausting retries"),
    ("completed", "repro_fault_completed_total", "Requests completed under faults"),
)
_EVAL_WALL = "repro_eval_wall_seconds_total"
_EVAL_BATCHES = "repro_eval_batches_total"
_FAULT_RUNS = "repro_fault_runs_total"


def record_eval(
    stats: EvalStats, registry: MetricsRegistry = GLOBAL_METRICS
) -> None:
    """Publish one evaluation batch as ``repro_eval_*`` series.

    The batch lands atomically: :meth:`MetricsRegistry.reset` and
    :func:`read_totals` never observe it half-applied.
    """
    with registry.atomic():
        for field, name, help_ in _EVAL_COUNTERS:
            registry.counter(name, help_).inc(getattr(stats, field))
        registry.counter(
            _EVAL_WALL, "Wall time spent in evaluation batches"
        ).inc(max(stats.wall_seconds, 0.0))
        registry.counter(_EVAL_BATCHES, "Evaluation batches recorded").inc(1)


def record_faults(
    stats: FaultStats, registry: MetricsRegistry = GLOBAL_METRICS
) -> None:
    """Publish one fault-injected serving run as ``repro_fault_*`` series."""
    with registry.atomic():
        for field, name, help_ in _FAULT_COUNTERS:
            registry.counter(name, help_).inc(getattr(stats, field))
        registry.counter(_FAULT_RUNS, "Fault-injected serving runs recorded").inc(1)


@dataclass(frozen=True)
class StatsTotals:
    """Everything recorded since the last reset, read back from the
    ``repro_eval_*`` / ``repro_fault_*`` counters."""

    evals: EvalStats
    batches: int
    faults: FaultStats
    fault_runs: int


def read_totals(registry: MetricsRegistry = GLOBAL_METRICS) -> StatsTotals:
    """Aggregate evaluation and fault counters, read in one atomic step.

    Counts come back as ints (counters store floats).  Pair with
    :meth:`EvalStats.delta_since` to attribute one operation's share:
    ``before = read_totals().evals; ...;
    delta = read_totals().evals.delta_since(before)``.
    """
    value = registry.value
    with registry.atomic():
        evals = EvalStats(
            **{field: int(value(name)) for field, name, _ in _EVAL_COUNTERS},
            wall_seconds=value(_EVAL_WALL),
        )
        faults = FaultStats(
            **{field: int(value(name)) for field, name, _ in _FAULT_COUNTERS}
        )
        return StatsTotals(
            evals=evals,
            batches=int(value(_EVAL_BATCHES)),
            faults=faults,
            fault_runs=int(value(_FAULT_RUNS)),
        )
