"""Generic parameter-sweep helper used by the experiment drivers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.obs.spans import span
from repro.perf.metrics import EvalStats, record_eval, track
from repro.perf.parallel import parallel_map, resolve_jobs


@dataclass
class SweepResult:
    """Records produced by a sweep: one dict per parameter combination."""

    axes: dict[str, list[Any]]
    records: list[dict[str, Any]] = field(default_factory=list)
    #: evaluation accounting for the sweep (combinations evaluated,
    #: combinations the evaluator declined, wall time, workers used)
    stats: EvalStats = field(default_factory=EvalStats)

    def column(self, key: str) -> list[Any]:
        return [r[key] for r in self.records]

    def where(self, **conditions: Any) -> list[dict[str, Any]]:
        return [
            r for r in self.records if all(r.get(k) == v for k, v in conditions.items())
        ]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def sweep(
    axes: Mapping[str, Iterable[Any]],
    evaluate: Callable[..., Mapping[str, Any]],
    jobs: int = 1,
) -> SweepResult:
    """Run ``evaluate(**point)`` over the cartesian product of ``axes``.

    Each record contains the axis values plus whatever ``evaluate``
    returns.  ``evaluate`` may return None to skip a combination.
    ``jobs`` parallelises the evaluations; record order always follows
    the cartesian-product order, identical to the serial result.
    """
    materialized = {name: list(values) for name, values in axes.items()}
    stats = EvalStats(jobs=resolve_jobs(jobs))
    result = SweepResult(axes=materialized, stats=stats)
    names = list(materialized)
    points = [
        dict(zip(names, combo))
        for combo in itertools.product(*(materialized[n] for n in names))
    ]
    sweep_span = span(
        "sweep.run",
        track="sweep",
        axes=",".join(names),
        points=len(points),
    )
    with sweep_span:
        with track(stats):
            outcomes = parallel_map(
                lambda point: evaluate(**point), points, jobs=jobs
            )
        for point, outcome in zip(points, outcomes):
            if outcome is None:
                stats.skipped += 1
                continue
            record = dict(point)
            record.update(outcome)
            result.records.append(record)
        stats.evaluations = len(result.records)
        record_eval(stats)
        sweep_span.set(evaluated=stats.evaluations, skipped=stats.skipped)
        return result
