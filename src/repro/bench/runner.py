"""The repeated-run driver: N timed repeats -> per-metric summaries.

``run_bench`` runs an experiment's repeats serially, times each one
(``wall_seconds``), and summarizes every metric across repeats with
:func:`summarize`: the count, mean, median, sample standard deviation,
minimum and maximum, which are every aggregate a gate reads.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.bench.experiments import Experiment
from repro.perf.parallel import usable_cpus


def environment() -> dict[str, Any]:
    """What the host and process contribute to a measurement.

    ``native_kernel`` is true when this process dispatched through the
    compiled k-wide kernel (false when it never loaded the dispatch
    layer).  ``pythondontwritebytecode`` matters to short invocations:
    without a bytecode cache every process compiles what it imports.
    """
    import numpy

    dispatch = sys.modules.get("repro.sim._native")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "usable_cpus": usable_cpus(),
        "native_kernel": dispatch is not None and dispatch.native_available(),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


@dataclass(frozen=True)
class MetricSummary:
    """Distribution summary of one metric across repeats."""

    n: int
    mean: float
    median: float
    #: sample standard deviation (0 for one sample)
    std: float
    min: float
    max: float

    def value(self, aggregate: str) -> float:
        """Resolve an aggregate name (``mean``/``median``/``min``/``max``)."""
        if aggregate not in ("mean", "median", "min", "max"):
            raise ValueError(
                f"unknown aggregate {aggregate!r}; expected one of "
                "mean, median, min, max"
            )
        return float(getattr(self, aggregate))

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def summarize(samples: Sequence[float]) -> MetricSummary:
    """The count, mean, median, std, min and max of ``samples``."""
    values = [float(value) for value in samples]
    if not values:
        raise ValueError("need at least one sample")
    return MetricSummary(
        n=len(values),
        mean=statistics.mean(values),
        median=statistics.median(values),
        std=statistics.stdev(values) if len(values) > 1 else 0.0,
        min=min(values),
        max=max(values),
    )


@dataclass
class BenchResult:
    """All repeats of one benched experiment, summarized per metric."""

    kind: str
    params: dict[str, Any]
    repeats: int
    samples: list[dict[str, float]]
    summaries: dict[str, MetricSummary] = field(default_factory=dict)

    def metric(self, name: str) -> MetricSummary:
        try:
            return self.summaries[name]
        except KeyError:
            raise KeyError(
                f"no metric {name!r}; have {sorted(self.summaries)}"
            ) from None

    def entry(self) -> dict[str, Any]:
        """The JSON record of this result."""
        return {
            "timestamp": time.time(),
            "kind": self.kind,
            "params": self.params,
            "repeats": self.repeats,
            "environment": environment(),
            "metrics": {
                name: summary.as_dict()
                for name, summary in sorted(self.summaries.items())
            },
            "samples": self.samples,
        }


def run_bench(experiment: Experiment, repeats: int = 5) -> BenchResult:
    """Run ``repeats`` repeats of ``experiment`` serially and summarize.

    Each sample is the experiment's metrics plus ``wall_seconds``, the
    repeat's wall time.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    samples = []
    experiment.prepare()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            metrics = experiment.run_repeat()
            samples.append(
                {"wall_seconds": time.perf_counter() - started, **metrics}
            )
    finally:
        experiment.close()

    names = sorted({name for sample in samples for name in sample})
    return BenchResult(
        kind=experiment.kind,
        params=experiment.params(),
        repeats=repeats,
        samples=samples,
        summaries={
            name: summarize([s[name] for s in samples if name in s])
            for name in names
        },
    )


_CSV_COLUMNS = ("metric", "n", "mean", "median", "std", "min", "max")


def write_csv(result: BenchResult, path: Path | str) -> None:
    """Per-metric summary rows (one line per metric)."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_COLUMNS)
        for name in sorted(result.summaries):
            summary = result.summaries[name]
            writer.writerow(
                [name]
                + [getattr(summary, column) for column in _CSV_COLUMNS[1:]]
            )


def write_json(result: BenchResult, path: Path | str) -> None:
    """The full result entry (params, summaries, raw samples)."""
    Path(path).write_text(json.dumps(result.entry(), indent=2) + "\n")
