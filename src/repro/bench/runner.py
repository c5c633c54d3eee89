"""The repeated-run driver: N seeded repeats -> per-metric summaries.

``run_bench`` derives one seed per repeat up front
(``derive_seed(seed, repeat)``), runs the repeats serially or through
:func:`repro.perf.parallel.parallel_map` (thread-based,
order-preserving), and summarizes every metric across repeats with
:func:`repro.bench.stats.summarize`.  Because each repeat's randomness
is a pure function of its own derived seed, a ``--jobs N`` run
produces the identical sample stream to a serial run — only wall-clock
measurements (which are *measurements*, not draws) can differ.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.bench.experiments import Experiment
from repro.bench.measure import Probe, default_probes, run_probed
from repro.bench.noise import NoiseModel
from repro.bench.stats import MetricSummary, summarize
from repro.perf.parallel import parallel_map, usable_cpus
from repro.sim.streaming import derive_seed

#: bootstrap-resample stream lane, disjoint from repeat lanes
_BOOTSTRAP_LANE = 0x5EED


def environment() -> dict[str, Any]:
    """What the host and process contribute to a measurement.

    ``native_kernel`` is true when this process dispatched through the
    compiled k-wide kernel (false when it never loaded the dispatch
    layer).  ``pythondontwritebytecode`` matters to short invocations:
    without a bytecode cache every process compiles what it imports.
    """
    import numpy

    dispatch = sys.modules.get("repro.sim.dispatch_batch")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "usable_cpus": usable_cpus(),
        "native_kernel": dispatch is not None and dispatch.native_available(),
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
    }


@dataclass
class BenchResult:
    """All repeats of one benched experiment, summarized per metric."""

    kind: str
    params: dict[str, Any]
    repeats: int
    seed: int
    noise: list[str]
    confidence: float
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
        """The JSON trajectory entry for this result."""
        return {
            "timestamp": time.time(),
            "kind": self.kind,
            "params": self.params,
            "repeats": self.repeats,
            "seed": self.seed,
            "noise": self.noise,
            "confidence": self.confidence,
            "environment": environment(),
            "metrics": {
                name: summary.as_dict()
                for name, summary in sorted(self.summaries.items())
            },
            "samples": self.samples,
        }


def run_bench(
    experiment: Experiment,
    repeats: int = 5,
    seed: int = 0,
    noise: list[NoiseModel] | None = None,
    jobs: int = 1,
    confidence: float = 0.95,
    bootstrap_resamples: int = 1000,
    probes: list[Probe] | None = None,
    trace_rollup: bool = False,
) -> BenchResult:
    """Run ``repeats`` seeded repeats of ``experiment`` and summarize.

    ``jobs > 1`` runs repeats concurrently (threads); per-repeat seeds
    are derived up front, so the sample stream is byte-identical to a
    serial run.  Probes default to timer + stats
    (:func:`repro.bench.measure.default_probes`); note that with
    ``jobs > 1`` concurrent repeats share the process-global stats and
    tracer, so the probe-attributed deltas are only exact at
    ``jobs=1``.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    repeat_seeds = [derive_seed(seed, repeat) for repeat in range(repeats)]

    def one(repeat_seed: int) -> dict[str, float]:
        stack = probes if probes is not None else default_probes(trace_rollup)
        return run_probed(
            lambda: experiment.run_repeat(repeat_seed, noise), stack
        )

    experiment.prepare()
    try:
        samples = parallel_map(one, repeat_seeds, jobs=jobs)
    finally:
        experiment.close()

    names = sorted({name for sample in samples for name in sample})
    summaries = {}
    for name in names:
        values = [sample[name] for sample in samples if name in sample]
        summaries[name] = summarize(
            values,
            confidence=confidence,
            resamples=bootstrap_resamples,
            seed=derive_seed(seed, _BOOTSTRAP_LANE),
        )
    return BenchResult(
        kind=experiment.kind,
        params=experiment.params(),
        repeats=repeats,
        seed=seed,
        noise=[model.describe() for model in noise or ()],
        confidence=confidence,
        samples=samples,
        summaries=summaries,
    )


_CSV_COLUMNS = (
    "metric", "n", "mean", "median", "std", "min", "max",
    "ci_low", "ci_high", "boot_low", "boot_high", "confidence",
)


def write_csv(result: BenchResult, path: Path | str) -> None:
    """Per-metric summary rows (one line per metric)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
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
