"""Composable measurement wrappers around one benchmark repeat.

A probe brackets each repeat and contributes metrics to its sample:

* :class:`TimerProbe` — wall seconds (always on);
* :class:`StatsProbe` — the change in the ``repro_eval_*`` counters
  (:func:`repro.perf.metrics.read_totals`) attributed to the repeat
  (model evaluations, cache behaviour);
* :class:`SpanRollupProbe` — enables :data:`repro.obs.spans.GLOBAL_TRACER`
  for the repeat and rolls recorded span durations up by span name
  (opt-in: an enabled tracer costs throughput).

Probes only *add* metrics; they never touch what the experiment itself
reported, so the ``noise=None`` byte-identity contract is unaffected.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.spans import GLOBAL_TRACER
from repro.perf.metrics import read_totals


class Probe:
    """One measurement wrapper; subclasses bracket a repeat."""

    def start(self) -> None:
        """Called immediately before the repeat runs."""

    def finish(self, metrics: dict[str, float]) -> None:
        """Called after the repeat; adds this probe's metrics."""


class TimerProbe(Probe):
    """Wall-clock seconds for the repeat (``wall_seconds``)."""

    def __init__(self) -> None:
        self._started = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()

    def finish(self, metrics: dict[str, float]) -> None:
        metrics["wall_seconds"] = time.perf_counter() - self._started


class StatsProbe(Probe):
    """Evaluation-counter delta: evaluations and cache traffic per repeat."""

    def __init__(self) -> None:
        self._before = None

    def start(self) -> None:
        self._before = read_totals().evals

    def finish(self, metrics: dict[str, float]) -> None:
        delta = read_totals().evals.delta_since(self._before)
        metrics["stats_evaluations"] = float(delta.evaluations)
        metrics["stats_cache_hits"] = float(delta.cache_hits)
        metrics["stats_cache_misses"] = float(delta.cache_misses)


class SpanRollupProbe(Probe):
    """Per-span-name duration rollup from the global tracer.

    Enables the tracer for the repeat (clearing the buffer), then sums
    recorded span durations by name into ``span_<name>_seconds``
    metrics plus a ``span_count`` total.  Opt-in: an enabled tracer is
    not free, so wall-clock metrics from the same repeat reflect the
    traced run.
    """

    def __init__(self, top: int = 8):
        if top < 1:
            raise ValueError("need at least one span bucket")
        self.top = top
        self._was_enabled = False

    def start(self) -> None:
        self._was_enabled = GLOBAL_TRACER.enabled
        GLOBAL_TRACER.enable(clear=True)

    def finish(self, metrics: dict[str, float]) -> None:
        spans = GLOBAL_TRACER.drain()
        if not self._was_enabled:
            GLOBAL_TRACER.disable()
        totals: dict[str, float] = {}
        for recorded in spans:
            totals[recorded.name] = totals.get(recorded.name, 0.0) + recorded.duration
        metrics["span_count"] = float(len(spans))
        ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        for name, seconds in ranked[: self.top]:
            metrics[f"span_{name.replace('.', '_')}_seconds"] = seconds


def default_probes(trace_rollup: bool = False) -> list[Probe]:
    """The standard probe stack: timer + stats (+ span rollup)."""
    probes: list[Probe] = [TimerProbe(), StatsProbe()]
    if trace_rollup:
        probes.append(SpanRollupProbe())
    return probes


def run_probed(run, probes: list[Probe]) -> dict[str, Any]:
    """Run ``run()`` under ``probes``; experiment metrics win name clashes."""
    for probe in probes:
        probe.start()
    result = run()
    measured: dict[str, float] = {}
    # reverse order: the innermost bracket (last started) closes first
    for probe in reversed(probes):
        probe.finish(measured)
    measured.update(result)
    return measured
