"""One latency and bucket-key pass per block, shared by report and monitor.

The serving engines' sink computes each block's latencies and sketch
bucket keys once and hands both to the streaming report and the
monitor.  These tests feed random blocks through the sink and check the
result against a naive feed in which every consumer derives its own
values (``add_many`` for the report, a bare ``observe_chunk`` for the
monitor), including blocks with underflow values and a monitor whose
``quantile_error`` differs from the report's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.windows import ServingMonitor
from repro.sim.serving import ServingSimulator, _ReportSink
from repro.sim.streaming import (
    QuantileSketch,
    StreamingServingReport,
    generate_trace_soa,
)
from repro.workloads.gemm import GemmShape

CHUNK = 64
REQUESTS = 700
REPORT_ERROR = 0.01
WINDOW = 0.05


def _blocks(width: int, underflow: bool, seed: int):
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1e-3, REQUESTS))
    accs = rng.integers(0, width, REQUESTS).astype(np.int16)
    starts = arrivals + rng.exponential(2e-4, REQUESTS)
    finishes = starts + rng.lognormal(-8.0, 0.5, REQUESTS)
    if underflow:
        # zero latencies in the third block: below every sketch bucket
        rows = slice(2 * CHUNK + 5, 2 * CHUNK + 20)
        starts[rows] = finishes[rows] = arrivals[rows]
    return arrivals, accs, starts, finishes


def _sink_fold(names, arrivals, accs, starts, finishes, monitor, seed):
    sink = _ReportSink(
        names,
        streaming=True,
        quantile_error=REPORT_ERROR,
        chunk_size=CHUNK,
        monitor=monitor,
        rows=REQUESTS,
    )
    # hand the decisions over in uneven stretches, as the engines do
    cuts = np.sort(np.random.default_rng(seed).choice(REQUESTS, 9, replace=False))
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), REQUESTS]):
        if hi > lo:
            sink.add(lo, arrivals[lo:hi], accs[lo:hi], starts[lo:hi], finishes[lo:hi])
    return sink.finish(())


def _naive_fold(names, arrivals, accs, starts, finishes, monitor):
    report = StreamingServingReport(names, quantile_error=REPORT_ERROR)
    for lo in range(0, REQUESTS, CHUNK):
        rows = slice(lo, lo + CHUNK)
        latencies = finishes[rows] - arrivals[rows]
        report.count += latencies.size
        report._makespan = max(report._makespan, float(finishes[rows].max()))
        report._latency_sum += float(latencies.sum())
        report._queueing_sum += float((starts[rows] - arrivals[rows]).sum())
        report._latency.add_many(latencies)
        for index, name in enumerate(names):
            report._loads[name] += int(np.count_nonzero(accs[rows] == index))
        monitor.observe_chunk(finishes[rows], latencies)
    return report


def _sketch_state(sketch: QuantileSketch) -> tuple:
    return (
        sketch.count,
        sketch._counts,
        sketch._underflow,
        sketch.sum,
        sketch.min,
        sketch.max,
    )


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("monitor_error", [REPORT_ERROR, 0.02])
@pytest.mark.parametrize("underflow", [False, True], ids=["plain", "underflow"])
def test_shared_fold_equals_per_consumer_feed(width, monitor_error, underflow):
    seed = 10 * width + int(underflow)
    names = [f"acc{index}" for index in range(width)]
    arrivals, accs, starts, finishes = _blocks(width, underflow, seed)
    monitor = ServingMonitor(WINDOW, quantile_error=monitor_error)
    report = _sink_fold(names, arrivals, accs, starts, finishes, monitor, seed)
    naive_monitor = ServingMonitor(WINDOW, quantile_error=monitor_error)
    naive = _naive_fold(names, arrivals, accs, starts, finishes, naive_monitor)

    assert (report._latency._underflow > 0) is underflow
    assert report.as_dict() == naive.as_dict()
    assert _sketch_state(report._latency) == _sketch_state(naive._latency)
    assert report.accelerator_load() == naive.accelerator_load()
    assert sum(report.accelerator_load().values()) == REQUESTS

    assert monitor.as_dict() == naive_monitor.as_dict()
    # the shared scatter's per-window counts agree with counting every
    # finish on its own
    windows, counts = np.unique(
        np.floor(finishes / WINDOW).astype(np.int64), return_counts=True
    )
    assert {s.index: s.completed for s in monitor.timeline()} == dict(
        zip(windows.tolist(), counts.tolist())
    )


SHAPES = (GemmShape(1024, 1024, 1024), GemmShape(512, 512, 512))


@pytest.fixture(scope="module")
def simulator():
    sim = ServingSimulator(
        AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    )
    sim.prewarm(SHAPES)
    return sim


@pytest.mark.parametrize(
    "streaming, monitor_error, calls_per_block",
    [(True, REPORT_ERROR, 1), (False, REPORT_ERROR, 1), (True, 0.02, 2)],
    ids=["streaming", "exact", "monitor-at-another-error"],
)
def test_bucket_keys_are_computed_once_per_block(
    simulator, monkeypatch, streaming, monitor_error, calls_per_block
):
    trace = generate_trace_soa(SHAPES, 5000, 1e-3, seed=3)
    blocks = -(-5000 // 512)
    calls = []
    prepare_keys = QuantileSketch.prepare_keys

    def counted(self, values):
        calls.append(values.size)
        return prepare_keys(self, values)

    monkeypatch.setattr(QuantileSketch, "prepare_keys", counted)
    simulator.run(
        trace,
        streaming=streaming,
        quantile_error=REPORT_ERROR,
        chunk_size=512,
        monitor=ServingMonitor(0.5, quantile_error=monitor_error),
    )
    assert len(calls) == calls_per_block * blocks
    assert sum(calls) == calls_per_block * 5000
