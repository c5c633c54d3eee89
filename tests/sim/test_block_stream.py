"""Block-streamed traces: a generated trace is served without being held.

A trace from ``generate_trace_soa`` / ``generate_trace_shard`` yields
its blocks on demand through ``SoATrace.blocks``, and the fast path and
the streaming fold take it block by block.  These tests pin that the
blocks are the materialized arrays bit for bit, that a streaming serve
folds the same report and monitor series either way, and that a
streaming serve's memory does not grow with the trace.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.windows import ServingMonitor
from repro.sim import _native, cluster_serving
from repro.sim.chaos import chaos_schedule
from repro.sim.cluster_serving import ShardedServingCluster
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import (
    BLOCK_ROWS,
    SoATrace,
    generate_trace_shard,
    generate_trace_soa,
    shard_arrival_offsets,
    shard_bounds,
)

from ..conformance.harness import SHAPES, fast_variants, make_partition


def _concatenated_blocks(trace: SoATrace, size: int) -> tuple[np.ndarray, np.ndarray]:
    bases, arrivals, shape_ids = zip(*trace.blocks(size))
    lengths = [block.size for block in arrivals]
    assert list(bases) == np.cumsum([0, *lengths[:-1]]).tolist()
    assert all(length == size for length in lengths[:-1])
    return np.concatenate(arrivals), np.concatenate(shape_ids)


@pytest.mark.parametrize(
    "size",
    [
        1,
        999,
        BLOCK_ROWS - 1,
        BLOCK_ROWS,
        BLOCK_ROWS + 1,
        # blocks spanning several generator blocks
        4 * BLOCK_ROWS - 1,
        4 * BLOCK_ROWS,
        4 * BLOCK_ROWS + 1,
        8 * BLOCK_ROWS + 3,
    ],
)
def test_generated_blocks_are_the_materialized_arrays(size):
    requests = 16 * BLOCK_ROWS + 17 if size > 1 else 3000
    lazy = generate_trace_soa(SHAPES, requests, 2e-4, seed=9)
    arrivals, shape_ids = _concatenated_blocks(lazy, size)
    whole = generate_trace_soa(SHAPES, requests, 2e-4, seed=9)
    assert arrivals.tobytes() == whole.arrivals.tobytes()
    assert shape_ids.tobytes() == whole.shape_ids.tobytes()
    # a materialized trace yields views of its arrays, the same blocks
    again, again_ids = _concatenated_blocks(whole, size)
    assert again.tobytes() == arrivals.tobytes()
    assert again_ids.tobytes() == shape_ids.tobytes()


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_shard_blocks_carry_the_full_trace_clock(shards):
    requests = 12 * BLOCK_ROWS + 11
    full = generate_trace_soa(SHAPES, requests, 3e-4, seed=4)
    bounds = shard_bounds(requests, shards)
    offsets = shard_arrival_offsets(requests, 3e-4, 4, bounds)
    for (lo, hi), offset in zip(bounds, offsets):
        shard = generate_trace_shard(
            SHAPES, requests, 3e-4, 4, lo=lo, hi=hi, arrival_offset=offset
        )
        arrivals, shape_ids = _concatenated_blocks(shard, BLOCK_ROWS - 5)
        assert arrivals.tobytes() == full.arrivals[lo:hi].tobytes()
        assert shape_ids.tobytes() == full.shape_ids[lo:hi].tobytes()


def test_generated_trace_rejects_an_overflowing_clock():
    with pytest.raises(ValueError, match="overflows the arrival clock"):
        generate_trace_soa(SHAPES, 10, 1e307)
    with pytest.raises(ValueError, match="overflows the arrival clock"):
        generate_trace_soa(SHAPES, 10, float("nan"))


def _materialized(trace: SoATrace) -> SoATrace:
    """The same requests as a trace built from arrays."""
    return SoATrace(trace.shapes, trace.shape_ids.copy(), trace.arrivals.copy())


def _serve(simulator, trace, chunk_size):
    monitor = ServingMonitor(0.05, quantile_error=0.02)
    report = simulator.run(
        trace, streaming=True, chunk_size=chunk_size, monitor=monitor
    )
    return report.as_dict(), monitor.as_dict()


@pytest.mark.parametrize("variant, context", fast_variants())
@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("chunk_size", [BLOCK_ROWS, 8 * BLOCK_ROWS, 1000])
def test_streaming_serve_folds_the_same_report_either_way(
    variant, context, width, chunk_size
):
    # 1000 divides neither the trace length nor a trace block
    requests = 8 * BLOCK_ROWS + 4321
    simulator = ServingSimulator(make_partition(width))
    with context():
        lazy = _serve(
            simulator, generate_trace_soa(SHAPES, requests, 4e-4, seed=2), chunk_size
        )
        held = _serve(
            simulator,
            _materialized(generate_trace_soa(SHAPES, requests, 4e-4, seed=2)),
            chunk_size,
        )
    assert lazy == held
    assert lazy[0]["requests"] == requests


def test_inline_shards_fold_the_same_report_either_way(monkeypatch):
    simulator = ServingSimulator(
        AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    )
    simulator.prewarm(SHAPES)

    def fleet():
        with ShardedServingCluster(
            simulator, SHAPES, shards=2, start_method="inline", chunk_size=1000
        ) as cluster:
            served = cluster.serve(
                8 * BLOCK_ROWS + 99, 4e-4, seed=6, monitor_window=0.05
            )
        return served.report.as_dict(), served.monitor.as_dict()

    lazy = fleet()
    generate = cluster_serving.generate_trace_shard
    monkeypatch.setattr(
        cluster_serving,
        "generate_trace_shard",
        lambda *args, **kwargs: _materialized(generate(*args, **kwargs)),
    )
    assert fleet() == lazy


def _traced_peak(simulator, requests: int, faulted: bool = False) -> int:
    """Peak traced bytes of generating and serving ``requests``, as
    ``serve --streaming --slo`` does (with ``--faults chaos`` when
    ``faulted``)."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    horizon = requests * 1e-3
    trace = generate_trace_soa(SHAPES, requests, 1e-3, seed=1)
    faults = (
        chaos_schedule(list(simulator.partition.designs), horizon, seed=7)
        if faulted
        else None
    )
    monitor = ServingMonitor(horizon / 50)
    simulator.run(trace, streaming=True, faults=faults, monitor=monitor)
    return tracemalloc.get_traced_memory()[1] - base


def test_streaming_serve_memory_does_not_grow_with_the_trace():
    simulator = ServingSimulator(make_partition(2))
    simulator.prewarm(SHAPES)
    tracemalloc.start()
    try:
        _traced_peak(simulator, 20_000)  # first-use allocations
        small = _traced_peak(simulator, 200_000)
        large = _traced_peak(simulator, 2_000_000)
    finally:
        tracemalloc.stop()
    # the whole 2M trace alone would be 32 MB
    assert large - small < 2 * 2**20, (small, large)


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "chaos"])
@pytest.mark.parametrize("variant, context", fast_variants())
def test_streaming_working_set_is_a_few_blocks(variant, context, faulted):
    """A monitored streaming serve holds a few ``BLOCK_ROWS`` blocks and
    its fold's temporaries, on every path and at any trace length: a
    C5+C3 serve peaks at 0.7-1.5 MB above its inputs with the compiled
    kernel or the Python one.  With 65,536-row fold blocks the same
    serves peaked at 4.9-10.5 MB."""
    simulator = ServingSimulator(
        AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    )
    simulator.prewarm(SHAPES)
    with context():
        # without the compiled kernel every row is a Python-level step,
        # which tracemalloc slows to ~5 us per request; shorter traces
        # still outgrow a 64k block
        native = _native.native_available()
        short, long = (300_000, 1_200_000) if native else (20_000, 80_000)
        tracemalloc.start()
        try:
            _traced_peak(simulator, 2000, faulted)  # first-use allocations
            small = _traced_peak(simulator, short, faulted)
            large = _traced_peak(simulator, long, faulted)
        finally:
            tracemalloc.stop()
    assert max(small, large) < 2 * 2**20, (small, large)
    assert large - small < 2**19, (small, large)
