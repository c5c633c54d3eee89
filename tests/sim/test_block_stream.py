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
from repro.sim import cluster_serving
from repro.sim.cluster_serving import ShardedServingCluster
from repro.sim.serving import DISPATCH_CHUNK, ServingSimulator
from repro.sim.streaming import (
    TRACE_BLOCK,
    SoATrace,
    generate_trace_shard,
    generate_trace_soa,
    shard_arrival_offsets,
    shard_bounds,
)

from ..conformance.harness import SHAPES, fast_variants, make_partition


def _joined_blocks(trace: SoATrace, size: int) -> tuple[np.ndarray, np.ndarray]:
    bases, arrivals, shape_ids = zip(*trace.blocks(size))
    lengths = [block.size for block in arrivals]
    assert list(bases) == np.cumsum([0, *lengths[:-1]]).tolist()
    assert all(length == size for length in lengths[:-1])
    return np.concatenate(arrivals), np.concatenate(shape_ids)


@pytest.mark.parametrize(
    "size",
    [1, 999, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1, DISPATCH_CHUNK + 3],
)
def test_generated_blocks_are_the_materialized_arrays(size):
    requests = 2 * DISPATCH_CHUNK + 17 if size > 1 else 3000
    lazy = generate_trace_soa(SHAPES, requests, 2e-4, seed=9)
    arrivals, shape_ids = _joined_blocks(lazy, size)
    whole = generate_trace_soa(SHAPES, requests, 2e-4, seed=9)
    assert arrivals.tobytes() == whole.arrivals.tobytes()
    assert shape_ids.tobytes() == whole.shape_ids.tobytes()
    # a materialized trace yields views of its arrays, the same blocks
    again, again_ids = _joined_blocks(whole, size)
    assert again.tobytes() == arrivals.tobytes()
    assert again_ids.tobytes() == shape_ids.tobytes()


@pytest.mark.parametrize("shards", [2, 3, 5])
def test_shard_blocks_carry_the_full_trace_clock(shards):
    requests = TRACE_BLOCK + DISPATCH_CHUNK + 11
    full = generate_trace_soa(SHAPES, requests, 3e-4, seed=4)
    bounds = shard_bounds(requests, shards)
    offsets = shard_arrival_offsets(requests, 3e-4, 4, bounds)
    for (lo, hi), offset in zip(bounds, offsets):
        shard = generate_trace_shard(
            SHAPES, requests, 3e-4, 4, lo=lo, hi=hi, arrival_offset=offset
        )
        arrivals, shape_ids = _joined_blocks(shard, TRACE_BLOCK - 5)
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
@pytest.mark.parametrize("chunk_size", [DISPATCH_CHUNK, 1000])
def test_streaming_serve_folds_the_same_report_either_way(
    variant, context, width, chunk_size
):
    # 1000 divides neither the trace length nor a trace block
    requests = 2 * TRACE_BLOCK + 4321
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
                2 * TRACE_BLOCK + 99, 4e-4, seed=6, monitor_window=0.05
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


def _traced_peak(simulator, requests: int) -> int:
    """Peak traced bytes of generating and serving ``requests``, as
    ``serve --streaming --slo`` does."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    trace = generate_trace_soa(SHAPES, requests, 1e-3, seed=1)
    monitor = ServingMonitor(requests * 1e-3 / 50)
    simulator.run(trace, streaming=True, monitor=monitor)
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
