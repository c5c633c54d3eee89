"""Streaming serving structures: bit-identity, sketch bounds, SoA traces."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.sim.streaming import (
    BLOCK_ROWS,
    QuantileSketch,
    SoATrace,
    StreamingServingReport,
    generate_trace_soa,
    splitmix_uniforms,
)
from repro.workloads.gemm import GemmShape

SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 2048, 512),
    GemmShape(2048, 1024, 512),
)


# The scalar trace generator the SoA one replaced, kept verbatim as the
# oracle of the bit-identity tests below.
def _lcg_uniform(seed: int, index: int) -> float:
    """Deterministic uniform in (0, 1) from a splitmix-style hash."""
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return ((x & 0xFFFFFFFF) + 1) / (2**32 + 2)


def generate_trace(shapes, num_requests, mean_interarrival, seed=0):
    """An exponential-interarrival request trace over a shape mix, as
    ``(arrival, shape)`` pairs."""
    if num_requests < 1:
        raise ValueError("need at least one request")
    if mean_interarrival <= 0:
        raise ValueError("mean inter-arrival must be positive")
    if not shapes:
        raise ValueError("need at least one shape")
    requests = []
    clock = 0.0
    for index in range(num_requests):
        clock += -mean_interarrival * float(np.log(_lcg_uniform(seed, 2 * index)))
        shape = shapes[int(_lcg_uniform(seed, 2 * index + 1) * len(shapes))]
        requests.append((clock, shape))
    return requests


class TestSplitmixUniforms:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31, 2**63 - 1])
    def test_bit_identical_to_scalar(self, seed):
        indices = np.arange(512, dtype=np.uint64)
        vectorized = splitmix_uniforms(seed, indices)
        scalar = [_lcg_uniform(seed, index) for index in range(512)]
        assert vectorized.tolist() == scalar  # exact, not approx

    def test_open_interval(self):
        uniforms = splitmix_uniforms(3, np.arange(10_000, dtype=np.uint64))
        assert float(uniforms.min()) > 0.0
        assert float(uniforms.max()) < 1.0

    def test_sparse_indices(self):
        indices = np.asarray([0, 5, 10**12, 2**40], dtype=np.uint64)
        values = splitmix_uniforms(9, indices)
        assert values.tolist() == [_lcg_uniform(9, int(i)) for i in indices]


class TestGenerateTraceSoa:
    def test_bitwise_equal_to_scalar_trace(self):
        scalar = generate_trace(SHAPES, 1000, 0.7e-3, seed=13)
        soa = generate_trace_soa(SHAPES, 1000, 0.7e-3, seed=13)
        assert soa.arrivals.tolist() == [arrival for arrival, _ in scalar]  # exact
        assert [SHAPES[i] for i in soa.shape_ids.tolist()] == [
            shape for _, shape in scalar
        ]

    def test_duplicate_shapes_preserved(self):
        mix = (SHAPES[0], SHAPES[0], SHAPES[1])
        scalar = generate_trace(mix, 200, 1e-3, seed=2)
        soa = generate_trace_soa(mix, 200, 1e-3, seed=2)
        assert [mix[i] for i in soa.shape_ids.tolist()] == [shape for _, shape in scalar]

    def test_validation_mirrors_scalar(self):
        with pytest.raises(ValueError):
            generate_trace_soa(SHAPES, 0, 1e-3)
        with pytest.raises(ValueError):
            generate_trace_soa(SHAPES, 5, 0.0)
        with pytest.raises(ValueError):
            generate_trace_soa([], 5, 1e-3)

    def test_single_request_parity(self):
        ((arrival, shape),) = generate_trace(SHAPES, 1, 1e-3, seed=9)
        soa = generate_trace_soa(SHAPES, 1, 1e-3, seed=9)
        assert soa.arrivals.tolist() == [arrival]
        assert SHAPES[int(soa.shape_ids[0])] == shape

    def test_empty_trace_rejected_like_scalar(self):
        with pytest.raises(ValueError):
            generate_trace(SHAPES, 0, 1e-3)
        with pytest.raises(ValueError):
            generate_trace_soa(SHAPES, 0, 1e-3)

    @pytest.mark.parametrize(
        "num_requests",
        [
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            4 * BLOCK_ROWS - 1,
            4 * BLOCK_ROWS,
            4 * BLOCK_ROWS + 1,
            8 * BLOCK_ROWS - 1,
            8 * BLOCK_ROWS,
            8 * BLOCK_ROWS + 1,
            12 * BLOCK_ROWS + 7,
        ],
    )
    def test_parity_at_chunk_boundaries(self, num_requests):
        """Sizes straddling one and several of the generator's
        ``BLOCK_ROWS`` blocks stay bit-identical."""
        scalar = generate_trace(SHAPES, num_requests, 0.5e-3, seed=7)
        soa = generate_trace_soa(SHAPES, num_requests, 0.5e-3, seed=7)
        assert soa.arrivals.tolist() == [arrival for arrival, _ in scalar]
        assert [SHAPES[i] for i in soa.shape_ids.tolist()] == [
            shape for _, shape in scalar
        ]

    def test_generation_scratch_is_block_bounded(self):
        """A 1M-request trace peaks at most 4 MB above the 16 B per
        request it returns (whole-trace temporaries needed ~38 MB)."""
        tracemalloc.start()
        try:
            trace = generate_trace_soa(SHAPES, 1_000_000, 1e-3, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = trace.arrivals.nbytes + trace.shape_ids.nbytes
        assert peak - held <= 4 * 2**20


class TestSoATrace:
    def test_len(self):
        assert len(generate_trace_soa(SHAPES, 17, 1e-3)) == 17

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SoATrace(SHAPES, np.asarray([0, 1]), np.asarray([0.0]))

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            SoATrace(SHAPES, np.asarray([3]), np.asarray([0.0]))
        with pytest.raises(ValueError):
            SoATrace(SHAPES, np.asarray([-1]), np.asarray([0.0]))

    def test_rejects_decreasing_arrivals(self):
        with pytest.raises(ValueError):
            SoATrace(SHAPES, np.asarray([0, 0]), np.asarray([2.0, 1.0]))

    def test_rejects_empty_shape_mix(self):
        with pytest.raises(ValueError):
            SoATrace((), np.asarray([], dtype=np.int64), np.asarray([]))

    @pytest.mark.parametrize(
        "arrivals, position",
        [
            ([1.0, math.inf], 1),
            ([0.0, math.nan, 1.0], 1),
            ([-math.inf, 0.0], 0),
            ([0.0, 1.0, 2.0, math.nan], 3),
        ],
    )
    def test_rejects_non_finite_arrivals(self, arrivals, position):
        with pytest.raises(ValueError, match=rf"arrivals\[{position}\]"):
            SoATrace(SHAPES, np.zeros(len(arrivals), dtype=np.int64), arrivals)

    @pytest.mark.parametrize(
        "position",
        [
            BLOCK_ROWS - 1,
            BLOCK_ROWS,
            BLOCK_ROWS + 1,
            4 * BLOCK_ROWS - 1,
            4 * BLOCK_ROWS,
            4 * BLOCK_ROWS + 1,
            8 * BLOCK_ROWS,
        ],
    )
    def test_block_seams_checked(self, position):
        """Validation runs in one-element-overlapping blocks: a bad step
        or a NaN at a seam is still caught, a NaN still by position."""
        size = 8 * BLOCK_ROWS + 1
        ids = np.zeros(size, dtype=np.int64)
        arrivals = np.arange(size, dtype=np.float64)
        arrivals[position:] -= 2.0  # the one step into ``position`` drops
        with pytest.raises(ValueError, match="nondecreasing"):
            SoATrace(SHAPES, ids, arrivals)
        arrivals[position] = math.nan
        with pytest.raises(ValueError, match=rf"arrivals\[{position}\] is nan"):
            SoATrace(SHAPES, ids, arrivals)

    def test_finite_arrivals_with_overflowing_step_accepted(self):
        with np.errstate(over="ignore"):
            trace = SoATrace(SHAPES, np.zeros(2, dtype=np.int64), [-1e308, 1e308])
            with pytest.raises(ValueError, match="nondecreasing"):
                SoATrace(SHAPES, np.zeros(2, dtype=np.int64), [1e308, -1e308])
        assert len(trace) == 2


class TestQuantileSketch:
    def test_relative_error_bound_holds(self):
        # the documented contract: every percentile within relative_error
        rng_values = np.abs(np.sin(np.arange(1, 5001, dtype=np.float64))) * 10 + 0.01
        for error in (0.01, 0.05):
            sketch = QuantileSketch(relative_error=error)
            sketch.add_many(rng_values)
            ordered = np.sort(rng_values)
            for percentile in (1, 25, 50, 75, 90, 99, 99.9, 100):
                rank = min(len(ordered), math.ceil(percentile / 100 * len(ordered)))
                exact = float(ordered[rank - 1])
                estimate = sketch.quantile(percentile)
                assert abs(estimate - exact) <= error * exact + 1e-12

    def test_batch_matches_single_queries(self):
        sketch = QuantileSketch()
        sketch.add_many(np.linspace(0.1, 50.0, 777))
        ps = [99, 50, 95, 10]
        assert sketch.quantiles(ps) == [sketch.quantile(p) for p in ps]

    def test_exact_aggregates(self):
        values = np.asarray([0.5, 1.5, 2.5, 10.0])
        sketch = QuantileSketch()
        sketch.add_many(values)
        assert sketch.count == 4
        assert sketch.sum == pytest.approx(values.sum())
        assert sketch.mean() == pytest.approx(values.mean())
        assert sketch.min == 0.5
        assert sketch.max == 10.0

    def test_quantiles_clamped_to_observed_range(self):
        sketch = QuantileSketch(relative_error=0.05)
        sketch.add_many(np.full(100, 3.0))
        assert sketch.quantile(50) == 3.0  # clamp makes constants exact
        assert sketch.quantile(100) == 3.0

    def test_underflow_bucket(self):
        sketch = QuantileSketch(min_value=1e-6)
        sketch.add_many(np.asarray([1e-9, 1e-8, 5.0]))
        assert sketch.quantile(10) <= 1e-6

    def test_merge(self):
        left, right, whole = QuantileSketch(), QuantileSketch(), QuantileSketch()
        a = np.linspace(0.1, 5.0, 300)
        b = np.linspace(4.0, 20.0, 500)
        left.add_many(a)
        right.add_many(b)
        whole.add_many(np.concatenate([a, b]))
        left.merge(right)
        assert left.count == whole.count
        assert left.quantiles([50, 99]) == whole.quantiles([50, 99])

    def test_merge_rejects_mismatched_resolution(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_error=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(min_value=0.0)
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.add_many(np.asarray([-1.0]))
        with pytest.raises(ValueError):
            sketch.add_many(np.asarray([math.nan]))
        with pytest.raises(ValueError):
            sketch.quantile(50)  # empty
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(0)


class TestStreamingServingReport:
    def _report(self):
        report = StreamingServingReport(["a", "b"])
        report.observe_batch(
            np.asarray([0, 1, 0, 0]),
            np.asarray([0.0, 1.0, 2.0, 3.0]),
            np.asarray([0.0, 1.0, 2.5, 4.0]),
            np.asarray([1.0, 2.0, 4.0, 6.0]),
        )
        return report

    def test_exact_aggregates(self):
        report = self._report()
        assert report.count == 4
        assert report.makespan == 6.0
        assert report.throughput_rps == pytest.approx(4 / 6.0)
        assert report.mean_latency() == pytest.approx((1.0 + 1.0 + 2.0 + 3.0) / 4)
        assert report.mean_queueing_delay() == pytest.approx((0.5 + 1.0) / 4)
        assert report.accelerator_load() == {"a": 3, "b": 1}

    def test_scalar_observe_matches_batch(self):
        """One-row batches fold to the same report as one whole batch."""
        batched = self._report()
        scalar = StreamingServingReport(["a", "b"])
        for acc, arrival, start, finish in [
            (0, 0.0, 0.0, 1.0),
            (1, 1.0, 1.0, 2.0),
            (0, 2.0, 2.5, 4.0),
            (0, 3.0, 4.0, 6.0),
        ]:
            scalar.observe_batch([acc], [arrival], [start], [finish])
        assert scalar.as_dict() == batched.as_dict()

    def test_empty_report_raises(self):
        report = StreamingServingReport(["a"])
        with pytest.raises(ValueError, match="no completed requests"):
            report.mean_latency()
        with pytest.raises(ValueError, match="no completed requests"):
            report.latency_percentile(50)
        with pytest.raises(ValueError, match="no completed requests"):
            report.latency_percentiles([50, 99])
        with pytest.raises(ValueError, match="no completed requests"):
            report.mean_queueing_delay()
        assert report.throughput_rps == 0.0
        assert report.accelerator_load() == {}

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            StreamingServingReport([])

    def test_as_dict_keys(self):
        summary = self._report().as_dict()
        for key in ("requests", "makespan", "throughput_rps", "p50", "p99"):
            assert key in summary
