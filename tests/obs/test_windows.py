"""Windowed telemetry series: index math, folds, merges, eviction."""

import numpy as np
import pytest

from repro.obs.windows import (
    DEFAULT_WINDOW_CAPACITY,
    ServingMonitor,
    WindowedCounter,
    WindowedGauge,
    WindowedHistogram,
)


class TestWindowIndexing:
    def test_index_of_floors_and_clamps(self):
        series = WindowedCounter(0.5)
        assert series.index_of(0.0) == 0
        assert series.index_of(0.49) == 0
        assert series.index_of(0.5) == 1
        assert series.index_of(1.74) == 3
        # pre-horizon times (carry-over arrivals) clamp into window 0
        assert series.index_of(-0.3) == 0

    def test_indices_of_matches_scalar_index_of(self):
        series = WindowedCounter(0.37)
        times = np.array([-1.0, 0.0, 0.1, 0.36, 0.37, 1.0, 5.55, 123.4])
        vectorized = series.indices_of(times)
        assert vectorized.tolist() == [
            series.index_of(t) for t in times.tolist()
        ]

    def test_bounds_are_half_open_window_edges(self):
        series = WindowedCounter(0.25)
        assert series.bounds(0) == (0.0, 0.25)
        assert series.bounds(4) == (1.0, 1.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="window_seconds"):
            WindowedCounter(0.0)
        with pytest.raises(ValueError, match="capacity"):
            WindowedCounter(1.0, capacity=0)


class TestWindowedCounter:
    def test_add_times_equals_scalar_adds(self):
        times = np.array([0.05, 0.1, 0.72, 0.74, 1.3, 2.9])
        vectorized = WindowedCounter(0.5)
        vectorized.add_times(times)
        scalar = WindowedCounter(0.5)
        for time in times.tolist():
            scalar.add(time)
        assert vectorized.series() == scalar.series()
        assert vectorized.total() == len(times)

    def test_merge_adds_counts_per_window(self):
        left = WindowedCounter(1.0)
        left.add_times(np.array([0.5, 1.5]))
        right = WindowedCounter(1.0)
        right.add_times(np.array([1.6, 1.7, 3.2]))
        merged = left.merge(right)
        assert merged is left
        assert left.series() == [(0, 1.0), (1, 3.0), (3, 1.0)]

    def test_merge_rejects_mismatched_window_widths(self):
        with pytest.raises(ValueError, match="window widths"):
            WindowedCounter(1.0).merge(WindowedCounter(0.5))

    def test_ring_evicts_oldest_past_capacity(self):
        series = WindowedCounter(1.0, capacity=3)
        series.add_times(np.arange(10) + 0.5)  # windows 0..9
        assert series.indices() == [7, 8, 9]

    def test_late_stragglers_into_evicted_windows_stay_evicted(self):
        series = WindowedCounter(1.0, capacity=2)
        series.add(9.5)
        series.add(0.5)  # window 0 is below the ring floor already
        assert series.indices() == [9]

    def test_round_trip_through_dict(self):
        series = WindowedCounter(0.5, capacity=16)
        series.add_times(np.array([0.1, 0.6, 0.61, 4.9]))
        clone = WindowedCounter.from_dict(series.as_dict())
        assert clone.as_dict() == series.as_dict()
        assert clone.series() == series.series()


class TestWindowedGauge:
    def test_observe_keeps_per_window_maximum(self):
        gauge = WindowedGauge(1.0)
        gauge.observe(0.5, 3.0)
        gauge.observe(0.6, 1.0)
        gauge.observe(1.5, 2.0)
        assert gauge.series() == [(0, 3.0), (1, 2.0)]
        assert gauge.value(7) is None

    def test_merge_keeps_maximum(self):
        left = WindowedGauge(1.0)
        left.observe(0.5, 3.0)
        right = WindowedGauge(1.0)
        right.observe(0.5, 5.0)
        right.observe(1.5, 1.0)
        left.merge(right)
        assert left.series() == [(0, 5.0), (1, 1.0)]

    def test_round_trip_through_dict(self):
        gauge = WindowedGauge(0.25)
        gauge.observe(0.1, 2.5)
        gauge.observe(0.9, 0.5)
        clone = WindowedGauge.from_dict(gauge.as_dict())
        assert clone.as_dict() == gauge.as_dict()


def assert_window_states_match(left, right, minmax_rel=0.0):
    """Per-window sketch equality at the level the fold guarantees.

    Bucket contents, counts, and underflow are exact under any fold
    order; float sums only associate differently, and min/max sit at
    bucket-representative resolution when the dense scatter ran (pass
    ``minmax_rel`` when comparing against exact scalar observes).
    Accepts histograms or their ``as_dict()`` payloads.
    """
    if hasattr(left, "as_dict"):
        left = left.as_dict()
    if hasattr(right, "as_dict"):
        right = right.as_dict()
    a, b = left["windows"], right["windows"]
    assert sorted(a) == sorted(b)
    for window, state in a.items():
        other = b[window]
        assert state["buckets"] == other["buckets"], f"window {window}"
        assert state["count"] == other["count"]
        assert state["underflow"] == other["underflow"]
        assert state["sum"] == pytest.approx(other["sum"], rel=1e-12)
        if minmax_rel:
            assert state["min"] == pytest.approx(other["min"], rel=minmax_rel)
            assert state["max"] == pytest.approx(other["max"], rel=minmax_rel)
        else:
            assert state["min"] == other["min"]
            assert state["max"] == other["max"]


class TestWindowedHistogram:
    def _values(self, seed=0, n=500):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 5.0, size=n)
        values = rng.lognormal(mean=-4.0, sigma=1.0, size=n)
        return times, values

    def test_vectorized_fold_equals_scalar_observes(self):
        times, values = self._values()
        vectorized = WindowedHistogram(0.5)
        touched = vectorized.observe_values(times, values)
        scalar = WindowedHistogram(0.5)
        for time, value in zip(times.tolist(), values.tolist()):
            scalar.observe(time, value)
        # scalar observes record exact extremes; the dense scatter sits
        # at bucket-representative resolution (the 1% sketch error)
        assert_window_states_match(vectorized, scalar, minmax_rel=0.02)
        assert touched == vectorized.indices()

    def test_precomputed_indices_path_equals_plain_path(self):
        times, values = self._values(seed=1)
        plain = WindowedHistogram(0.5)
        plain_touched = plain.observe_values(times, values)
        shared = WindowedHistogram(0.5)
        indices = shared.indices_of(times)
        shared_touched = shared.observe_values(times, values, indices=indices)
        assert shared.as_dict() == plain.as_dict()
        assert shared_touched == plain_touched

    def test_fold_is_chunking_invariant(self):
        times, values = self._values(seed=2)
        whole = WindowedHistogram(0.5)
        whole.observe_values(times, values)
        chunked = WindowedHistogram(0.5)
        for lo in range(0, times.size, 37):
            chunked.observe_values(times[lo : lo + 37], values[lo : lo + 37])
        assert_window_states_match(chunked, whole)
        for index in whole.indices():
            assert chunked.sketch(index).quantiles([50, 99]) == whole.sketch(
                index
            ).quantiles([50, 99])

    def test_underflow_values_take_fallback_path_and_still_count(self):
        times = np.array([0.1, 0.2, 0.7])
        values = np.array([0.0, 0.0, 0.0])  # below any sketch bucket
        histogram = WindowedHistogram(0.5)
        touched = histogram.observe_values(times, values)
        assert touched == [0, 1]
        assert histogram.sketch(0).count == 2
        assert histogram.sketch(1).count == 1

    def test_quantiles_stay_within_sketch_bound(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(1e-3, 1.0, size=4000)
        times = np.full(values.shape, 0.1)
        histogram = WindowedHistogram(1.0, quantile_error=0.01)
        histogram.observe_values(times, values)
        sketch = histogram.sketch(0)
        exact = np.quantile(values, 0.99)
        assert sketch.quantiles([99])[0] == pytest.approx(exact, rel=0.03)

    def test_merge_equals_union_fold(self):
        times, values = self._values(seed=4)
        left = WindowedHistogram(0.5)
        left.observe_values(times[:250], values[:250])
        right = WindowedHistogram(0.5)
        right.observe_values(times[250:], values[250:])
        left.merge(right)
        union = WindowedHistogram(0.5)
        union.observe_values(times, values)
        assert_window_states_match(left, union)

    def test_merge_rejects_mismatched_error_bounds(self):
        with pytest.raises(ValueError, match="error bounds"):
            WindowedHistogram(1.0, quantile_error=0.01).merge(
                WindowedHistogram(1.0, quantile_error=0.05)
            )

    def test_round_trip_through_dict(self):
        times, values = self._values(seed=5, n=100)
        histogram = WindowedHistogram(0.5)
        histogram.observe_values(times, values)
        clone = WindowedHistogram.from_dict(histogram.as_dict())
        assert clone.as_dict() == histogram.as_dict()
        for index in histogram.indices():
            assert clone.sketch(index).quantiles([50, 99]) == histogram.sketch(
                index
            ).quantiles([50, 99])


def _feed(monitor, finishes, latencies):
    finishes = np.asarray(finishes, dtype=np.float64)
    latencies = np.asarray(latencies, dtype=np.float64)
    arrivals = finishes - latencies
    monitor.observe_chunk(finishes, finishes - arrivals)


def assert_monitors_match(left, right, ignore_chunks=False):
    """Full-monitor equality, latency sketches at fold-order fidelity."""
    a, b = left.as_dict(), right.as_dict()
    assert_window_states_match(a.pop("latency"), b.pop("latency"))
    if ignore_chunks:
        a.pop("chunks")
        b.pop("chunks")
    assert a == b


class TestServingMonitor:
    def test_completions_land_in_finish_window(self):
        monitor = ServingMonitor(0.5)
        # arrival in window 0, finish in window 2: telemetry reports the
        # event when it happened, not when it was requested
        _feed(monitor, [1.2], [1.1])
        assert monitor.window_indices() == [2]
        stats = monitor.window_stats(2)
        assert stats.completed == 1
        assert stats.p50 == pytest.approx(1.1, rel=0.02)

    def test_chunking_invariance(self):
        rng = np.random.default_rng(6)
        finishes = np.sort(rng.uniform(0.0, 3.0, size=300))
        latencies = rng.uniform(1e-3, 0.1, size=300)
        whole = ServingMonitor(0.25)
        _feed(whole, finishes, latencies)
        split = ServingMonitor(0.25)
        _feed(split, finishes[:100], latencies[:100])
        _feed(split, finishes[100:], latencies[100:])
        assert whole.chunks == 1 and split.chunks == 2
        assert_monitors_match(split, whole, ignore_chunks=True)

    def test_merge_equals_union_feed(self):
        rng = np.random.default_rng(7)
        finishes = np.sort(rng.uniform(0.0, 3.0, size=200))
        latencies = rng.uniform(1e-3, 0.1, size=200)
        left = ServingMonitor(0.25)
        _feed(left, finishes[:90], latencies[:90])
        left.observe_sheds(np.array([0.4, 0.6]))
        right = ServingMonitor(0.25)
        _feed(right, finishes[90:], latencies[90:])
        right.observe_kills(np.array([1.1]))
        union = ServingMonitor(0.25)
        _feed(union, finishes[:90], latencies[:90])
        _feed(union, finishes[90:], latencies[90:])
        union.observe_sheds(np.array([0.4, 0.6]))
        union.observe_kills(np.array([1.1]))
        assert_monitors_match(left.merge(right), union)

    def test_merge_validation(self):
        with pytest.raises(ValueError, match="window widths"):
            ServingMonitor(0.5).merge(ServingMonitor(0.25))
        with pytest.raises(ValueError, match="quantile errors"):
            ServingMonitor(0.5).merge(
                ServingMonitor(0.5, quantile_error=0.05)
            )

    def test_window_stats_rates(self):
        monitor = ServingMonitor(0.5)
        _feed(monitor, [0.1, 0.2, 0.3], [0.01, 0.02, 0.03])
        monitor.observe_sheds(np.array([0.4]))
        stats = monitor.window_stats(0)
        assert stats.completed == 3 and stats.shed == 1
        assert stats.rps == pytest.approx(3 / 0.5)
        assert stats.availability == pytest.approx(0.75)
        assert stats.shed_rate == pytest.approx(0.25)
        assert stats.peak_latency == pytest.approx(0.03, rel=0.02)
        # an untouched window reads as empty, not missing
        empty = monitor.window_stats(9)
        assert empty.completed == 0 and empty.availability == 1.0
        assert empty.p50 is None

    def test_timeline_covers_shed_only_windows(self):
        monitor = ServingMonitor(0.5)
        _feed(monitor, [0.1], [0.01])
        monitor.observe_sheds(np.array([2.2]))
        indices = [stats.index for stats in monitor.timeline()]
        assert indices == [0, 4]

    def test_round_trip_through_dict(self):
        monitor = ServingMonitor(0.5, quantile_error=0.02)
        _feed(monitor, [0.1, 0.7, 1.3], [0.01, 0.05, 0.02])
        monitor.observe_sheds(np.array([0.9]))
        monitor.observe_kills(np.array([0.95]))
        clone = ServingMonitor.from_dict(monitor.as_dict())
        assert clone.as_dict() == monitor.as_dict()
        assert [s.as_dict() for s in clone.timeline()] == [
            s.as_dict() for s in monitor.timeline()
        ]

    def test_for_horizon(self):
        monitor = ServingMonitor.for_horizon(10.0, 40)
        assert monitor.window_seconds == pytest.approx(0.25)
        assert monitor.capacity >= 80
        with pytest.raises(ValueError, match="horizon"):
            ServingMonitor.for_horizon(0.0, 10)
        with pytest.raises(ValueError, match="window"):
            ServingMonitor.for_horizon(1.0, 0)

    def test_default_capacity_is_roomy(self):
        monitor = ServingMonitor(0.5)
        assert monitor.requests.capacity == DEFAULT_WINDOW_CAPACITY
