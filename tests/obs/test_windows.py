"""The serving monitor's windows: index math, folds, merges, round trips.

The test classes follow the monitor's per-window data: shed/kill counts
(``TestWindowedCounter``), the peak latency read off each window's
sketch (``TestWindowedGauge``) and the latency sketches themselves
(``TestWindowedHistogram``).
"""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.obs.windows import ServingMonitor
from repro.sim.streaming import QuantileSketch


def _counts(monitor, read):
    return {index: read(index) for index in monitor.window_indices()}


class TestWindowIndexing:
    def test_index_of_floors_and_clamps(self):
        monitor = ServingMonitor(0.5)
        # pre-horizon times (carry-over arrivals) clamp into window 0
        monitor.observe_sheds(np.array([0.0, 0.49, 0.5, 1.74, -0.3]))
        assert _counts(monitor, monitor.shed) == {0: 3, 1: 1, 3: 1}

    def test_indices_of_matches_scalar_index_of(self):
        monitor = ServingMonitor(0.37)
        times = np.array([-1.0, 0.0, 0.1, 0.36, 0.37, 1.0, 5.55, 123.4])
        monitor.observe_kills(times)
        expected = Counter(
            max(math.floor(t / 0.37), 0) for t in times.tolist()
        )
        assert _counts(monitor, monitor.kills) == dict(expected)

    def test_bounds_are_half_open_window_edges(self):
        monitor = ServingMonitor(0.25)
        assert monitor.bounds(0) == (0.0, 0.25)
        assert monitor.bounds(4) == (1.0, 1.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="window_seconds"):
            ServingMonitor(0.0)


class TestWindowedCounter:
    def test_add_times_equals_scalar_adds(self):
        times = np.array([0.05, 0.1, 0.72, 0.74, 1.3, 2.9])
        vectorized = ServingMonitor(0.5)
        vectorized.observe_sheds(times)
        scalar = ServingMonitor(0.5)
        for time in times.tolist():
            scalar.observe_sheds(np.array([time]))
        assert vectorized.as_dict() == scalar.as_dict()
        assert sum(_counts(vectorized, vectorized.shed).values()) == len(times)

    def test_merge_adds_counts_per_window(self):
        left = ServingMonitor(1.0)
        left.observe_sheds(np.array([0.5, 1.5]))
        right = ServingMonitor(1.0)
        right.observe_sheds(np.array([1.6, 1.7, 3.2]))
        right.observe_kills(np.array([0.2]))
        merged = left.merge(right)
        assert merged is left
        assert _counts(left, left.shed) == {0: 1, 1: 3, 3: 1}
        assert _counts(left, left.kills) == {0: 1, 1: 0, 3: 0}

    def test_merge_rejects_mismatched_window_widths(self):
        with pytest.raises(ValueError, match="window widths"):
            ServingMonitor(1.0).merge(ServingMonitor(0.5))

    def test_round_trip_through_dict(self):
        monitor = ServingMonitor(0.5)
        monitor.observe_sheds(np.array([0.1, 0.6, 0.61, 4.9]))
        monitor.observe_kills(np.array([0.6, 2.2]))
        data = monitor.as_dict()
        # counts are written as floats, as they always were
        assert data["sheds"]["values"] == {"0": 1.0, "1": 2.0, "9": 1.0}
        clone = ServingMonitor.from_dict(data)
        assert clone.as_dict() == data
        assert _counts(clone, clone.kills) == _counts(monitor, monitor.kills)


def _feed(monitor, finishes, latencies):
    finishes = np.asarray(finishes, dtype=np.float64)
    latencies = np.asarray(latencies, dtype=np.float64)
    arrivals = finishes - latencies
    monitor.observe_chunk(finishes, finishes - arrivals)


class TestWindowedGauge:
    def test_observe_keeps_per_window_maximum(self):
        monitor = ServingMonitor(1.0)
        _feed(monitor, [0.5, 0.6, 1.5], [3.0, 1.0, 2.0])
        peaks = {s.index: s.peak_latency for s in monitor.timeline()}
        assert peaks == {0: monitor.sketch(0).max, 1: monitor.sketch(1).max}
        assert peaks[0] == pytest.approx(3.0, rel=0.02)
        assert peaks[1] == pytest.approx(2.0, rel=0.02)
        assert monitor.window_stats(7).peak_latency is None

    def test_merge_keeps_maximum(self):
        left = ServingMonitor(1.0)
        _feed(left, [0.5], [3.0])
        right = ServingMonitor(1.0)
        _feed(right, [0.5, 1.5], [5.0, 1.0])
        left.merge(right)
        assert left.window_stats(0).peak_latency == right.window_stats(0).peak_latency
        assert left.window_stats(0).peak_latency == pytest.approx(5.0, rel=0.02)
        assert left.window_stats(1).peak_latency == pytest.approx(1.0, rel=0.02)

    def test_round_trip_through_dict(self):
        monitor = ServingMonitor(0.25)
        _feed(monitor, [0.1, 0.9], [2.5, 0.5])
        data = monitor.as_dict()
        assert data["peak_latency"]["values"] == {
            "0": monitor.sketch(0).max, "3": monitor.sketch(3).max,
        }
        # the restated section is not read back: the sketches carry it
        data["peak_latency"]["values"] = {}
        clone = ServingMonitor.from_dict(data)
        assert clone.as_dict() == monitor.as_dict()


def assert_window_states_match(left, right, minmax_rel=0.0):
    """Per-window sketch equality at the level the fold guarantees.

    Bucket contents, counts, and underflow are exact under any fold
    order; float sums only associate differently, and min/max sit at
    bucket-representative resolution when the dense scatter ran (pass
    ``minmax_rel`` when comparing against exact scalar observes).
    Accepts monitors or their ``as_dict()["latency"]`` payloads.
    """
    if isinstance(left, ServingMonitor):
        left = left.as_dict()["latency"]
    if isinstance(right, ServingMonitor):
        right = right.as_dict()["latency"]
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


def _scalar_reference(window_seconds, times, values):
    """Per-window sketches filled by exact ``add`` calls, as a monitor."""
    reference = ServingMonitor(window_seconds)
    for time, value in zip(times.tolist(), values.tolist()):
        index = max(math.floor(time / window_seconds), 0)
        reference._sketch_for(index).add(value)
    return reference


class TestWindowedHistogram:
    def _values(self, seed=0, n=500):
        rng = np.random.default_rng(seed)
        times = rng.uniform(0.0, 5.0, size=n)
        values = rng.lognormal(mean=-4.0, sigma=1.0, size=n)
        return times, values

    def test_vectorized_fold_equals_scalar_observes(self):
        times, values = self._values()
        vectorized = ServingMonitor(0.5)
        vectorized.observe_chunk(times, values)
        # scalar adds record exact extremes; the dense scatter sits at
        # bucket-representative resolution (the 1% sketch error)
        scalar = _scalar_reference(0.5, times, values)
        assert_window_states_match(vectorized, scalar, minmax_rel=0.02)
        assert [s.completed for s in vectorized.timeline()] == [
            scalar.completed(index) for index in scalar.window_indices()
        ]

    def test_precomputed_keys_path_equals_plain_path(self):
        times, values = self._values(seed=1)
        plain = ServingMonitor(0.5)
        plain.observe_chunk(times, values)
        shared = ServingMonitor(0.5)
        keys = QuantileSketch(0.01).prepare_keys(values)
        shared.observe_chunk(times, values, keys)
        assert shared.as_dict() == plain.as_dict()

    def test_fold_is_chunking_invariant(self):
        times, values = self._values(seed=2)
        whole = ServingMonitor(0.5)
        whole.observe_chunk(times, values)
        chunked = ServingMonitor(0.5)
        for lo in range(0, times.size, 37):
            chunked.observe_chunk(times[lo : lo + 37], values[lo : lo + 37])
        assert_window_states_match(chunked, whole)
        for index in whole.window_indices():
            assert chunked.sketch(index).quantiles([50, 99]) == whole.sketch(
                index
            ).quantiles([50, 99])

    def test_underflow_values_take_fallback_path_and_still_count(self):
        times = np.array([0.1, 0.2, 0.7])
        values = np.array([0.0, 0.0, 0.0])  # below any sketch bucket
        monitor = ServingMonitor(0.5)
        monitor.observe_chunk(times, values)
        assert monitor.window_indices() == [0, 1]
        assert monitor.sketch(0).count == 2
        assert monitor.sketch(1).count == 1
        assert monitor.completed(0) == 2 and monitor.completed(1) == 1

    def test_wide_scatter_takes_sorted_path(self):
        # 100k windows x ~70 bucket keys is over the dense scatter budget
        rng = np.random.default_rng(8)
        times = np.sort(rng.uniform(0.0, 1e5, size=4000))
        values = rng.uniform(1e-3, 4e-3, size=4000)
        sorted_path = ServingMonitor(1.0)
        sorted_path.observe_chunk(times, values)
        dense = ServingMonitor(1.0)
        for lo in range(0, times.size, 100):
            dense.observe_chunk(times[lo : lo + 100], values[lo : lo + 100])
        assert_window_states_match(sorted_path, dense, minmax_rel=0.02)
        # the sorted path keeps the exact extremes
        first = sorted_path.window_indices()[0]
        assert sorted_path.sketch(first).max == values[times < first + 1].max()

    def test_quantiles_stay_within_sketch_bound(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(1e-3, 1.0, size=4000)
        times = np.full(values.shape, 0.1)
        monitor = ServingMonitor(1.0, quantile_error=0.01)
        monitor.observe_chunk(times, values)
        sketch = monitor.sketch(0)
        exact = np.quantile(values, 0.99)
        assert sketch.quantiles([99])[0] == pytest.approx(exact, rel=0.03)

    def test_merge_equals_union_fold(self):
        times, values = self._values(seed=4)
        left = ServingMonitor(0.5)
        left.observe_chunk(times[:250], values[:250])
        right = ServingMonitor(0.5)
        right.observe_chunk(times[250:], values[250:])
        left.merge(right)
        union = ServingMonitor(0.5)
        union.observe_chunk(times, values)
        assert_window_states_match(left, union)

    def test_merge_rejects_mismatched_error_bounds(self):
        with pytest.raises(ValueError, match="quantile errors"):
            ServingMonitor(1.0, quantile_error=0.01).merge(
                ServingMonitor(1.0, quantile_error=0.05)
            )

    def test_round_trip_through_dict(self):
        times, values = self._values(seed=5, n=100)
        monitor = ServingMonitor(0.5)
        monitor.observe_chunk(times, values)
        clone = ServingMonitor.from_dict(monitor.as_dict())
        assert clone.as_dict() == monitor.as_dict()
        for index in monitor.window_indices():
            assert clone.sketch(index).quantiles([50, 99]) == monitor.sketch(
                index
            ).quantiles([50, 99])


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

    def test_every_populated_window_is_kept(self):
        # 10,000 populated windows, fed oldest first in small chunks:
        # none is dropped, so the timeline counts every completion
        finishes = np.arange(10_000) + 0.5
        latencies = np.full(finishes.size, 0.01)
        monitor = ServingMonitor(1.0)
        for lo in range(0, finishes.size, 512):
            _feed(monitor, finishes[lo : lo + 512], latencies[lo : lo + 512])
        monitor.observe_sheds(np.array([0.5]))
        timeline = monitor.timeline()
        assert [s.index for s in timeline] == list(range(10_000))
        assert sum(s.completed for s in timeline) == 10_000
        assert monitor.shed(0) == 1

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
        with pytest.raises(ValueError, match="horizon"):
            ServingMonitor.for_horizon(0.0, 10)
        with pytest.raises(ValueError, match="window"):
            ServingMonitor.for_horizon(1.0, 0)

    def test_reads_files_with_capacity_keys(self):
        # a --monitor-out file from before the ring was dropped: its
        # only difference from today's layout is the capacity keys
        path = Path(__file__).resolve().parents[1] / "data" / "monitor_capacity_keys.json"
        data = json.loads(path.read_text())["monitor"]

        def without_capacity(node):
            if isinstance(node, dict):
                return {
                    key: without_capacity(value)
                    for key, value in node.items()
                    if key != "capacity"
                }
            return node

        assert ServingMonitor.from_dict(data).as_dict() == without_capacity(data)
