"""Tests for the heavier experiment drivers (scaling, breakdown, fig14)."""

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="module")
def fig9():
    return run_experiment("fig9")


@pytest.fixture(scope="module")
def fig10():
    return run_experiment("fig10")


@pytest.fixture(scope="module")
def fig11():
    return run_experiment("fig11")


@pytest.fixture(scope="module")
def fig14():
    return run_experiment("fig14")


@pytest.fixture(scope="module")
def buffering():
    return run_experiment("buffering")


class TestFig9StrongScaling:
    def test_fp32_latency_decreases_through_c5(self, fig9):
        rows = fig9.panels["FP32"]
        times = [r["seconds"] for r in rows]
        for a, b in zip(times[:4], times[1:5]):
            assert b < a

    def test_tail_flattens_when_memory_bound(self, fig9):
        """Beyond the compute-bound region the curve flattens; C6 stays
        within 1.3x of C5 (our DSE's plan for C6 is B-reread limited;
        see EXPERIMENTS.md)."""
        rows = fig9.panels["FP32"]
        c5 = fig9.row_by("configuration", "C5", panel="FP32")["seconds"]
        c6 = fig9.row_by("configuration", "C6", panel="FP32")["seconds"]
        assert c6 <= 1.3 * c5

    def test_int8_monotone_within_tolerance(self, fig9):
        times = [r["seconds"] for r in fig9.panels["INT8"]]
        for a, b in zip(times, times[1:]):
            assert b <= 1.05 * a

    def test_int8_speedup_over_4x(self, fig9):
        int8 = [r["seconds"] for r in fig9.panels["INT8"]]
        assert int8[0] / min(int8) > 4

    def test_order_of_magnitude_speedup_c1_to_c6(self, fig9):
        """Fig. 9: latency 'decreases exponentially' across configs."""
        rows = fig9.panels["FP32"]
        assert rows[0]["seconds"] / rows[-1]["seconds"] > 8

    def test_bottleneck_shifts_to_memory(self, fig9):
        rows = fig9.panels["FP32"]
        assert rows[0]["bottleneck"] == "aie"  # compute/PLIO side binds
        assert rows[-1]["bottleneck"] in ("load_a", "load_b", "store_c")


class TestFig10WeakScaling:
    def test_time_rises_with_config(self, fig10):
        for panel in fig10.panels.values():
            times = [r["us"] for r in panel]
            assert all(b >= a for a, b in zip(times, times[1:]))

    def test_io_grows_with_native_size(self, fig10):
        for panel in fig10.panels.values():
            io = [r["io_bytes"] for r in panel]
            assert all(b > a for a, b in zip(io, io[1:]))

    def test_spread_within_paper_band(self, fig10):
        """Paper: max difference 100% (FP32) / 1.4x (INT8).  Our setup
        time compresses the spread; assert the band loosely."""
        fp32 = fig10.panels["FP32"]
        assert 1.15 <= fp32[-1]["vs_smallest"] <= 2.2

    def test_fp32_spread_exceeds_int8(self, fig10):
        """Paper: 100% (FP32) vs 40% (INT8)."""
        fp32_spread = fig10.panels["FP32"][-1]["vs_smallest"]
        int8_spread = fig10.panels["INT8"][-1]["vs_smallest"]
        assert fp32_spread > int8_spread > 1.0


class TestFig11Breakdown:
    def test_model_error_within_5pct(self, fig11):
        assert all(abs(r["model_error_pct"]) <= 5.0 for r in fig11.rows)

    def test_memory_bound_right_of_c4(self, fig11):
        for name in ("C5", "C6", "C10", "C11"):
            assert fig11.row_by("configuration", name)["memory_bound"]

    def test_compute_side_bound_left_of_c4(self, fig11):
        for name in ("C1", "C2", "C3"):
            assert not fig11.row_by("configuration", name)["memory_bound"]

    def test_c6_total_near_paper(self, fig11):
        """Section V-G quotes 9.95 ms for C6 at 2048^3."""
        assert fig11.row_by("configuration", "C6")["hw_ms"] == pytest.approx(
            9.95, rel=0.15
        )

    def test_exposed_plio_positive(self, fig11):
        assert all(r["exposed_plio_ms"] > 0 for r in fig11.rows)


class TestModelAccuracy:
    def test_within_5pct_everywhere(self):
        result = run_experiment("model_accuracy")
        assert all(abs(r["error_pct"]) <= 5.0 for r in result.rows)
        assert len(result.rows) == 11 * 6


class TestBuffering:
    def test_double_buffered_times_near_paper(self, buffering):
        """Section V-G: 9.95 ms (C6) and 0.92 ms (C11) double buffered."""
        c6 = buffering.row_by("configuration", "C6")
        assert c6["double_ms"] == pytest.approx(9.95, rel=0.15)
        c11 = buffering.row_by("configuration", "C11")
        assert c11["double_ms"] == pytest.approx(0.92, rel=0.20)

    def test_fp32_same_tiles_matches_paper_ratio(self, buffering):
        c6 = buffering.row_by("configuration", "C6")
        assert 1.35 <= c6["same_tiles_ratio"] <= 1.6  # paper: 1.48

    def test_int8_retiled_beats_same_tiles(self, buffering):
        c11 = buffering.row_by("configuration", "C11")
        assert c11["single_retiled_ms"] < c11["single_same_tiles_ms"]

    def test_int8_retiling_recovers_most_of_the_loss(self, buffering):
        """The paper measured an outright win; see EXPERIMENTS.md for the
        recorded deviation."""
        c11 = buffering.row_by("configuration", "C11")
        assert c11["retiled_ratio"] <= 1.15


class TestFig14:
    def test_l3_l4_store_bound_everywhere(self, fig14):
        rows = [r for r in fig14.rows if r["workload"] in ("L3", "L4")]
        assert rows and all(r["bottleneck"] == "store_c" for r in rows)

    def test_inputs_bound_at_low_bandwidth(self, fig14):
        rows = [
            r
            for r in fig14.rows
            if r["variant"].endswith("(2r1w)") and r["workload"] in ("B1", "V1", "L1", "L2")
        ]
        assert rows and all(r["input_load_bound"] for r in rows)

    def test_more_bandwidth_reduces_latency(self, fig14):
        for workload in ("B1", "V1", "L1", "L2", "L3", "L4"):
            slow = next(
                r["ms"] for r in fig14.rows
                if r["workload"] == workload and "20GB/s" in r["variant"]
            )
            fast = next(
                r["ms"] for r in fig14.rows
                if r["workload"] == workload and r["variant"] == "C6 32^3 34GB/s (4r2w)"
            )
            assert fast < slow

    def test_four_variants_times_six_workloads(self, fig14):
        assert len(fig14.rows) == 4 * 6
