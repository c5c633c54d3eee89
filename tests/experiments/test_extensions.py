"""Extension-experiment tests."""

import pytest

from repro.experiments import available_experiments, run_experiment


class TestRegistry:
    def test_extensions_registered(self):
        expected = {
            "ext_chaos",
            "ext_consistency",
            "ext_decode",
            "ext_energy",
            "ext_faults",
            "ext_fragmentation",
            "ext_fusion",
            "ext_multi_acc",
            "ext_sensitivity",
            "ext_serving",
        }
        extensions = {i for i in available_experiments() if i.startswith("ext_")}
        assert extensions == expected


class TestFusionAblation:
    def test_fusion_always_speeds_up(self):
        result = run_experiment("ext_fusion")
        assert all(r["speedup"] > 1.0 for r in result.rows)

    def test_avoided_traffic_constant_across_postops(self):
        result = run_experiment("ext_fusion")
        values = {r["dram_bytes_avoided_mb"] for r in result.rows}
        assert len(values) == 1  # always 2x the C matrix


class TestFragmentation:
    def test_one_row_per_config_and_workload(self):
        result = run_experiment("ext_fragmentation")
        assert len(result.rows) == 6 * 6  # 6 workloads x 6 FP32 configs

    def test_most_table3_waste_is_modest(self):
        result = run_experiment("ext_fragmentation")
        modest = [r for r in result.rows if r["waste_pct"] < 10]
        assert len(modest) >= len(result.rows) - 2
        assert all(0 <= r["waste_pct"] <= 55 for r in result.rows)

    def test_small_k_layer_pays_on_deep_k_native(self):
        """L3's K=128 is smaller than C4's native K=256: the reduction
        dimension doubles through padding — a 50% MAC waste the paper's
        future-work question is about."""
        result = run_experiment("ext_fragmentation")
        row = next(
            r for r in result.rows
            if r["workload"] == "L3" and r["configuration"] == "C4"
        )
        assert row["waste_pct"] == pytest.approx(50.0, abs=1)
        worst = max(result.rows, key=lambda r: r["waste_pct"])
        assert (worst["workload"], worst["configuration"]) == ("L3", "C4")

    def test_waste_zero_when_aligned(self):
        result = run_experiment("ext_fragmentation")
        # V1 (3072x1024x4096) is an exact multiple of C3's 128x128x128
        row = next(
            r for r in result.rows
            if r["workload"] == "V1" and r["configuration"] == "C3"
        )
        assert row["waste_pct"] == 0.0


class TestSensitivity:
    def test_axes_present(self):
        result = run_experiment("ext_sensitivity")
        axes = {r["parameter"] for r in result.rows}
        assert axes == {"dram_ports", "plios", "aie_freq_hz", "pl_usable_fraction"}

    def test_all_points_positive(self):
        result = run_experiment("ext_sensitivity")
        assert all(r["ms"] > 0 for r in result.rows)

    def test_dram_ports_plateau(self):
        result = run_experiment("ext_sensitivity")
        ports = [r for r in result.rows if r["parameter"] == "dram_ports"]
        times = {r["value"]: r["ms"] for r in ports}
        assert times["2r1w"] > times["4r2w"]
        assert times["8r4w"] == pytest.approx(times["4r2w"], rel=0.01)


class TestMultiAcc:
    def test_composed_beats_serial(self):
        """Composed heterogeneous accelerators (CHARM) vs serial execution."""
        result = run_experiment("ext_multi_acc")
        summary = result.panels["summary"][0]
        assert summary["speedup_vs_serial"] > 1.0
        assert summary["makespan_ms"] < summary["serial_ms"]


class TestConsistency:
    def test_emulator_matches_model_exactly(self):
        result = run_experiment("ext_consistency")
        assert all(abs(r["emulator_vs_model_pct"]) < 0.5 for r in result.rows)

    def test_aiesim_converges_to_timing(self):
        result = run_experiment("ext_consistency")
        assert all(abs(r["aiesim_vs_timing_pct"]) < 2.0 for r in result.rows)

    def test_numerics_always_match(self):
        result = run_experiment("ext_consistency")
        assert all(r["numerics_match"] for r in result.rows)


class TestServing:
    def test_latency_explodes_past_capacity(self):
        result = run_experiment("ext_serving")
        p95s = [r["p95_ms"] for r in result.rows]
        assert p95s[-1] > 5 * p95s[0]

    def test_light_load_latency_near_service_time(self):
        result = run_experiment("ext_serving")
        assert result.rows[0]["p50_ms"] < 2.0

    def test_achieved_saturates(self):
        result = run_experiment("ext_serving")
        last = result.rows[-1]
        assert last["achieved_rps"] < last["offered_rps"]


class TestDecode:
    def test_batch_one_wastes_almost_everything(self):
        result = run_experiment("ext_decode")
        assert result.row_by("batch", 1)["padding_waste_pct"] > 95

    def test_batching_restores_utilisation(self):
        result = run_experiment("ext_decode")
        wastes = [r["padding_waste_pct"] for r in result.rows]
        assert wastes == sorted(wastes, reverse=True)
        assert result.rows[-1]["padding_waste_pct"] < 5

    def test_useful_throughput_grows_with_batch(self):
        result = run_experiment("ext_decode")
        tflops = [r["useful_tflops"] for r in result.rows]
        assert all(b > a for a, b in zip(tflops, tflops[1:]))


class TestFaults:
    def test_scenarios_covered(self):
        result = run_experiment("ext_faults")
        assert len(result.rows) == 6
        healthy = result.row_by("scenario", "healthy")
        assert healthy["surviving_configs"] == 11

    def test_clock_derate_hurts_compute_bound(self):
        result = run_experiment("ext_faults")
        healthy = result.row_by("scenario", "healthy")
        derated = result.row_by("scenario", "20% thermal clock derate")
        assert derated["c3_ms"] > 1.15 * healthy["c3_ms"]

    def test_ddr_loss_hurts_memory_bound(self):
        result = run_experiment("ext_faults")
        healthy = result.row_by("scenario", "healthy")
        degraded = result.row_by("scenario", "2 DDR channels down")
        assert degraded["c5_ms"] > 1.2 * healthy["c5_ms"]

    def test_column_fuses_kill_big_configs(self):
        result = run_experiment("ext_faults")
        fused = result.row_by("scenario", "5 AIE columns fused off")
        assert fused["surviving_configs"] < 11


class TestEnergy:
    def test_int8_beats_fp32_efficiency(self):
        result = run_experiment("ext_energy")
        best_fp32 = max(
            r["gflops_per_watt"] for r in result.rows if r["precision"] == "fp32"
        )
        best_int8 = max(
            r["gflops_per_watt"] for r in result.rows if r["precision"] == "int8"
        )
        assert best_int8 > 4 * best_fp32

    def test_power_band(self):
        result = run_experiment("ext_energy")
        assert all(20 < r["avg_watts"] < 400 for r in result.rows)
