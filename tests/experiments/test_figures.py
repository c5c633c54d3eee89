"""Figure-driver tests: each experiment must reproduce the paper's claims."""

import pytest

from repro.experiments import available_experiments, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run each experiment once per module."""
    cache = {}

    def get(experiment_id):
        if experiment_id not in cache:
            cache[experiment_id] = run_experiment(experiment_id)
        return cache[experiment_id]

    return get


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        expected = {
            "table1", "table2", "table3",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15",
            "model_accuracy", "buffering", "dram_ports",
        }
        assert expected <= set(available_experiments())

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    @pytest.mark.parametrize("experiment_id", sorted([
        "table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8",
        "fig12", "fig13", "fig15", "dram_ports",
    ]))
    def test_every_fast_experiment_renders(self, results, experiment_id):
        text = results(experiment_id).render()
        assert experiment_id in text


class TestFig5:
    def test_intrinsics_over_90pct(self, results):
        rows = results("fig5").rows
        intr = [r for r in rows if r["style"] == "intrinsic"]
        assert all(r["efficiency"] > 0.85 for r in intr)

    def test_fp32_api_reduction_near_46pct(self, results):
        rows = results("fig5").rows
        intr = next(r for r in rows if r["precision"] == "fp32" and r["style"] == "intrinsic")
        api = next(r for r in rows if r["precision"] == "fp32" and r["style"] == "api")
        reduction = 1 - api["efficiency"] / intr["efficiency"]
        assert reduction == pytest.approx(0.46, abs=0.04)

    def test_int8_api_reduction_near_7pct(self, results):
        rows = results("fig5").rows
        intr = next(r for r in rows if r["precision"] == "int8" and r["style"] == "intrinsic")
        api = next(r for r in rows if r["precision"] == "int8" and r["style"] == "api")
        reduction = 1 - api["efficiency"] / intr["efficiency"]
        assert reduction == pytest.approx(0.07, abs=0.03)

    def test_hw_time_exceeds_aiesim(self, results):
        for row in results("fig5").rows:
            assert row["hw_us"] > row["aiesim_us"]


class TestFig6:
    def test_fp32_efficiency_band_70_to_98(self, results):
        effs = results("fig6").column("efficiency")
        assert min(effs) >= 0.65
        assert max(effs) <= 0.99

    def test_16x128x16_near_best_and_dotted(self, results):
        """Section V-C: long-K kernels like 16x128x16 reach the highest
        efficiencies but need neighbour memory."""
        result = results("fig6")
        row = result.row_by("shape", "16x128x16")
        best = max(result.column("efficiency"))
        assert row["efficiency"] >= 0.97 * best
        assert row["needs_neighbor_memory"]
        best_row = max(result.rows, key=lambda r: r["efficiency"])
        assert "128" in best_row["shape"].split("x")[1]  # K = 128 wins

    def test_majority_compute_bound(self, results):
        """Fig. 6: most FP32 kernels are compute-bound."""
        rows = results("fig6").rows
        compute_bound = sum(1 for r in rows if r["bound"] == "compute")
        assert compute_bound > len(rows) / 2

    def test_kernels_over_32kb_flagged(self, results):
        """Kernels over the local 32 KB are the dotted bars."""
        result = results("fig6")
        assert result.row_by("shape", "64x64x64")["needs_neighbor_memory"]
        assert not result.row_by("shape", "32x32x32")["needs_neighbor_memory"]


class TestFig7:
    def test_128cube_highest_efficiency(self, results):
        rows = results("fig7").rows
        row = results("fig7").row_by("shape", "128x128x128")
        assert row["efficiency"] == max(r["efficiency"] for r in rows)
        assert row["needs_neighbor_memory"]
        best = max(rows, key=lambda r: r["efficiency"])
        assert best["shape"] == "128x128x128"

    def test_scalable_64cube_keeps_high_efficiency(self, results):
        result = results("fig7")
        assert result.row_by("shape", "64x64x64")["efficiency"] > 0.85

    def test_some_kernels_communication_bound(self, results):
        """Fig. 7: INT8's 16x compute / 4x data asymmetry shows up."""
        rows = results("fig7").rows
        assert any(r["bound"] == "communication" for r in rows)

    def test_int8_worst_efficiency_below_fp32_worst(self, results):
        assert min(results("fig7").column("efficiency")) < min(
            results("fig6").column("efficiency")
        )


def _value(rows, scheme):
    return next(r["normalized_time"] for r in rows if r["scheme"] == scheme)


class TestFig8:
    def test_panels_present(self, results):
        panels = results("fig8").panels
        assert set(panels) == {
            "fp32 16 AIEs", "fp32 384 AIEs", "int8 16 AIEs", "int8 256 AIEs"
        }

    def test_cascade_always_best(self, results):
        for rows in results("fig8").panels.values():
            cascade = next(r for r in rows if r["scheme"] == "cascade")
            assert cascade["normalized_time"] == 1.0
            feasible = [r["normalized_time"] for r in rows if r["feasible"]]
            assert min(feasible) == 1.0

    def test_int8_via_switch_band(self, results):
        rows = results("fig8").panels["int8 16 AIEs"]
        near = next(r for r in rows if r["scheme"] == "via_switch_near")
        assert 3.1 <= near["normalized_time"] <= 3.4

    def test_16_aie_buffer_bands(self, results):
        """Paper, 16 AIEs: double buffer +1%, single buffer +32% / +78%;
        via-switch costs up to 6% for FP32."""
        result = results("fig8")
        fp32_small = result.panels["fp32 16 AIEs"]
        int8_small = result.panels["int8 16 AIEs"]
        assert _value(fp32_small, "buffer_double") < 1.03
        assert 1.25 <= _value(fp32_small, "buffer_single") <= 1.37
        assert 1.70 <= _value(int8_small, "buffer_single") <= 1.90
        assert _value(fp32_small, "via_switch_far") <= 1.06

    def test_max_aie_buffer_values(self, results):
        """Paper, max AIEs: +22%/+32% (FP32) and +66%/+76% (INT8)."""
        result = results("fig8")
        fp32_large = result.panels["fp32 384 AIEs"]
        int8_large = result.panels["int8 256 AIEs"]
        assert _value(fp32_large, "buffer_double") == 1.22
        assert _value(int8_large, "buffer_single") == 1.76

    def test_far_via_switch_infeasible_at_max_aies(self, results):
        fp32_large = results("fig8").panels["fp32 384 AIEs"]
        assert _value(fp32_large, "via_switch_far") is None


class TestFig12:
    def test_reference_schemes(self, results):
        result = results("fig12")
        assert len(result.rows) == 4
        plios = [r["plios"] for r in result.rows]
        assert plios == [3, 7, 14, 36]


class TestFig13:
    def test_both_panels(self, results):
        assert set(results("fig13").panels) == {"FP32 (C1)", "INT8 (C7)"}

    def test_twelve_schemes_plio_ranges(self, results):
        """Paper: twelve schemes, 3..36 PLIOs (FP32) and 3..34 (INT8)."""
        fp32 = results("fig13").panels["FP32 (C1)"]
        int8 = results("fig13").panels["INT8 (C7)"]
        assert len(fp32) == 12 and len(int8) == 12
        assert (fp32[0]["plios"], fp32[-1]["plios"]) == (3, 36)
        assert (int8[0]["plios"], int8[-1]["plios"]) == (3, 34)

    def test_fp32_speedup(self, results):
        """Paper: 4.63x improvement for FP32 (ours: 4.60x)."""
        fp32 = results("fig13").panels["FP32 (C1)"]
        assert fp32[-1]["speedup_vs_3plio"] == pytest.approx(4.63, abs=0.25)

    def test_int8_speedup_band(self, results):
        """Paper: 6.60x for INT8 (ours overshoots to ~9x; see EXPERIMENTS.md)."""
        int8 = results("fig13").panels["INT8 (C7)"]
        assert 5.5 <= int8[-1]["speedup_vs_3plio"] <= 9.5

    def test_utilization_tradeoff(self, results):
        rows = results("fig13").panels["FP32 (C1)"]
        assert rows[0]["array_utilization_pct"] == 100
        assert rows[-1]["array_utilization_pct"] == 28

    def test_seven_plio_scheme_fills_array(self, results):
        fp32 = results("fig13").panels["FP32 (C1)"]
        assert next(r for r in fp32 if r["plios"] == 7)["array_utilization_pct"] == 100

    def test_diminishing_returns(self, results):
        """Each added PLIO helps less."""
        fp32 = results("fig13").panels["FP32 (C1)"]
        cycles = [r["cycles_per_tile"] for r in fp32]
        assert all(b <= a for a, b in zip(cycles, cycles[1:]))


class TestFig15:
    def test_red_dot_classification(self, results):
        result = results("fig15")
        for workload_id in ("B1", "V1", "L1", "L2"):
            assert result.row_by("workload", workload_id)["ideal_bound"] == "compute"
        for workload_id in ("L3", "L4"):
            assert result.row_by("workload", workload_id)["ideal_bound"] == "dram"

    def test_all_tiled_points_dram_bound(self, results):
        assert all(r["tiled_bound"] == "dram" for r in results("fig15").rows)

    def test_128_tops_unattainable_after_tiling(self, results):
        """Tiling overhead lowers every point's OI, so the 128 TOPS
        ceiling is out of reach."""
        result = results("fig15")
        assert all(r["tiled_attainable_tops"] < 128 for r in result.rows)
        assert all(r["tiled_oi"] < r["ideal_oi"] for r in result.rows)

    def test_ceilings_top_out_at_128_tops(self, results):
        ceilings = results("fig15").panels["ceilings"]
        assert ceilings[-1]["peak_tops"] == pytest.approx(128.0)

    def test_bandwidth_lines(self, results):
        lines = {r["line"]: r["gb_per_s"] for r in results("fig15").panels["bandwidth_lines"]}
        assert lines["DRAM (theoretical)"] == pytest.approx(102.4)
        assert lines["DRAM (achieved, 4r2w)"] == pytest.approx(34.0, abs=0.5)
        assert lines["PLIO (PL->AIE)"] == pytest.approx(1248.0)


class TestDramPorts:
    def test_plateau_rows(self, results):
        result = results("dram_ports")
        assert result.row_by("ports", "2r1w")["achieved_gb_s"] == pytest.approx(20.0, abs=0.2)
        assert result.row_by("ports", "4r2w")["achieved_gb_s"] == pytest.approx(34.0, abs=0.2)
        assert result.row_by("ports", "8r4w")["achieved_gb_s"] == pytest.approx(34.0, abs=0.2)

    def test_only_34pct_of_theoretical_reachable(self, results):
        result = results("dram_ports")
        assert result.row_by("ports", "4r2w")["utilization_pct"] == pytest.approx(34, abs=1)
