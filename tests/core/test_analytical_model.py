"""Analytical model tests (Section V-A, Eqs. 1-2)."""

import pytest

from repro.core.analytical_model import AnalyticalModel
from repro.core.breakdown import Bottleneck
from repro.hw.dram import CHARM_DEFAULT_PORTS
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.workloads.gemm import GemmShape


@pytest.fixture
def c6_model(c6_design):
    return AnalyticalModel(c6_design)


class TestAieLevel:
    """Eq. 1 structure."""

    def test_period_is_max_of_phases(self, c6_model):
        level = c6_model.aie_level_times()
        assert level.period == max(level.plio_a, level.plio_b, level.compute, level.plio_c)

    def test_c6_native_is_compute_bound_at_aie_level(self, c6_model):
        assert c6_model.aie_level_times().bottleneck is Bottleneck.COMPUTE

    def test_aie_cycles_scale_with_pl_tiles(self, c6_design, c6_model, square_2048):
        plan = c6_design.tile_plan(square_2048)
        level = c6_model.aie_level_times()
        cycles = c6_model.aie_cycles_per_dram_tile(plan)
        assert cycles == pytest.approx(
            plan.pl_tiles_per_dram_tile * level.period + level.exposed_fill
        )

    def test_exposed_fill_positive(self, c6_model):
        assert c6_model.aie_level_times().exposed_fill > 0


class TestDramLevel:
    """Eq. 2 structure."""

    def test_period_is_max(self, c6_design, c6_model, square_2048):
        plan = c6_design.tile_plan(square_2048)
        level = c6_model.dram_level_times(plan)
        assert level.period == max(level.load_inputs, level.aie, level.store_c)

    def test_store_amortised_by_k_sweep(self, c6_design, c6_model, square_2048):
        plan = c6_design.tile_plan(square_2048)
        level = c6_model.dram_level_times(plan)
        _, tk, _ = plan.dram_tile_counts
        assert tk > 1
        # a full C-tile write takes tk times the amortised value
        assert level.store_c * tk > level.store_c

    def test_serialized_period_exceeds_pipelined(self, c6_design, c6_model, square_2048):
        plan = c6_design.tile_plan(square_2048)
        level = c6_model.dram_level_times(plan)
        assert level.serialized_period > level.period


class TestEstimate:
    def test_includes_setup_calibration(self, c6_design, square_2048):
        """The paper adds a fixed 100 us AIE setup."""
        estimate = AnalyticalModel(c6_design).estimate(square_2048)
        assert estimate.breakdown.setup_seconds == pytest.approx(100e-6)

    def test_2048_cubed_on_c6_near_paper(self, c6_design, square_2048):
        """Section V-G: C6 double-buffered runs 2048^3 in 9.95 ms."""
        estimate = AnalyticalModel(c6_design).estimate(square_2048)
        assert estimate.total_seconds == pytest.approx(9.95e-3, rel=0.20)

    def test_2048_cubed_on_c11_near_paper(self, c11_design, square_2048):
        """Section V-G: C11 double-buffered runs 2048^3 in 0.92 ms."""
        estimate = AnalyticalModel(c11_design).estimate(square_2048)
        assert estimate.total_seconds == pytest.approx(0.92e-3, rel=0.20)

    def test_estimate_with_cached_plan(self, c6_design, square_2048):
        """What a DSE inner loop pays per candidate: the plan is reused."""
        plan = c6_design.tile_plan(square_2048)
        estimate = AnalyticalModel(c6_design).estimate(square_2048, plan)
        assert estimate.total_seconds > 0

    def test_efficiency_bounded(self, c6_design, square_2048):
        estimate = AnalyticalModel(c6_design).estimate(square_2048)
        assert 0 < estimate.efficiency < 1

    def test_throughput_consistent(self, c6_design, square_2048):
        estimate = AnalyticalModel(c6_design).estimate(square_2048)
        assert estimate.throughput_ops == pytest.approx(
            square_2048.flops / estimate.total_seconds
        )

    def test_more_bandwidth_never_slower(self, square_2048):
        for name in ("C4", "C5", "C6", "C10", "C11"):
            design = CharmDesign(config_by_name(name))
            fast = AnalyticalModel(design).estimate(square_2048).total_seconds
            slow_design = design.with_ports(CHARM_DEFAULT_PORTS)
            slow = AnalyticalModel(slow_design).estimate(square_2048).total_seconds
            assert fast <= slow

    def test_single_buffering_slower_with_same_plan(self, c6_design, square_2048):
        """Section V-G: serialising DRAM with AIE adds latency for FP32."""
        plan = c6_design.tile_plan(square_2048)
        double = AnalyticalModel(c6_design).estimate(square_2048, plan).total_seconds
        import dataclasses

        single_plan = dataclasses.replace(plan, double_buffered=False)
        single_design = c6_design.with_single_buffering()
        single = AnalyticalModel(single_design).estimate(
            square_2048, single_plan
        ).total_seconds
        assert single > double

    def test_breakdown_bottleneck_consistency(self, c6_design, square_2048):
        estimate = AnalyticalModel(c6_design).estimate(square_2048)
        assert estimate.bottleneck is estimate.breakdown.bound_phase

    def test_memory_bound_beyond_c4(self, square_2048):
        """Fig. 11: from C5/C6 onward the 2048^3 workload is memory bound."""
        for name in ("C5", "C6"):
            estimate = AnalyticalModel(CharmDesign(config_by_name(name))).estimate(
                square_2048
            )
            assert estimate.breakdown.memory_bound

    def test_small_configs_not_memory_bound(self, square_2048):
        for name in ("C1", "C2", "C3"):
            estimate = AnalyticalModel(CharmDesign(config_by_name(name))).estimate(
                square_2048
            )
            assert not estimate.breakdown.memory_bound

    def test_tiny_workload_dominated_by_setup(self, c1_design):
        native = c1_design.native_size
        estimate = AnalyticalModel(c1_design).estimate(native)
        assert estimate.breakdown.setup_seconds / estimate.total_seconds > 0.5

    def test_invalid_design_rejected_at_construction(self):
        import dataclasses

        config = dataclasses.replace(config_by_name("C1"), num_plios=500)
        with pytest.raises(Exception):
            AnalyticalModel(CharmDesign(config))
