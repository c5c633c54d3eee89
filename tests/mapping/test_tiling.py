"""Three-level tiling tests (Fig. 2 / Section IV-A)."""

import pytest

from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.tiling import TilePlan, plan_tiling
from repro.workloads.gemm import GemmShape

NATIVE_C6 = GemmShape(384, 128, 256)
NATIVE_C1 = GemmShape(32, 128, 128)


def make_plan(multiples=(1, 1, 1), workload=GemmShape(2048, 2048, 2048),
              native=NATIVE_C6, precision=Precision.FP32, double=True):
    return TilePlan(workload, native, precision, multiples, double)


class TestGeometry:
    def test_padding(self):
        plan = make_plan()
        assert plan.padded == GemmShape(2304, 2048, 2048)

    def test_pl_tile_scales_native(self):
        plan = make_plan((2, 1, 3))
        assert plan.pl_tile == GemmShape(768, 128, 768)

    def test_dram_tile_counts(self):
        plan = make_plan((1, 1, 1))
        assert plan.dram_tile_counts == (6, 16, 8)

    def test_num_dram_tiles(self):
        plan = make_plan((1, 1, 1))
        assert plan.num_dram_tiles == 6 * 16 * 8

    def test_pl_tiles_per_dram_tile(self):
        assert make_plan((2, 3, 4)).pl_tiles_per_dram_tile == 24

    def test_total_native_tiles_conserved(self):
        """num_dram_tiles * pl_tiles_per_dram_tile covers the padded
        workload exactly when multiples divide the tile counts."""
        plan = make_plan((2, 2, 2))
        assert (
            plan.num_dram_tiles * plan.pl_tiles_per_dram_tile
            >= plan.total_native_tiles
        )

    def test_rejects_zero_multiples(self):
        with pytest.raises(ValueError):
            make_plan((0, 1, 1))


class TestFootprint:
    def test_double_buffering_doubles_footprint(self):
        db = make_plan((1, 1, 1), double=True)
        sb = make_plan((1, 1, 1), double=False)
        assert db.pl_footprint_bytes() == 2 * sb.pl_footprint_bytes()

    def test_footprint_components(self):
        plan = make_plan((1, 1, 1))
        eb = 4
        expected = 2 * (
            NATIVE_C6.bytes_a(eb) + NATIVE_C6.bytes_b(eb) + NATIVE_C6.bytes_c(eb)
        )
        assert plan.pl_footprint_bytes() == expected

    def test_fits_respects_budget_override(self):
        plan = make_plan((1, 1, 1))
        assert plan.fits(VCK5000)
        assert not plan.fits(VCK5000, budget_bytes=plan.pl_footprint_bytes() - 1)


class TestTraffic:
    def test_a_reread_per_n_tile(self):
        plan = make_plan((1, 1, 1))
        traffic = plan.traffic()
        tn = plan.dram_tile_counts[2]
        assert traffic.read_a == plan.padded.bytes_a(4) * tn

    def test_b_reread_per_m_tile(self):
        plan = make_plan((1, 1, 1))
        traffic = plan.traffic()
        tm = plan.dram_tile_counts[0]
        assert traffic.read_b == plan.padded.bytes_b(4) * tm

    def test_c_written_once(self):
        plan = make_plan((1, 1, 1))
        assert plan.traffic().write_c == plan.padded.bytes_c(4)

    def test_tiling_overhead_at_least_one(self):
        assert make_plan((1, 1, 1)).traffic().tiling_overhead >= 1.0

    def test_single_tile_plan_has_no_overhead(self):
        workload = NATIVE_C6
        plan = TilePlan(workload, NATIVE_C6, Precision.FP32, (1, 1, 1))
        assert plan.traffic().tiling_overhead == pytest.approx(1.0)

    def test_bigger_tiles_less_traffic(self):
        small = make_plan((1, 1, 1)).traffic().total
        large = make_plan((2, 1, 2)).traffic().total
        assert large < small

    def test_effective_oi_below_ideal(self):
        """Fig. 15: tiling overhead pushes OI left."""
        plan = make_plan((1, 1, 1))
        ideal = plan.workload.operational_intensity(4)
        assert plan.effective_operational_intensity() < ideal

    def test_c_write_fraction(self):
        plan = make_plan((1, 1, 1))
        assert plan.c_write_fraction == pytest.approx(1 / 16)


class TestPlanSearch:
    def test_minimal_plan_when_budget_tight(self):
        minimal = TilePlan(GemmShape(2048, 2048, 2048), NATIVE_C6, Precision.FP32, (1, 1, 1))
        plan = plan_tiling(
            GemmShape(2048, 2048, 2048),
            NATIVE_C6,
            Precision.FP32,
            budget_bytes=minimal.pl_footprint_bytes(),
        )
        assert plan.multiples == (1, 1, 1)

    def test_search_never_exceeds_budget(self):
        plan = plan_tiling(GemmShape(2048, 2048, 2048), NATIVE_C6, Precision.FP32)
        assert plan.fits(VCK5000)

    def test_search_minimises_traffic(self):
        chosen = plan_tiling(GemmShape(2048, 2048, 2048), NATIVE_C1, Precision.FP32)
        baseline = TilePlan(
            GemmShape(2048, 2048, 2048), NATIVE_C1, Precision.FP32, (1, 1, 1)
        )
        assert chosen.traffic().total <= baseline.traffic().total

    def test_raises_when_nothing_fits(self):
        with pytest.raises(ValueError, match="no tile plan fits"):
            plan_tiling(
                GemmShape(2048, 2048, 2048),
                NATIVE_C6,
                Precision.FP32,
                budget_bytes=1024,
            )

    def test_small_workload_single_tile(self):
        plan = plan_tiling(NATIVE_C1, NATIVE_C1, Precision.FP32)
        assert plan.num_dram_tiles == 1
