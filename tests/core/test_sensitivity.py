"""Sensitivity-analysis tests."""

import pytest

from repro.core.sensitivity import SensitivityAnalysis
from repro.hw.dram import DramPorts
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.workloads.gemm import GemmShape


@pytest.fixture(scope="module")
def analysis():
    return SensitivityAnalysis(
        CharmDesign(config_by_name("C6")), GemmShape(2048, 2048, 2048)
    )


class TestAxes:
    def test_dram_ports_monotone(self, analysis):
        points = analysis.dram_ports([DramPorts(2, 1), DramPorts(4, 2), DramPorts(8, 4)])
        times = [p.seconds for p in points]
        assert times[0] > times[1]
        # beyond 4r2w the NoC plateau stops further gains (Section IV-C)
        assert times[2] == pytest.approx(times[1], rel=0.01)

    def test_plio_count_more_never_slower(self, analysis):
        points = analysis.plio_count([48, 96, 192])
        times = [p.seconds for p in points]
        assert all(b <= a * 1.0001 for a, b in zip(times, times[1:]))

    def test_aie_frequency_memory_bound_insensitive(self, analysis):
        """C6 at 2048^3 is DRAM-bound: halving the AIE clock barely
        moves the total — the signature of a memory wall."""
        base = analysis.aie_frequency([1.25e9])[0].seconds
        slow = analysis.aie_frequency([0.625e9])[0].seconds
        assert slow < 1.5 * base

    def test_aie_frequency_compute_bound_sensitive(self):
        compute_bound = SensitivityAnalysis(
            CharmDesign(config_by_name("C3")), GemmShape(2048, 2048, 2048)
        )
        base = compute_bound.aie_frequency([1.25e9])[0].seconds
        slow = compute_bound.aie_frequency([0.625e9])[0].seconds
        assert slow > 1.7 * base

    def test_pl_memory_more_never_slower(self, analysis):
        points = analysis.pl_memory_fraction([0.1, 0.2, 0.4])
        times = [p.seconds for p in points]
        assert all(b <= a * 1.0001 for a, b in zip(times, times[1:]))

    def test_dram_channel_bandwidth_saturates(self, analysis):
        """Raw DDR bandwidth is not the binding constraint — the NoC
        assignment is (Section IV-C)."""
        points = analysis.dram_channel_bandwidth([25.6e9, 51.2e9])
        assert points[1].seconds == pytest.approx(points[0].seconds, rel=0.01)


    def test_infeasible_variant_raises(self, analysis):
        """A variant that cannot tile the workload fails loudly."""
        with pytest.raises(ValueError):
            analysis.pl_memory_fraction([0.0001])


class TestSummary:
    def test_summary_covers_axes(self, analysis):
        summary = analysis.summary()
        assert set(summary) == {"dram_ports", "plios", "aie_freq_hz", "pl_usable_fraction"}
        for points in summary.values():
            assert points
            for point in points:
                assert point.seconds > 0
                assert point.bottleneck
