"""Design-space exploration tests."""

import dataclasses

import pytest

from repro.core.dse import DesignSpaceExplorer
from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.grouping import pack_depth_for
from repro.perf.cache import NullCache
from repro.workloads.gemm import GemmShape


@pytest.fixture(scope="module")
def fp32_explorer():
    return DesignSpaceExplorer(Precision.FP32, max_aies=128)


class TestCandidates:
    def test_groupings_respect_aie_budget(self, fp32_explorer):
        for grouping in fp32_explorer.candidate_groupings():
            assert grouping.num_aies <= 128

    def test_groupings_pack_aligned(self, fp32_explorer):
        depth = pack_depth_for(Precision.FP32)
        for grouping in fp32_explorer.candidate_groupings():
            assert grouping.gk % depth == 0

    def test_candidates_all_valid(self, fp32_explorer):
        for design in fp32_explorer.candidates():
            design.validate()

    def test_port_exploration_doubles_candidates(self):
        base = DesignSpaceExplorer(Precision.FP32, max_aies=64)
        ports = DesignSpaceExplorer(Precision.FP32, max_aies=64, explore_ports=True)
        assert len(ports.candidates()) == 2 * len(base.candidates())


class TestExploration:
    def test_results_sorted_by_time(self, fp32_explorer):
        points = fp32_explorer.explore(GemmShape(1024, 1024, 1024), top=5)
        times = [p.seconds for p in points]
        assert times == sorted(times)

    def test_best_is_first(self, fp32_explorer):
        workload = GemmShape(1024, 1024, 1024)
        best = fp32_explorer.best(workload)
        assert best.seconds == fp32_explorer.explore(workload, top=1)[0].seconds

    def test_top_limits_results(self, fp32_explorer):
        assert len(fp32_explorer.explore(GemmShape(512, 512, 512), top=3)) == 3

    def test_more_aies_win_for_large_compute_bound_workloads(self):
        explorer = DesignSpaceExplorer(Precision.FP32, max_aies=64)
        best = explorer.best(GemmShape(2048, 2048, 2048))
        # a 64-AIE grouping should beat tiny ones on a large workload
        assert best.num_aies >= 32

    def test_int8_explorer(self):
        explorer = DesignSpaceExplorer(Precision.INT8, max_aies=64)
        best = explorer.best(GemmShape(1024, 1024, 1024))
        assert best.config.precision is Precision.INT8

    def test_infeasible_candidates_counted_as_skipped(self):
        """On a PL-starved device most candidates cannot tile the
        workload; they are counted, never silently dropped."""
        starved = dataclasses.replace(VCK5000, pl_usable_fraction=0.01)
        explorer = DesignSpaceExplorer(
            Precision.FP32, device=starved, max_aies=400, cache=NullCache()
        )
        points = explorer.explore(GemmShape(1024, 1024, 1024))
        assert points.skipped > 0 and points.evaluated > 0
        assert points.evaluated + points.skipped == len(explorer.candidates())
        assert len(points) == min(10, points.evaluated)
