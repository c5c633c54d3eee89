"""The evaluation engine wired through DSE, sensitivity, serving.

The contract under test: the model evaluates serially, and results
from one cache shared by concurrent callers (``parallel_map``
threads) are bit-identical to the uncached serial ones; skipped/
infeasible candidates are reported instead of silently swallowed, and
the cache counters reflect the work.
"""

import dataclasses

import pytest

from repro.core.dse import DesignSpaceExplorer, DseResult
from repro.core.sensitivity import SensitivityAnalysis
from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.perf.cache import EvalCache, NullCache
from repro.perf.parallel import parallel_map
from repro.workloads.gemm import GemmShape

WORKLOAD = GemmShape(1024, 1024, 1024)


class TestDseParallel:
    def test_parallel_identical_to_serial(self):
        serial = DesignSpaceExplorer(
            Precision.FP32, max_aies=128, cache=NullCache()
        ).explore(WORKLOAD)
        shared = DesignSpaceExplorer(Precision.FP32, max_aies=128, cache=EvalCache())
        explorations = parallel_map(lambda _: shared.explore(WORKLOAD), range(4), jobs=4)
        for parallel in explorations:
            assert list(serial) == list(parallel)
            assert [repr(p.seconds) for p in serial] == [
                repr(p.seconds) for p in parallel
            ]

    def test_result_is_still_a_list(self):
        result = DesignSpaceExplorer(
            Precision.FP32, max_aies=64, cache=EvalCache()
        ).explore(WORKLOAD, top=3)
        assert isinstance(result, DseResult)
        assert isinstance(result, list)
        assert len(result) == 3
        assert result[0].seconds <= result[1].seconds

    def test_stats_report_evaluations(self):
        explorer = DesignSpaceExplorer(Precision.FP32, max_aies=64, cache=EvalCache())
        result = explorer.explore(WORKLOAD)
        assert result.evaluated == len(explorer.candidates())
        assert result.skipped == 0
        assert result.stats.wall_seconds > 0

    def test_infeasible_candidates_counted_not_swallowed(self):
        # a starved PL memory budget makes large-native candidates
        # untileable; the result must say so rather than hide it
        starved = dataclasses.replace(VCK5000, pl_usable_fraction=0.01)
        result = DesignSpaceExplorer(
            Precision.FP32, device=starved, max_aies=384, cache=EvalCache()
        ).explore(WORKLOAD)
        assert result.skipped > 0
        assert result.evaluated + result.skipped == result.stats.attempted

    def test_repeat_exploration_hits_cache(self):
        cache = EvalCache()
        explorer = DesignSpaceExplorer(Precision.FP32, max_aies=64, cache=cache)
        cold = explorer.explore(WORKLOAD)
        assert cold.stats.cache_hits == 0
        warm = explorer.explore(WORKLOAD)
        assert warm.stats.cache_hits >= warm.evaluated
        assert list(cold) == list(warm)


class TestSensitivityParallel:
    def test_parallel_identical_to_serial(self):
        design = CharmDesign(config_by_name("C6"))
        serial = SensitivityAnalysis(design, WORKLOAD, cache=NullCache())
        shared = SensitivityAnalysis(design, WORKLOAD, cache=EvalCache())
        counts = [48, 96, 192]
        freqs = [0.8e9, 1.0e9, 1.25e9]

        def curves(analysis):
            return (
                [p.seconds for p in analysis.plio_count(counts)],
                [p.seconds for p in analysis.aie_frequency(freqs)],
            )

        expected = curves(serial)
        concurrent = parallel_map(lambda _: curves(shared), range(4), jobs=4)
        assert concurrent == [expected] * 4

    def test_point_order_matches_request_order(self):
        design = CharmDesign(config_by_name("C6"))
        analysis = SensitivityAnalysis(design, WORKLOAD, cache=EvalCache())
        fractions = [0.4, 0.1, 0.2]
        assert [p.value for p in analysis.pl_memory_fraction(fractions)] == fractions


class TestServingPrewarm:
    @pytest.fixture
    def partition(self):
        from repro.core.multi_acc import AcceleratorPartition

        return AcceleratorPartition([config_by_name("C1"), config_by_name("C2")])

    def test_prewarm_then_run_all_hits(self, partition):
        from repro.sim.serving import ServingSimulator
        from repro.sim.streaming import generate_trace_soa

        shapes = [GemmShape(512, 512, 512), GemmShape(1024, 1024, 1024)]
        simulator = ServingSimulator(partition)
        warmed = simulator.prewarm(shapes)
        assert warmed == len(shapes) * len(partition.designs)
        trace = generate_trace_soa(shapes, num_requests=20, mean_interarrival=0.01)
        simulator.run(trace)
        assert simulator.stats.cache_hits > 0
        assert simulator.stats.cache_misses == 0  # everything prewarmed

    def test_prewarm_matches_lazy_results(self, partition):
        from repro.sim.serving import ServingSimulator
        from repro.sim.streaming import generate_trace_soa

        shapes = [GemmShape(512, 512, 512)]
        trace = generate_trace_soa(shapes, num_requests=10, mean_interarrival=0.01)
        lazy = ServingSimulator(partition).run(trace)
        warmed_sim = ServingSimulator(partition)
        warmed_sim.prewarm(shapes)
        warmed = warmed_sim.run(trace)
        assert [c.finish for c in lazy.completed] == [
            c.finish for c in warmed.completed
        ]
