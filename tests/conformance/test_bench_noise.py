"""Conformance: the bench harness is a faithful wrapper.

Two contracts, CI-gated on both the native and NumPy dispatch legs:

* **identity** — with ``noise=None`` the harness produces results
  byte-identical to driving :class:`repro.sim.serving.ServingSimulator`
  / :class:`repro.core.analytical_model.AnalyticalModel` directly, on
  both dispatch paths;
* **determinism** — with noise enabled, the same seed yields the
  identical sample stream regardless of ``--jobs`` fan-out, shard
  count, or dispatch-path choice (wall-clock measurements excluded:
  they measure this process, not the simulated system).
"""

import numpy as np

from repro.bench.experiments import EstimateExperiment, ServingExperiment
from repro.bench.noise import (
    ClockVariabilityNoise,
    DramJitterNoise,
    ThermalDeratingNoise,
    combined_service_factors,
)
from repro.bench.runner import run_bench
from repro.bench.scenarios import (
    MEAN_INTERARRIVAL,
    SERVING_SHAPES,
    build_partition,
)
from repro.core.analytical_model import AnalyticalModel
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import generate_trace_soa

ENGINES = ("scan", "auto")
NOISE = [DramJitterNoise(0.1), ThermalDeratingNoise(0.2),
         ClockVariabilityNoise(0.05)]

#: simulated-system metrics (seeded draws); wall/stats metrics measure
#: this process and are exempt from the determinism contract
_SIMULATED = ("p50", "p99", "mean_latency", "throughput_rps",
              "completed_requests", "completed_fraction")


def _simulated_only(sample: dict) -> dict:
    return {name: sample[name] for name in _SIMULATED if name in sample}


class TestNoiselessIdentity:
    def test_serving_matches_direct_run_on_every_engine(self):
        """noise=None: the harness result equals a hand-driven
        simulation of the same pinned trace, per engine."""
        simulator = ServingSimulator(build_partition())
        simulator.prewarm(SERVING_SHAPES)
        trace = generate_trace_soa(
            SERVING_SHAPES, 5000, MEAN_INTERARRIVAL, seed=7
        )
        for engine in ENGINES:
            experiment = ServingExperiment(
                num_requests=5000, dispatch=engine, streaming=False,
                vary_trace=False,
            )
            experiment.prepare()
            sample = experiment.run_repeat(123, None)
            direct = simulator.run(trace, dispatch=engine)
            p50, p99 = direct.latency_percentiles([50, 99])
            assert sample["p50"] == p50, engine
            assert sample["p99"] == p99, engine
            assert sample["mean_latency"] == direct.mean_latency(), engine
            assert sample["throughput_rps"] == direct.throughput_rps, engine
            assert sample["completed_requests"] == len(direct.completed)

    def test_estimate_matches_analytical_model(self):
        experiment = EstimateExperiment(config="C5")
        experiment.prepare()
        sample = experiment.run_repeat(99, None)
        estimate = AnalyticalModel(
            CharmDesign(config_by_name("C5"))
        ).estimate(experiment.workload)
        assert sample["total_seconds"] == estimate.total_seconds
        assert sample["efficiency"] == estimate.efficiency
        assert sample["clock_fraction"] == 1.0


class TestSeedStreamDeterminism:
    def test_jobs_fanout_preserves_sample_stream(self):
        experiment = ServingExperiment(num_requests=5000)
        serial = run_bench(experiment, repeats=4, seed=11, noise=NOISE)
        threaded = run_bench(
            ServingExperiment(num_requests=5000),
            repeats=4, seed=11, noise=NOISE, jobs=4,
        )
        assert [_simulated_only(s) for s in serial.samples] == [
            _simulated_only(s) for s in threaded.samples
        ]

    def test_engine_choice_preserves_sample_stream(self):
        """Noise perturbs service times before dispatch, so both exact
        paths see the identical perturbed system."""
        streams = []
        for engine in ENGINES:
            experiment = ServingExperiment(
                num_requests=5000, dispatch=engine, streaming=False,
            )
            experiment.prepare()
            streams.append(
                [_simulated_only(experiment.run_repeat(seed, NOISE))
                 for seed in (1, 2)]
            )
        assert all(stream == streams[0] for stream in streams[1:])

    def test_shard_count_preserves_noise_stream(self):
        """The perturbed service table is a pure function of the repeat
        seed — shard fan-out ships the same table to every worker."""
        factors = combined_service_factors(NOISE, 42, 2, len(SERVING_SHAPES))
        again = combined_service_factors(NOISE, 42, 2, len(SERVING_SHAPES))
        assert np.array_equal(factors, again)

        unsharded = ServingExperiment(num_requests=4000)
        sharded = ServingExperiment(
            num_requests=4000, shards=2, start_method="inline"
        )
        unsharded.prepare()
        sharded.prepare()
        a = unsharded._perturbed(42, NOISE)._service_cache
        b = sharded._perturbed(42, NOISE)._service_cache
        assert a == b

    def test_sharded_run_is_deterministic(self):
        experiment = ServingExperiment(
            num_requests=4000, shards=2, start_method="inline"
        )
        experiment.prepare()
        first = _simulated_only(experiment.run_repeat(7, NOISE))
        second = _simulated_only(experiment.run_repeat(7, NOISE))
        assert first == second

    def test_noise_actually_perturbs(self):
        """Sanity: the determinism above is not vacuous — noise changes
        the simulated system relative to the clean run."""
        experiment = ServingExperiment(num_requests=5000, vary_trace=False)
        experiment.prepare()
        clean = experiment.run_repeat(3, None)
        noisy = experiment.run_repeat(3, NOISE)
        assert noisy["p50"] > clean["p50"]
