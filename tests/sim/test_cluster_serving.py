"""Sharded serving: trace partitioning, fleet merges, process pools.

The pooled modes (fork/spawn) are asserted byte-identical to the
``inline`` reference path, which is itself asserted byte-identical to
unsharded in-process runs over the same sub-traces — so the whole
cluster layer is pinned to the single-process engines the conformance
suite already guarantees.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import types

import numpy as np
import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.hw.faults import derate_clock
from repro.hw.specs import VCK5000
from repro.mapping.configs import config_by_name
from repro.obs.metrics import GLOBAL_METRICS
from repro.perf.metrics import read_totals
from repro.perf.parallel import resolve_jobs
from repro.sim.chaos import FaultPolicy, FaultSchedule
from repro.sim.cluster_serving import (
    FleetReport,
    ShardedServingCluster,
    _dumps,
    resolve_start_method,
    serve_sharded,
)
from repro.sim.serving import ServingSimulator, load_sweep
from repro.sim.streaming import (
    BLOCK_ROWS,
    StreamingServingReport,
    generate_trace_shard,
    generate_trace_soa,
    shard_arrival_offsets,
    shard_bounds,
)
from repro.workloads.gemm import GemmShape

SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
)
MEAN_INTERARRIVAL = 5e-4

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def simulator():
    partition = AcceleratorPartition(
        [config_by_name("C5"), config_by_name("C3")]
    )
    sim = ServingSimulator(partition)
    sim.prewarm(SHAPES)
    return sim


class TestShardTransport:
    def test_mapping_proxy_roundtrip(self):
        """Shard payloads carry ``DeviceSpec`` tables and device-degraded
        fault windows, both holding mapping proxies the stock pickler
        rejects; ``_dumps`` must reduce them to equal proxies."""
        degraded = derate_clock(VCK5000, 0.8)
        schedule = FaultSchedule.degraded("C5", 0.1, 0.2, device=degraded)
        proxy = types.MappingProxyType({"a": 1})
        payload = {"proxy": proxy, "device": VCK5000, "faults": schedule}
        with pytest.raises(TypeError):
            pickle.dumps(payload)
        restored = pickle.loads(_dumps(payload))
        assert isinstance(restored["proxy"], types.MappingProxyType)
        assert dict(restored["proxy"]) == {"a": 1}
        assert restored["device"] == VCK5000
        assert restored["faults"].windows == schedule.windows
        assert restored["faults"].windows[0].device == degraded


class TestShardBounds:
    @pytest.mark.parametrize(
        "num_requests,shards", [(1, 1), (7, 3), (1000, 4), (65537, 8), (10, 40)]
    )
    def test_contiguous_even_cover(self, num_requests, shards):
        bounds = shard_bounds(num_requests, shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == num_requests
        sizes = []
        for (lo, hi), (next_lo, _) in zip(bounds, bounds[1:]):
            assert hi == next_lo
        for lo, hi in bounds:
            assert hi > lo
            sizes.append(hi - lo)
        assert max(sizes) - min(sizes) <= 1
        assert len(bounds) == min(shards, num_requests)

    def test_validation(self):
        with pytest.raises(ValueError, match="request"):
            shard_bounds(0, 2)
        with pytest.raises(ValueError, match="shard"):
            shard_bounds(10, 0)


class TestTracePartitionDeterminism:
    """Satellite: concatenated shard traces == the full SoA trace, bitwise."""

    @pytest.mark.parametrize(
        "seed,num_requests,shards",
        [(0, 1, 1), (0, 7, 3), (1, 1000, 4), (2, 65537, 2), (3, 50000, 8)],
    )
    def test_concatenation_byte_identical(self, seed, num_requests, shards):
        full = generate_trace_soa(SHAPES, num_requests, MEAN_INTERARRIVAL, seed=seed)
        bounds = shard_bounds(num_requests, shards)
        offsets = shard_arrival_offsets(
            num_requests, MEAN_INTERARRIVAL, seed, bounds
        )
        arrivals, shape_ids = [], []
        for index, (lo, hi) in enumerate(bounds):
            shard = generate_trace_shard(
                SHAPES,
                num_requests,
                MEAN_INTERARRIVAL,
                seed,
                lo=lo,
                hi=hi,
                arrival_offset=offsets[index],
            )
            assert shard.shapes == full.shapes
            arrivals.append(shard.arrivals)
            shape_ids.append(shard.shape_ids)
        assert np.concatenate(arrivals).tobytes() == full.arrivals.tobytes()
        assert np.concatenate(shape_ids).tobytes() == full.shape_ids.tobytes()

    def test_boundary_offsets_are_previous_shard_last_arrival(self):
        num_requests, shards, seed = 4096, 5, 9
        full = generate_trace_soa(SHAPES, num_requests, MEAN_INTERARRIVAL, seed=seed)
        bounds = shard_bounds(num_requests, shards)
        offsets = shard_arrival_offsets(
            num_requests, MEAN_INTERARRIVAL, seed, bounds
        )
        assert offsets[0] == 0.0
        for index, (lo, _) in enumerate(bounds):
            if index:
                # the carry is bitwise the full trace's arrival at lo - 1
                assert offsets[index] == full.arrivals[lo - 1]

    @pytest.mark.parametrize(
        "cuts",
        [
            (BLOCK_ROWS // 2,),
            (BLOCK_ROWS - 1, BLOCK_ROWS + 1),
            (BLOCK_ROWS + 5, 2 * BLOCK_ROWS + 3, 3 * BLOCK_ROWS - 1),
        ],
    )
    def test_shards_cut_mid_block_match_full_trace(self, cuts):
        """Shards that start and end inside a generation block walk the
        same blocks' values as the full trace, carries included."""
        num_requests, seed = 3 * BLOCK_ROWS + 7, 6
        full = generate_trace_soa(SHAPES, num_requests, MEAN_INTERARRIVAL, seed=seed)
        edges = [0, *cuts, num_requests]
        bounds = list(zip(edges[:-1], edges[1:]))
        offsets = shard_arrival_offsets(
            num_requests, MEAN_INTERARRIVAL, seed, bounds
        )
        arrivals, shape_ids = [], []
        for (lo, hi), offset in zip(bounds, offsets):
            assert offset == (full.arrivals[lo - 1] if lo else 0.0)
            shard = generate_trace_shard(
                SHAPES,
                num_requests,
                MEAN_INTERARRIVAL,
                seed,
                lo=lo,
                hi=hi,
                arrival_offset=offset,
            )
            arrivals.append(shard.arrivals)
            shape_ids.append(shard.shape_ids)
        assert np.concatenate(arrivals).tobytes() == full.arrivals.tobytes()
        assert np.concatenate(shape_ids).tobytes() == full.shape_ids.tobytes()

    def test_shard_without_offset_diverges_after_first_shard(self):
        """The carry is load-bearing: dropping it breaks the identity."""
        num_requests, seed = 1000, 4
        full = generate_trace_soa(SHAPES, num_requests, MEAN_INTERARRIVAL, seed=seed)
        lo, hi = shard_bounds(num_requests, 2)[1]
        naked = generate_trace_shard(
            SHAPES, num_requests, MEAN_INTERARRIVAL, seed, lo=lo, hi=hi
        )
        assert naked.arrivals.tobytes() != full.arrivals[lo:hi].tobytes()

    def test_shard_validation(self):
        with pytest.raises(ValueError, match="slice"):
            generate_trace_shard(SHAPES, 10, 1e-3, 0, lo=5, hi=5)
        with pytest.raises(ValueError, match="slice"):
            generate_trace_shard(SHAPES, 10, 1e-3, 0, lo=0, hi=11)
        with pytest.raises(ValueError, match="request"):
            generate_trace_shard(SHAPES, 0, 1e-3, 0, lo=0, hi=0)


def _report_from(latencies, names=("a", "b"), accelerator=0, start=100.0):
    report = StreamingServingReport(list(names))
    arrivals = start + np.arange(len(latencies), dtype=np.float64)
    report.observe_batch(
        np.full(len(latencies), accelerator),
        arrivals,
        arrivals,
        arrivals + np.asarray(latencies, dtype=np.float64),
    )
    return report


class TestStreamingReportMerge:
    def test_disjoint_streams_merge_exactly(self):
        left = _report_from([0.5, 1.0, 2.0], accelerator=0)
        right = _report_from([4.0, 8.0], accelerator=1, start=200.0)
        merged = left.merge(right)
        assert merged is left
        assert merged.count == 5
        assert merged.replicas == 2
        assert merged.makespan == max(left.makespan, right.makespan)
        assert merged.accelerator_load() == {"a": 3, "b": 2}
        assert merged.mean_latency() == pytest.approx((0.5 + 1 + 2 + 4 + 8) / 5)
        # merged sketch == a sketch over the union stream
        union = _report_from([0.5, 1.0, 2.0, 4.0, 8.0])
        assert merged.latency_percentiles([50, 99]) == union.latency_percentiles(
            [50, 99]
        )

    def test_merge_validation(self):
        report = _report_from([1.0])
        with pytest.raises(ValueError, match="itself"):
            report.merge(report)
        with pytest.raises(ValueError, match="quantile_error"):
            report.merge(StreamingServingReport(["a", "b"], quantile_error=0.05))
        with pytest.raises(ValueError, match="accelerator names"):
            report.merge(StreamingServingReport(["x"]))

    def test_fault_accounting_sums_and_fleet_availability(self):
        left = _report_from([1.0] * 4)
        left.record_fault_metadata(
            shed_count=1, kills=2, total_retries=3, requeues=1,
            fault_events=["e1", "e2"], downtime={"a": 2.0},
        )
        right = _report_from([1.0] * 4)
        right.record_fault_metadata(
            shed_count=2, kills=1, total_retries=0, requeues=0,
            fault_events=["e3"], downtime={"a": 1.0, "b": 0.5},
        )
        horizon = left.makespan + right.makespan
        merged = left.merge(right)
        assert merged.shed_count == 3 and merged.kills == 3
        assert merged.total_retries == 3 and merged.requeues == 1
        assert len(merged.fault_events) == 3
        assert merged.downtime == {"a": 3.0, "b": 0.5}
        # availability reads as fleet-seconds: downtime over summed makespans
        assert merged.availability()["a"] == pytest.approx(1.0 - 3.0 / horizon)

    def test_as_dict_gains_replicas_only_when_merged(self):
        solo = _report_from([1.0])
        assert "replicas" not in solo.as_dict()
        merged = _report_from([1.0]).merge(_report_from([2.0]))
        assert merged.as_dict()["replicas"] == 2

    def test_merge_of_merged_reports_counts_all_replicas(self):
        a = _report_from([1.0]).merge(_report_from([2.0]))
        b = _report_from([3.0]).merge(_report_from([4.0]))
        fleet = a.merge(b)
        assert fleet.replicas == 4
        assert fleet.count == 4


class TestInlineCluster:
    def test_fleet_counts_and_shard_identity(self, simulator):
        num_requests, shards, seed = 12000, 4, 7
        fleet = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=seed, start_method="inline",
            keep_shard_reports=True,
        )
        assert isinstance(fleet, FleetReport)
        assert fleet.report.count == num_requests
        assert fleet.report.replicas == shards
        assert fleet.shards == shards
        assert sum(fleet.report.accelerator_load().values()) == num_requests
        # per-shard dispatch byte-identical to unsharded sub-trace runs
        offsets = shard_arrival_offsets(
            num_requests, MEAN_INTERARRIVAL, seed, fleet.bounds
        )
        for index, (lo, hi) in enumerate(fleet.bounds):
            sub = generate_trace_shard(
                SHAPES, num_requests, MEAN_INTERARRIVAL, seed,
                lo=lo, hi=hi, arrival_offset=offsets[index],
            )
            reference = simulator.run(sub, streaming=True)
            assert (
                reference.as_dict() == fleet.shard_reports[index].as_dict()
            ), f"shard {index} diverged from its unsharded reference"

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_merged_percentiles_within_bound_of_shard_union(
        self, simulator, shards
    ):
        num_requests, seed, error = 6000, 5, 0.01
        fleet = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=seed, start_method="inline",
            quantile_error=error,
        )
        # exact latencies of the same per-shard runs (non-streaming)
        offsets = shard_arrival_offsets(
            num_requests, MEAN_INTERARRIVAL, seed, fleet.bounds
        )
        latencies = []
        for index, (lo, hi) in enumerate(fleet.bounds):
            sub = generate_trace_shard(
                SHAPES, num_requests, MEAN_INTERARRIVAL, seed,
                lo=lo, hi=hi, arrival_offset=offsets[index],
            )
            exact = simulator.run(sub)
            latencies.extend(exact.latencies.tolist())
        ordered = np.sort(np.asarray(latencies))
        for percentile in (50.0, 95.0, 99.0):
            rank = min(len(ordered), int(np.ceil(percentile / 100 * len(ordered))))
            exact_value = float(ordered[rank - 1])
            estimate = fleet.report.latency_percentile(percentile)
            assert abs(estimate - exact_value) <= error * exact_value

    def test_shards_clamped_to_trace_length(self, simulator):
        fleet = serve_sharded(
            simulator, SHAPES, 5, MEAN_INTERARRIVAL, shards=16,
            start_method="inline",
        )
        assert fleet.shards == 5
        assert fleet.report.count == 5

    def test_single_shard_matches_unsharded_run(self, simulator):
        num_requests, seed = 3000, 2
        fleet = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=1, seed=seed, start_method="inline",
        )
        full = simulator.run(
            generate_trace_soa(SHAPES, num_requests, MEAN_INTERARRIVAL, seed=seed),
            streaming=True,
        )
        assert fleet.report.as_dict() == full.as_dict()

    def test_faults_compose_across_shards(self, simulator):
        schedule = FaultSchedule.down("C5", 0.3, 0.9) + FaultSchedule.degraded(
            "C3", 0.5, 1.5, factor=2.0
        )
        policy = FaultPolicy(max_retries=2)
        fleet = serve_sharded(
            simulator, SHAPES, 6000, MEAN_INTERARRIVAL, shards=3, seed=11,
            start_method="inline", faults=schedule, fault_policy=policy,
            keep_shard_reports=True,
        )
        summary = fleet.report.fault_summary()
        assert summary["completed"] + summary["shed"] == 6000
        for name, down in fleet.report.downtime.items():
            assert down == pytest.approx(
                sum(r.downtime.get(name, 0.0) for r in fleet.shard_reports)
            )
        assert fleet.fault_stats.windows == 2 * fleet.shards
        for up in summary["availability"].values():
            assert 0.0 <= up <= 1.0

    def test_rejects_bad_configuration(self, simulator):
        with pytest.raises(ValueError, match="shard"):
            ShardedServingCluster(simulator, SHAPES, shards=0)
        with pytest.raises(ValueError, match="shape"):
            ShardedServingCluster(simulator, [], shards=2)
        with pytest.raises(ValueError, match="start_method"):
            resolve_start_method("thread")

    def test_fleet_report_as_dict(self, simulator):
        fleet = serve_sharded(
            simulator, SHAPES, 100, MEAN_INTERARRIVAL, shards=2,
            start_method="inline", keep_shard_reports=True,
        )
        out = fleet.as_dict()
        assert out["shards"] == 2
        assert out["start_method"] == "inline"
        assert out["fleet"]["requests"] == 100
        assert len(out["per_shard"]) == 2
        assert out["bounds"] == [[0, 50], [50, 100]]


class TestProcessPools:
    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_fork_pool_matches_inline(self, simulator):
        num_requests, shards, seed = 8000, 4, 7
        fork = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=seed, start_method="fork", max_workers=2,
            keep_shard_reports=True,
        )
        inline = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=seed, start_method="inline",
            keep_shard_reports=True,
        )
        assert fork.report.as_dict() == inline.report.as_dict()
        for left, right in zip(fork.shard_reports, inline.shard_reports):
            assert left.as_dict() == right.as_dict()
        assert fork.stats.cache_hits == inline.stats.cache_hits

    def test_spawn_pool_matches_inline(self, simulator):
        num_requests, shards, seed = 2000, 2, 3
        spawn = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=seed, start_method="spawn", max_workers=2,
        )
        inline = serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=seed, start_method="inline",
        )
        assert spawn.report.as_dict() == inline.report.as_dict()

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_pool_reuse_across_serves(self, simulator):
        with ShardedServingCluster(
            simulator, SHAPES, shards=2, start_method="fork", max_workers=2
        ) as cluster:
            cluster.warm(3000, MEAN_INTERARRIVAL, seed=0)
            first = cluster.serve(3000, MEAN_INTERARRIVAL, seed=0)
            again = cluster.serve(3000, MEAN_INTERARRIVAL, seed=0)
            other_seed = cluster.serve(3000, MEAN_INTERARRIVAL, seed=1)
        assert first.report.as_dict() == again.report.as_dict()
        assert other_seed.report.as_dict() != first.report.as_dict()

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_faulted_fork_matches_inline(self, simulator):
        schedule = FaultSchedule.down("C5", 0.2, 0.8)
        kwargs = dict(
            shards=3, seed=13, faults=schedule,
            fault_policy=FaultPolicy(max_retries=1),
        )
        fork = serve_sharded(
            simulator, SHAPES, 4000, MEAN_INTERARRIVAL,
            start_method="fork", max_workers=2, **kwargs,
        )
        inline = serve_sharded(
            simulator, SHAPES, 4000, MEAN_INTERARRIVAL,
            start_method="inline", **kwargs,
        )
        assert fork.report.as_dict() == inline.report.as_dict()
        assert fork.fault_stats.as_dict() == inline.fault_stats.as_dict()


class TestPoolSizing:
    def test_pool_follows_the_affinity_mask(self, simulator, monkeypatch):
        """Pinned to one CPU of a four-CPU host, ``--jobs 0`` resolves
        to one worker, and a spawn cluster without ``max_workers``
        starts one interpreter that drains both shards."""
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert resolve_jobs(0) == 1
        with ShardedServingCluster(
            simulator, SHAPES, shards=2, start_method="spawn"
        ) as cluster:
            assert cluster.pool_size == 1
            spawn = cluster.serve(2000, MEAN_INTERARRIVAL, seed=3)
            assert len(cluster._pool._processes) == 1
        inline = serve_sharded(
            simulator, SHAPES, 2000, MEAN_INTERARRIVAL,
            shards=2, seed=3, start_method="inline",
        )
        assert spawn.report.as_dict() == inline.report.as_dict()

    @pytest.mark.parametrize(
        "shards, max_workers, expected",
        [(3, None, 2), (3, 1, 1), (2, 8, 2), (1, None, 1), (5, 0, 2)],
    )
    def test_pool_size_rule(
        self, simulator, monkeypatch, shards, max_workers, expected
    ):
        """``min(shards, max_workers or usable CPUs)``; building the
        cluster starts no pool."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        cluster = ShardedServingCluster(
            simulator, SHAPES, shards=shards, start_method="spawn",
            max_workers=max_workers,
        )
        assert cluster.pool_size == expected
        assert cluster._pool is None


class TestCrossProcessStatsPublication:
    """Satellite: worker-side registries surface in the parent."""

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_parent_registries_reflect_worker_stats(self, simulator):
        num_requests, shards = 6000, 3
        GLOBAL_METRICS.reset()
        serve_sharded(
            simulator, SHAPES, num_requests, MEAN_INTERARRIVAL,
            shards=shards, seed=7, start_method="fork", max_workers=2,
        )
        # every dispatched request is a service-cache hit in some worker;
        # without the dump/merge round trip the parent would see none
        totals = read_totals()
        assert totals.evals.cache_hits >= num_requests
        assert totals.batches >= shards
        snapshot = GLOBAL_METRICS.snapshot()
        hits = snapshot["repro_eval_cache_hits_total"]["values"][0]["value"]
        assert hits >= num_requests

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_parent_sees_worker_fault_stats(self, simulator):
        GLOBAL_METRICS.reset()
        serve_sharded(
            simulator, SHAPES, 3000, MEAN_INTERARRIVAL, shards=2, seed=1,
            start_method="fork", max_workers=2,
            faults=FaultSchedule.down("C5", 0.2, 0.6),
            fault_policy=FaultPolicy(max_retries=1),
        )
        totals = read_totals()
        assert totals.fault_runs == 2
        assert totals.faults.windows == 2
        snapshot = GLOBAL_METRICS.snapshot()
        windows = snapshot["repro_fault_windows_total"]["values"][0]["value"]
        assert windows == 2

    def test_inline_publishes_natively_without_double_count(self, simulator):
        GLOBAL_METRICS.reset()
        fleet = serve_sharded(
            simulator, SHAPES, 3000, MEAN_INTERARRIVAL, shards=2, seed=1,
            start_method="inline",
        )
        # the fleet's own stats equal what landed in the parent registry;
        # a shard counted both natively and through its dump would show
        # up here as a doubled count
        assert fleet.stats.cache_hits >= 3000
        assert read_totals().evals.cache_hits == fleet.stats.cache_hits

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork start method unavailable")
    def test_fleet_stats_identical_across_start_methods(self, simulator):
        """Pool and inline serves account their shards the same way.

        The parent's own prewarm of a shape the trace never asks for is
        not part of the serve, so no start method may report it.
        """
        assert simulator.prewarm(SHAPES + (GemmShape(256, 256, 256),)) == 2
        fleets = [
            serve_sharded(
                simulator, SHAPES, 3000, MEAN_INTERARRIVAL, shards=2, seed=1,
                start_method=method, max_workers=2,
                faults=FaultSchedule.down("C5", 0.2, 0.6),
            )
            for method in ("fork", "inline")
        ]
        views = []
        for fleet in fleets:
            stats = fleet.stats.as_dict()
            del stats["wall_seconds"], stats["evals_per_second"]
            views.append((stats, fleet.fault_stats.as_dict()))
        assert views[0] == views[1]
        assert views[0][0]["evaluations"] == 0


class TestLoadSweepSharded:
    def test_sharded_sweep_points_well_formed(self, simulator):
        result = load_sweep(
            simulator,
            SHAPES,
            [500.0, 1000.0],
            num_requests=400,
            shards=2,
            start_method="inline",
        )
        assert len(result.points) == 2
        for point in result.points:
            assert point.num_requests == 400
            assert point.achieved_rps > 0
            assert point.p99 >= point.p50

    def test_sharded_sweep_rejects_bad_shards(self, simulator):
        with pytest.raises(ValueError, match="shard"):
            load_sweep(simulator, SHAPES, [500.0], num_requests=100, shards=0)
