"""One spawn worker draining several shards matches the inline fleet.

A shard pool starts at most one worker per usable CPU, so on a small
host a single worker serves every shard task in turn, on one simulator
whose partition it builds only when a device-degraded fault window asks
for a design.  Each case serves three shards through a one-worker spawn
pool and through the pool-free ``inline`` mode, and asserts that the
fleet report, the merged monitor and the fleet registry's totals agree.
"""

from __future__ import annotations

import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.hw.faults import derate_clock, disable_dram_channels
from repro.hw.specs import VCK5000
from repro.mapping.configs import config_by_name
from repro.obs.metrics import GLOBAL_METRICS
from repro.perf.metrics import read_totals
from repro.sim.chaos import FaultPolicy, FaultSchedule, chaos_schedule
from repro.sim.cluster_serving import ShardedServingCluster
from repro.sim.serving import ServingSimulator
from repro.workloads.gemm import GemmShape

SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
)
NUM_REQUESTS = 6000
MEAN_INTERARRIVAL = 5e-4
HORIZON = NUM_REQUESTS * MEAN_INTERARRIVAL
SHARDS = 3

#: case -> (fault schedule, monitor window)
CASES = {
    "fault-free": (None, None),
    "chaos": (chaos_schedule(["C5", "C3"], HORIZON, seed=5), None),
    "device-degraded": (
        FaultSchedule.degraded(
            "C5", 0.2 * HORIZON, 0.6 * HORIZON,
            device=derate_clock(VCK5000, 0.7), label="clock",
        )
        + FaultSchedule.degraded(
            "C3", 0.5 * HORIZON, 0.9 * HORIZON,
            device=disable_dram_channels(VCK5000, 2), label="dram",
        )
        + FaultSchedule.down("C3", 0.1 * HORIZON, 0.2 * HORIZON),
        HORIZON / 20,
    ),
}


@pytest.fixture(scope="module")
def simulator():
    partition = AcceleratorPartition(
        [config_by_name("C5"), config_by_name("C3")]
    )
    sim = ServingSimulator(partition)
    sim.prewarm(SHAPES)
    return sim


def _serve(simulator, start_method, faults, monitor_window):
    """The fleet, its ``as_dict`` minus host timings, and its registry
    totals (the parent registry holds exactly the fleet's after a reset)."""
    with ShardedServingCluster(
        simulator, SHAPES, shards=SHARDS, start_method=start_method,
        max_workers=1, faults=faults, fault_policy=FaultPolicy(max_retries=1),
    ) as cluster:
        GLOBAL_METRICS.reset()
        fleet = cluster.serve(
            NUM_REQUESTS, MEAN_INTERARRIVAL, seed=5,
            monitor_window=monitor_window,
        )
        if start_method != "inline":
            assert len(cluster._pool._processes) == 1
    totals = read_totals()
    totals.evals.wall_seconds = 0.0
    view = fleet.as_dict()
    del view["start_method"]
    del view["stats"]["wall_seconds"], view["stats"]["evals_per_second"]
    return fleet, view, totals


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_spawn_worker_matches_inline(simulator, case):
    faults, monitor_window = CASES[case]
    spawn, spawn_view, spawn_totals = _serve(
        simulator, "spawn", faults, monitor_window
    )
    inline, inline_view, inline_totals = _serve(
        simulator, "inline", faults, monitor_window
    )
    assert spawn.start_method == "spawn"
    assert spawn.shards == SHARDS
    assert spawn_view == inline_view
    assert spawn_totals == inline_totals
    assert spawn.report.count + spawn.report.shed_count == NUM_REQUESTS
    if faults is not None:
        assert spawn_totals.fault_runs == SHARDS
        assert spawn_totals.faults.windows > 0
    if monitor_window is None:
        assert spawn.monitor is None
    else:
        assert spawn.monitor.as_dict() == inline.monitor.as_dict()
        assert sum(s.completed for s in spawn.monitor.timeline()) == spawn.report.count
