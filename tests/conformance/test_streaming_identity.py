"""Streaming reports are byte-identical across dispatch engines.

Every engine — the scan oracle, the fast path (native kernel or NumPy
rounds) and the fault loop — hands its decisions to one report sink,
which folds them into the streaming report and an attached monitor in
the same ``chunk_size`` blocks.  Equal decisions must therefore give
equal report and monitor bytes, not merely percentiles within the
sketch bound: on real partitions of widths 1, 2 and 8, fault-free and
under a seeded chaos schedule, in process and through an inline
sharded fleet.
"""

from __future__ import annotations

import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.windows import ServingMonitor
from repro.sim.chaos import FaultPolicy, FaultSchedule, chaos_schedule
from repro.sim.cluster_serving import ShardedServingCluster
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import generate_trace_soa
from repro.workloads.gemm import GemmShape

from .harness import fast_variants

SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
    GemmShape(1024, 2048, 1024),
)
FLEETS = {
    1: ("C5",),
    2: ("C5", "C3"),
    8: ("C1", "C2", "C3", "C4", "C7", "C8", "C9", "I1"),
}
RATES = {1: 300, 2: 1000, 8: 3000}
REQUESTS = 6000
#: small blocks, not dividing the trace: many folds plus a partial tail
CHUNK = 1000
WINDOWS = 20
POLICY = FaultPolicy(max_retries=2)


@pytest.fixture(scope="module", params=sorted(FLEETS), ids=lambda w: f"{w}-wide")
def fleet(request):
    width = request.param
    partition = AcceleratorPartition([config_by_name(c) for c in FLEETS[width]])
    simulator = ServingSimulator(partition)
    simulator.prewarm(SHAPES)
    return width, simulator


def _faults(simulator, faulted, horizon):
    if not faulted:
        return None
    partition = simulator.partition
    return chaos_schedule(
        list(partition.designs), horizon, seed=3, device=partition.device
    )


def _serve(simulator, trace, dispatch, faults, window):
    monitor = ServingMonitor(window)
    report = simulator.run(
        trace,
        streaming=True,
        dispatch=dispatch,
        chunk_size=CHUNK,
        faults=faults,
        fault_policy=POLICY,
        monitor=monitor,
    )
    return report.as_dict(), monitor.as_dict()


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "chaos"])
def test_scan_streams_like_auto(fleet, faulted):
    width, simulator = fleet
    mean_interarrival = 1.0 / RATES[width]
    horizon = REQUESTS * mean_interarrival
    trace = generate_trace_soa(SHAPES, REQUESTS, mean_interarrival, seed=7)
    faults = _faults(simulator, faulted, horizon)
    window = horizon / WINDOWS
    scan_report, scan_monitor = _serve(simulator, trace, "scan", faults, window)
    assert scan_report["requests"] > CHUNK
    if faulted:
        assert scan_report["faults"]["fault_events"] > 0
    for label, context in fast_variants():
        with context():
            report, monitor = _serve(simulator, trace, "auto", faults, window)
        assert report == scan_report, f"{label} streaming report differs from scan"
        assert monitor == scan_monitor, f"{label} monitor series differs from scan"


@pytest.mark.parametrize("dispatch", ["scan", "auto"])
def test_fault_loop_streams_like_fault_free(fleet, dispatch):
    """A schedule whose only window opens after the last finish routes
    the serve through the fault loop without changing a decision: its
    report must fold exactly like the fault-free one."""
    width, simulator = fleet
    mean_interarrival = 1.0 / RATES[width]
    horizon = REQUESTS * mean_interarrival
    trace = generate_trace_soa(SHAPES, REQUESTS, mean_interarrival, seed=7)
    window = horizon / WINDOWS
    plain, plain_monitor = _serve(simulator, trace, dispatch, None, window)
    late = FaultSchedule.down(
        next(iter(simulator.partition.designs)),
        plain["makespan"] + 1.0,
        plain["makespan"] + 2.0,
    )
    faulted, faulted_monitor = _serve(simulator, trace, dispatch, late, window)
    assert faulted.pop("faults")["fault_events"] == 2
    assert faulted == plain
    assert faulted_monitor == plain_monitor


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "chaos"])
def test_sharded_scan_streams_like_auto(fleet, faulted):
    width, simulator = fleet
    mean_interarrival = 1.0 / RATES[width]
    horizon = REQUESTS * mean_interarrival
    faults = _faults(simulator, faulted, horizon)
    served = {}
    for dispatch in ("scan", "auto"):
        with ShardedServingCluster(
            simulator,
            SHAPES,
            shards=2,
            dispatch=dispatch,
            chunk_size=CHUNK,
            start_method="inline",
            faults=faults,
            fault_policy=POLICY,
        ) as cluster:
            result = cluster.serve(
                REQUESTS, mean_interarrival, seed=7,
                monitor_window=horizon / WINDOWS,
            )
        served[dispatch] = (result.report.as_dict(), result.monitor.as_dict())
    assert served["scan"][0]["replicas"] == 2
    assert served["scan"] == served["auto"]
