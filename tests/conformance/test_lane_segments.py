"""Per-accelerator fault segments: the batches the dispatch kernel takes
under a fault schedule must decide exactly what the scan oracle decides.

A fault-loop batch runs from its earliest attempt ``t0`` up to the next
transition of any accelerator; each accelerator is a segment of its own
from ``max(t0, free)`` to its own next window boundary.  Each case below
builds a schedule that exercises one part of that contract and checks
the scan oracle and the kernel, compiled and Python, byte for byte
(:func:`assert_engines_identical`), then reads the ``serve.fault_loop``
span to check that the kernel took the case through its batches rather
than leaving it to the scalar loop.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.spans import GLOBAL_TRACER
from repro.sim.chaos import FaultPolicy, FaultSchedule
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import generate_trace_soa
from tests.conformance.harness import (
    SHAPES,
    StubPartition,
    assert_engines_identical,
)

#: lane 0 is fast, lane 1 slow: at 1 ms mean inter-arrival lane 1 alone
#: falls behind by ~1.5 ms per request
SERVICES = {
    "acc0": {shape: 0.0012 * (1 + index) for index, shape in enumerate(SHAPES)},
    "acc1": {shape: 0.0025 * (1 + index) for index, shape in enumerate(SHAPES)},
}


def _loop_counts(partition, trace, faults, policy=None) -> dict:
    """The ``serve.fault_loop`` span's counters of one ``auto`` run."""
    GLOBAL_TRACER.enable()
    try:
        ServingSimulator(partition).run(trace, faults=faults, fault_policy=policy)
        (loop,) = [s for s in GLOBAL_TRACER.spans() if s.name == "serve.fault_loop"]
    finally:
        GLOBAL_TRACER.disable()
        GLOBAL_TRACER.clear()
    return loop.attrs


def _check(partition, trace, faults, policy=None) -> tuple[dict, dict]:
    result = assert_engines_identical(trace, partition, faults, policy)
    return result, _loop_counts(partition, trace, faults, policy)


def test_backlog_crosses_a_down_window_end():
    """Lane 0 is down while lane 1's backlog carries its starts past the
    end of lane 0's window and into a derated window of its own: the
    rows stay in the batch, each lane read in its own window."""
    partition = StubPartition(SERVICES)
    trace = generate_trace_soa(SHAPES, 3000, 1e-3, seed=7)
    faults = FaultSchedule.down("acc0", 0.4, 1.2) + FaultSchedule.degraded(
        "acc1", 1.5, 2.2, factor=1.5
    )
    result, counts = _check(partition, trace, faults)
    report = result["report"]
    # lane 1 is still working off the outage's backlog when lane 0
    # comes back
    busy = report.starts[report.accelerator_ids == 1]
    assert (busy >= 1.2).any()
    # kills aside (the outage's onset interrupts lane 0), every attempt
    # is batched
    assert counts["scalar"] == report.kills
    assert counts["batched"] == len(trace)


def test_unservable_rows_are_requeued_inside_a_batch():
    """While both lanes are down no row can be served: the batch decides
    each one unservable and the loop requeues it to the next
    transition, where it is served."""
    partition = StubPartition(SERVICES)
    trace = generate_trace_soa(SHAPES, 2000, 4e-3, seed=3)
    faults = FaultSchedule.down("acc0", 2.0, 4.0) + FaultSchedule.down(
        "acc1", 2.5, 3.5
    )
    result, counts = _check(partition, trace, faults)
    report = result["report"]
    assert report.requeues > 100 and not report.shed
    # kills aside, every attempt, requeued ones included, is batched
    assert counts["scalar"] == report.kills
    assert counts["batched"] == len(trace) + report.requeues


@pytest.mark.parametrize("cause", ["down_forever", "no_service"])
def test_unservable_rows_are_shed_past_the_last_transition(cause):
    """A row no lane can serve once no transition remains is shed.
    ``down_forever``: both lanes go down for good, so late rows are
    requeued to the windows' infinite end and shed there.
    ``no_service``: one shape has no finite service anywhere, so its
    rows are requeued to each transition and shed inside the batch once
    the schedule has none left."""
    services = {name: dict(per_shape) for name, per_shape in SERVICES.items()}
    if cause == "down_forever":
        faults = FaultSchedule.down("acc0", 1.0, math.inf) + FaultSchedule.down(
            "acc1", 1.5, math.inf
        )
    else:
        for per_shape in services.values():
            per_shape[SHAPES[2]] = math.inf
        faults = FaultSchedule.down("acc0", 0.5, 0.8) + FaultSchedule.degraded(
            "acc1", 1.0, 1.3, factor=2.0
        )
    partition = StubPartition(services)
    trace = generate_trace_soa(SHAPES, 2000, 1e-3, seed=5)
    result, counts = _check(partition, trace, faults)
    shed = result["shed"]
    assert shed and {row[2] for row in shed} == {"no_feasible_accelerator"}
    if cause == "no_service":
        # a shed past the last transition is decided in a batch too
        assert counts["scalar"] == result["report"].kills
        assert max(float(row[3]) for row in shed) < math.inf


def test_kill_inside_a_per_lane_segment():
    """A down onset that interrupts lane 0 while lane 1's backlog runs
    past it kills the execution; the kill ends the batch and the scalar
    loop takes that attempt, then batching resumes."""
    partition = StubPartition(SERVICES)
    trace = generate_trace_soa(SHAPES, 3000, 1e-3, seed=11)
    faults = (
        FaultSchedule.degraded("acc1", 0.2, 0.9, factor=3.0)
        + FaultSchedule.down("acc0", 1.0, 1.1)
        + FaultSchedule.down("acc0", 1.8, 1.85)
    )
    policy = FaultPolicy(max_retries=1)
    result, counts = _check(partition, trace, faults, policy)
    report = result["report"]
    assert report.kills >= 1
    assert counts["scalar"] == report.kills
    assert counts["batched"] + counts["scalar"] == (
        len(trace) + report.kills + report.requeues
        - sum(s.reason == "retry_budget_exhausted" for s in report.shed)
    )
