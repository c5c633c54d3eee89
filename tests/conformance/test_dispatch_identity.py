"""Differential identity tests: the scan oracle against the fast path.

Parametrized over partition widths 1–16, with and without fault
schedules, on stub and real partitions — every width runs the same
k-wide fast path (native kernel or NumPy rounds), so no width may be
left out.  The real-scale cases serve thousands of requests under
device-degraded windows, so the fault loop batches segments while
windows are active.
"""

import contextlib

import numpy as np
import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.hw.faults import derate_clock, disable_aie_columns
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.sim import serving
from repro.sim.chaos import FaultPolicy, FaultSchedule, chaos_schedule
from repro.sim.serving import ServingSimulator, generate_trace
from repro.sim.streaming import generate_trace_soa
from repro.workloads.gemm import GemmShape

from .harness import (
    SHAPES,
    assert_engines_identical,
    dispatch_rows,
    make_partition,
    numpy_rounds,
)

WIDTHS = list(range(1, 17))


def _trace(num_requests=120, mean_interarrival=2e-3, seed=11):
    return generate_trace(SHAPES, num_requests, mean_interarrival, seed=seed)


def _schedule_for(width):
    """A mixed down/degraded schedule sized to the stub trace timescale."""
    windows = FaultSchedule.down("acc0", 0.02, 0.06)
    if width >= 2:
        windows = windows + FaultSchedule.degraded("acc1", 0.01, 0.12, factor=2.5)
    if width >= 4:
        windows = windows + FaultSchedule.down("acc3", 0.05, 0.09)
    if width >= 7:
        windows = windows + FaultSchedule.degraded("acc6", 0.0, 0.2, factor=4.0)
    return windows


@pytest.mark.parametrize("width", WIDTHS)
def test_engines_identical_fault_free(width):
    assert_engines_identical(_trace(), make_partition(width))


@pytest.mark.parametrize("width", WIDTHS)
def test_engines_identical_under_faults(width):
    partition = make_partition(width)
    result = assert_engines_identical(
        _trace(),
        partition,
        faults=_schedule_for(width),
        policy=FaultPolicy(max_retries=2),
    )
    report = result["report"]
    assert len(report.completed) + len(report.shed) == 120


@pytest.mark.parametrize("width", [2, 5, 8, 13])
def test_engines_identical_under_chaos(width):
    partition = make_partition(width)
    schedule = chaos_schedule(list(partition.designs), 0.25, seed=3)
    assert_engines_identical(_trace(), partition, faults=schedule)


def test_empty_schedule_matches_no_faults():
    """``FaultSchedule(())`` must take the untouched fault-free paths."""
    trace = _trace()
    partition = make_partition(5)
    for engine in ("scan", "auto"):
        plain = ServingSimulator(partition).run(trace, dispatch=engine)
        empty = ServingSimulator(partition).run(
            trace, dispatch=engine, faults=FaultSchedule(())
        )
        assert dispatch_rows(empty) == dispatch_rows(plain)
        assert empty.fault_summary() == plain.fault_summary()


def test_far_future_window_matches_no_faults():
    """A window past the makespan cannot change any dispatch decision."""
    trace = _trace()
    partition = make_partition(4)
    plain = ServingSimulator(partition).run(trace)
    future = FaultSchedule.down("acc0", plain.makespan + 10.0, plain.makespan + 20.0)
    faulted = ServingSimulator(partition).run(trace, faults=future)
    assert dispatch_rows(faulted) == dispatch_rows(plain)
    assert faulted.shed == []
    assert faulted.kills == 0


def test_real_partition_engines_identical():
    partition = AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    shapes = [SHAPES[0], SHAPES[1]]
    trace = generate_trace(shapes, 80, 5e-4, seed=3)
    schedule = FaultSchedule.down("C5", 0.004, 0.012) + FaultSchedule.degraded(
        "C3", 0.002, 0.02, factor=3.0
    )
    assert_engines_identical(trace, partition)
    assert_engines_identical(trace, partition, faults=schedule)


#: the serving benchmark's shape mix
REAL_SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
    GemmShape(1024, 2048, 1024),
)


@pytest.mark.parametrize(
    "configs, rate, requests, target, columns",
    [
        pytest.param(("C5", "C3"), 1000, 8000, "C5", 20, id="C5+C3"),
        pytest.param(
            ("C1", "C2", "C3", "C4", "C7", "C8", "C9", "I1"),
            3000,
            12000,
            "C4",
            35,
            id="8-wide",
        ),
    ],
)
def test_real_scale_device_degraded_engines_identical(
    configs, rate, requests, target, columns, monkeypatch
):
    """Chaos device windows on real designs, at a scale that batches.

    Every accelerator but ``target`` gets seeded chaos windows through
    the ``hw.faults`` device injectors, which re-evaluate the model per
    window.  ``target`` is down once, serves on a derated clock once,
    and once loses ``columns`` AIE columns — more than its design
    survives, so that window is an ``inf`` service column.
    """
    partition = AcceleratorPartition([config_by_name(name) for name in configs])
    device = partition.device
    assert not CharmDesign(
        config_by_name(target), disable_aie_columns(device, columns)
    ).is_valid()
    horizon = requests / rate
    others = [name for name in partition.designs if name != target]
    schedule = (
        chaos_schedule(others, horizon, seed=5, device=device)
        + FaultSchedule.degraded(
            target, 0.1 * horizon, 0.3 * horizon,
            device=disable_aie_columns(device, columns),
        )
        + FaultSchedule.down(target, 0.45 * horizon, 0.55 * horizon)
        + FaultSchedule.degraded(
            target, 0.7 * horizon, 0.85 * horizon,
            device=derate_clock(device, 0.8),
        )
    )
    trace = generate_trace_soa(REAL_SHAPES, requests, 1.0 / rate, seed=17)

    # rows the fast path committed in segments with a lane down or invalid
    batched_unusable = []

    def recording(times, class_ids, services, free, limit, next_downs):
        accepted, runs = segment(times, class_ids, services, free, limit, next_downs)
        if np.isinf(services).all(axis=1).any():
            batched_unusable.append(accepted)
        return accepted, runs

    segment = serving.dispatch_segment
    monkeypatch.setattr(serving, "dispatch_segment", recording)
    result = assert_engines_identical(trace, partition, faults=schedule)
    report = result["report"]
    assert len(report.completed) + len(report.shed) == requests
    assert sum(batched_unusable) >= requests // 10, batched_unusable


def test_fault_runs_deterministic():
    trace = _trace()
    partition = make_partition(6)
    schedule = _schedule_for(6)
    first = ServingSimulator(partition).run(trace, faults=schedule)
    second = ServingSimulator(partition).run(trace, faults=schedule)
    assert dispatch_rows(first) == dispatch_rows(second)
    assert first.fault_summary() == second.fault_summary()


@pytest.mark.parametrize(
    "dispatch, context",
    [
        pytest.param("scan", contextlib.nullcontext, id="scan"),
        pytest.param("auto", contextlib.nullcontext, id="auto"),
        # the fast path forced onto the NumPy vectorized rounds
        pytest.param("auto", numpy_rounds, id="vectorized"),
    ],
)
def test_empty_trace_rejected_uniformly(dispatch, context):
    """Every path raises the same clear ValueError for an empty trace.

    The contract mirrors ``generate_trace*``'s ``num_requests >= 1``
    validation: an empty trace has no dispatch semantics, so no path
    gets to pick its own degenerate behaviour.
    """
    import numpy as np

    from repro.sim.streaming import SoATrace

    partition = make_partition(2)
    simulator = ServingSimulator(partition)
    empty_soa = SoATrace(
        shapes=SHAPES,
        shape_ids=np.empty(0, dtype=np.int64),
        arrivals=np.empty(0, dtype=np.float64),
    )
    with context():
        for trace in ([], empty_soa):
            with pytest.raises(ValueError, match="empty trace"):
                simulator.run(trace, dispatch=dispatch)
            if dispatch != "scan":
                with pytest.raises(ValueError, match="empty trace"):
                    simulator.run(trace, dispatch=dispatch, streaming=True)
            with pytest.raises(ValueError, match="empty trace"):
                simulator.run(
                    trace, dispatch=dispatch, faults=_schedule_for(2),
                    fault_policy=FaultPolicy(max_retries=1),
                )
