"""Property-based invariants of the fault-injection event loop.

Hypothesis drives randomized partition widths, fault schedules, and
retry policies through both dispatch paths and checks the accounting
identities the docs promise: every offered request is either completed
or shed (never both), availability stays in ``[0, 1]``, retry counts
respect the policy budget, kills and retries balance, and runs are
deterministic.  A separate property pins the byte-identity of an empty
``FaultSchedule`` with ``faults=None`` on both paths, and another runs
the scan oracle against every fast variant on traces long enough for
the fault loop to batch segments with windows active.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim.chaos import FaultPolicy, FaultSchedule, FaultWindow  # noqa: E402
from repro.sim.serving import ServingSimulator, generate_trace  # noqa: E402
from repro.sim.streaming import generate_trace_soa  # noqa: E402

from .harness import (  # noqa: E402
    SHAPES,
    assert_engines_identical,
    dispatch_rows,
    make_partition,
    shed_rows,
)


@st.composite
def fault_scenarios(draw):
    width = draw(st.integers(min_value=1, max_value=9))
    schedule = FaultSchedule(())
    for index in range(draw(st.integers(min_value=0, max_value=width))):
        count = draw(st.integers(min_value=1, max_value=3))
        points = sorted(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=0.3),
                    min_size=2 * count,
                    max_size=2 * count,
                    unique=True,
                )
            )
        )
        for pair in range(count):
            start, end = points[2 * pair], points[2 * pair + 1]
            if draw(st.booleans()):
                schedule = schedule + FaultSchedule.down(f"acc{index}", start, end)
            else:
                factor = draw(st.floats(min_value=1.0, max_value=5.0))
                schedule = schedule + FaultSchedule.degraded(
                    f"acc{index}", start, end, factor=factor
                )
    policy = FaultPolicy(max_retries=draw(st.integers(min_value=0, max_value=4)))
    num_requests = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=99))
    return width, schedule, policy, num_requests, seed


def _run(width, schedule, policy, num_requests, seed, dispatch="auto"):
    trace = generate_trace(SHAPES, num_requests, 2e-3, seed=seed)
    simulator = ServingSimulator(make_partition(width))
    return simulator.run(
        trace, dispatch=dispatch, faults=schedule, fault_policy=policy
    )


@settings(max_examples=40, deadline=None)
@given(fault_scenarios())
def test_completed_and_shed_partition_the_offered_requests(scenario):
    width, schedule, policy, num_requests, seed = scenario
    report = _run(width, schedule, policy, num_requests, seed)
    completed_ids = {c.request.request_id for c in report.completed}
    shed_ids = {s.request.request_id for s in report.shed}
    assert not completed_ids & shed_ids
    assert completed_ids | shed_ids == set(range(num_requests))
    assert len(report.completed) + len(report.shed) == num_requests


@settings(max_examples=40, deadline=None)
@given(fault_scenarios())
def test_availability_bounds(scenario):
    width, schedule, policy, num_requests, seed = scenario
    report = _run(width, schedule, policy, num_requests, seed)
    assert 0.0 <= report.request_availability <= 1.0
    for value in report.availability().values():
        assert 0.0 <= value <= 1.0
    for name, down in report.downtime.items():
        assert down >= 0.0
        assert name in make_partition(width).designs


@settings(max_examples=40, deadline=None)
@given(fault_scenarios())
def test_retry_counts_respect_the_policy_budget(scenario):
    width, schedule, policy, num_requests, seed = scenario
    report = _run(width, schedule, policy, num_requests, seed)
    for completed in report.completed:
        assert 0 <= completed.retries <= policy.max_retries
    for shed in report.shed:
        assert 0 <= shed.retries <= policy.max_retries + 1
        assert shed.reason in ("retry_budget_exhausted", "no_feasible_accelerator")
    assert report.total_retries == report.kills


@settings(max_examples=25, deadline=None)
@given(fault_scenarios())
def test_fault_runs_are_deterministic(scenario):
    width, schedule, policy, num_requests, seed = scenario
    first = _run(width, schedule, policy, num_requests, seed)
    second = _run(width, schedule, policy, num_requests, seed)
    assert dispatch_rows(first) == dispatch_rows(second)
    assert shed_rows(first) == shed_rows(second)
    assert first.fault_summary() == second.fault_summary()


@settings(max_examples=20, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=9),
    num_requests=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=99),
)
def test_empty_schedule_is_byte_identical_on_every_engine(width, num_requests, seed):
    trace = generate_trace(SHAPES, num_requests, 2e-3, seed=seed)
    partition = make_partition(width)
    for engine in ("scan", "auto"):
        plain = ServingSimulator(partition).run(trace, dispatch=engine)
        empty = ServingSimulator(partition).run(
            trace, dispatch=engine, faults=FaultSchedule(())
        )
        assert dispatch_rows(empty) == dispatch_rows(plain)
        assert shed_rows(empty) == []
        assert empty.fault_summary() == plain.fault_summary()


def _window(draw, name, start, end):
    if draw(st.booleans()):
        return FaultWindow(name, start, end, "down")
    factor = draw(st.floats(min_value=1.0, max_value=5.0))
    return FaultWindow(name, start, end, "degraded", factor=factor)


@st.composite
def segment_scenarios(draw):
    """Traces past the fault loop's batch threshold, with random down and
    degraded windows: some overlap across accelerators, some take every
    accelerator down at once, and busy traces keep a backlog queued
    across down onsets.  Window edges are often arrival instants, so
    re-attempts requeued to a transition tie with fresh arrivals."""
    width = draw(st.integers(min_value=1, max_value=9))
    num_requests = draw(st.integers(min_value=100, max_value=3000))
    # at the fastest rate every partition up to nine wide saturates, so
    # queued executions cross the down onsets and get killed
    interarrival = draw(st.sampled_from((2.5e-4, 1e-3, 2e-3)))
    seed = draw(st.integers(min_value=0, max_value=99))
    trace = generate_trace_soa(SHAPES, num_requests, interarrival, seed=seed)
    horizon = float(trace.arrivals[-1])
    names = [f"acc{index}" for index in range(width)]

    def instant():
        if draw(st.booleans()):
            return float(trace.arrivals[draw(st.integers(0, num_requests - 1))])
        return draw(st.floats(min_value=0.0, max_value=horizon))

    def interval():
        start, end = sorted((instant(), instant()))
        return start, (end if end > start else start + 0.1 * horizon)

    windows: list[FaultWindow] = []

    def add(window):
        # an accelerator's windows may not overlap: first drawn wins
        if not any(
            w.accelerator == window.accelerator
            and w.start < window.end
            and window.start < w.end
            for w in windows
        ):
            windows.append(window)

    if draw(st.booleans()):
        # every accelerator down at once
        start, end = interval()
        for name in names:
            add(FaultWindow(name, start, end, "down"))
    if width >= 2 and draw(st.booleans()):
        # two accelerators' windows overlap
        start, end = interval()
        first, second = draw(st.permutations(names))[:2]
        add(_window(draw, first, start, end))
        add(_window(draw, second, (start + end) / 2, end + (end - start)))
    for name in names:
        points = sorted({instant() for _ in range(2 * draw(st.integers(0, 3)))})
        for start, end in zip(points[::2], points[1::2]):
            add(_window(draw, name, start, end))
    policy = FaultPolicy(max_retries=draw(st.integers(min_value=0, max_value=3)))
    return width, trace, FaultSchedule(windows), policy


@settings(max_examples=30, deadline=None)
@given(segment_scenarios())
def test_segment_batches_match_the_scan_oracle(scenario):
    width, trace, schedule, policy = scenario
    result = assert_engines_identical(
        trace, make_partition(width), faults=schedule, policy=policy
    )
    report = result["report"]
    assert len(report.completed) + len(report.shed) == len(trace)
