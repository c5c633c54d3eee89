"""Property-based conformance for the k-wide dispatch kernel.

Hypothesis drives random partition widths, service matrices (with
infeasible ``inf`` entries, and classes no lane can serve), initial
free clocks, and fault-segment limits (one for every lane, or one per
lane) and next-down constraints through the kernel that dispatches
fault-free blocks and batches fault segments, and checks the compiled
kernel bit for bit against its Python mirror
(:func:`repro.sim._native._dispatch_python`, which the native build
self-checks against and which runs without a compiler): the decided
prefix, rows (unservable ones included), and final free clocks must
match exactly.  Every decided row must also follow the scan's rule on
its own, so the test checks the Python kernel on a host without a
compiler too.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import _native  # noqa: E402

_FLOATS = st.floats(min_value=1e-4, max_value=2e-2, allow_nan=False)


@st.composite
def segment_cases(draw, dead_classes=False):
    width = draw(st.integers(min_value=1, max_value=8))
    classes = draw(st.integers(min_value=1, max_value=3))
    services = np.empty((width, classes), dtype=np.float64)
    for order in range(width):
        for cid in range(classes):
            if width > 1 and draw(st.booleans()) and draw(st.booleans()):
                services[order, cid] = math.inf
            else:
                services[order, cid] = draw(_FLOATS)
    # a class no lane can serve (every lane down in a fault segment)
    # only where the caller asks for one
    for cid in range(classes):
        if not np.isfinite(services[:, cid]).any() and not (
            dead_classes and draw(st.booleans())
        ):
            services[draw(st.integers(0, width - 1)), cid] = draw(_FLOATS)
    n = draw(st.integers(min_value=1, max_value=60))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=8e-3, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    times = np.cumsum(np.asarray(gaps))
    class_ids = np.asarray(
        draw(
            st.lists(
                st.integers(0, classes - 1), min_size=n, max_size=n
            )
        ),
        dtype=np.int64,
    )
    free = [draw(st.floats(min_value=0.0, max_value=5e-2)) for _ in range(width)]
    horizon = float(times[-1])
    # the fault loop only batches times strictly below the next
    # transition, and each lane's own limit lies at or past it, so the
    # generated limits always exceed every arrival (busy starts may
    # still reach them); one limit for every lane, or one per lane
    def lane_limit():
        if draw(st.booleans()):
            return math.inf
        return horizon + draw(st.floats(min_value=1e-6, max_value=0.1))

    limit = lane_limit() if draw(st.booleans()) else tuple(
        lane_limit() for _ in range(width)
    )
    next_downs = tuple(
        math.inf
        if draw(st.booleans())
        else draw(st.floats(min_value=0.0, max_value=horizon + 0.1))
        for _ in range(width)
    )
    return services, times, class_ids, free, limit, next_downs


@settings(max_examples=120, deadline=None)
@given(case=segment_cases(dead_classes=True))
def test_kwide_rounds_match_scalar_reference(case):
    services, times, class_ids, free, limit, next_downs = case
    expect_state = list(free)
    expect = _native._dispatch_python(
        times, class_ids, services, expect_state, limit, next_downs
    )
    got_state = list(free)
    got = _native.dispatch_exact(
        times, class_ids, services, got_state, limit, next_downs
    )
    assert got[0] == expect[0]
    assert [
        [repr(value) for value in column.tolist()] for column in got[1:]
    ] == [[repr(value) for value in column.tolist()] for column in expect[1:]]
    assert [repr(value) for value in got_state] == [
        repr(value) for value in expect_state
    ]
    # the scan's rule, row by row: start at the later of the arrival and
    # the winner's free clock, finish one service later, no lane
    # finishing strictly earlier (ties to the first lane); a row no
    # lane can serve changes no clock
    clocks = list(free)
    decided, accs, starts, fins = expect
    for pos, (acc, start, fin) in enumerate(
        zip(accs.tolist(), starts.tolist(), fins.tolist())
    ):
        a, cid = float(times[pos]), int(class_ids[pos])
        finishes = [
            max(a, clock) + services[lane, cid] for lane, clock in enumerate(clocks)
        ]
        if acc < 0:
            assert (start, fin) == (math.inf, math.inf)
            assert all(math.isinf(f) for f in finishes)
            continue
        assert acc == finishes.index(min(finishes))
        assert (start, fin) == (max(a, clocks[acc]), finishes[acc])
        clocks[acc] = fin
    assert clocks == expect_state
    assert decided <= len(times)
