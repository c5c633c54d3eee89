"""Property-based conformance for the native k-wide kernel.

Hypothesis drives random partition widths, service matrices (with
infeasible ``inf`` entries), initial free clocks, and fault-segment
``limit``/next-down constraints through the kernel that batches fault
segments, and checks the result bit for bit against the pure-Python
exact reference loop (:func:`repro.sim._native._reference_dispatch` —
the same mirror the native build self-checks against): the accepted
prefix, rows, and final free clocks must match exactly.  Without a C
compiler there is no kernel to check, and the test skips.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import dispatch_batch  # noqa: E402
from repro.sim._native import _reference_dispatch  # noqa: E402

_FLOATS = st.floats(min_value=1e-4, max_value=2e-2, allow_nan=False)


@st.composite
def segment_cases(draw):
    width = draw(st.integers(min_value=1, max_value=8))
    classes = draw(st.integers(min_value=1, max_value=3))
    services = np.empty((width, classes), dtype=np.float64)
    for order in range(width):
        for cid in range(classes):
            if width > 1 and draw(st.booleans()) and draw(st.booleans()):
                services[order, cid] = math.inf
            else:
                services[order, cid] = draw(_FLOATS)
    for cid in range(classes):
        if not np.isfinite(services[:, cid]).any():
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
    # the fault loop only batches times strictly below ``limit``, so the
    # generated limit always exceeds every arrival (busy starts may
    # still reach it)
    if draw(st.booleans()):
        limit = math.inf
    else:
        limit = horizon + draw(st.floats(min_value=1e-6, max_value=0.1))
    next_downs = tuple(
        math.inf
        if draw(st.booleans())
        else draw(st.floats(min_value=0.0, max_value=horizon + 0.1))
        for _ in range(width)
    )
    return services, times, class_ids, free, limit, next_downs


@pytest.mark.skipif(
    not dispatch_batch.native_available(), reason="no C compiler available"
)
@settings(max_examples=120, deadline=None)
@given(case=segment_cases())
def test_kwide_rounds_match_scalar_reference(case):
    services, times, class_ids, free, limit, next_downs = case
    ref_state = list(free)
    expect = _reference_dispatch(
        times.tolist(),
        class_ids.tolist(),
        services.tolist(),
        ref_state,
        limit,
        next_downs,
    )
    expect_rows = [
        (pos, acc, repr(start), repr(fin))
        for pos, (acc, start, fin) in enumerate(expect)
    ]

    free_native = list(free)
    accepted, accs, starts, fins = dispatch_batch._native_dispatch(
        times, class_ids, services, free_native, limit, next_downs
    )
    assert accepted == len(expect)
    assert [
        (pos, int(acc), repr(start), repr(fin))
        for pos, (acc, start, fin) in enumerate(
            zip(accs.tolist(), starts.tolist(), fins.tolist())
        )
    ] == expect_rows
    assert [repr(value) for value in free_native] == [
        repr(value) for value in ref_state
    ]


@settings(max_examples=120, deadline=None)
@given(case=segment_cases(), block=st.integers(min_value=1, max_value=64))
def test_numpy_rounds_match_scalar_reference(case, block):
    """The fault-free NumPy rounds against the same reference, with no
    segment constraints: every row dispatches, bit for bit, whatever
    blocks the trace arrives in (the rounds carry their state across
    them)."""
    services, times, class_ids, free, _, _ = case
    ref_state = list(free)
    expect = _reference_dispatch(
        times.tolist(),
        class_ids.tolist(),
        services.tolist(),
        ref_state,
        math.inf,
        (math.inf,) * len(free),
    )
    rows = []

    def flush(base, arrivals, accs, starts, fins):
        assert arrivals.tolist() == times[base : base + len(accs)].tolist()
        rows.extend(
            (base + off, int(acc), repr(start), repr(fin))
            for off, (acc, start, fin) in enumerate(
                zip(accs.tolist(), starts.tolist(), fins.tolist())
            )
        )

    saved = dispatch_batch._native_dispatch
    dispatch_batch._native_dispatch = None
    free_py = list(free)
    try:
        dispatch_batch.dispatch_vectorized(
            [
                (lo, times[lo : lo + block], class_ids[lo : lo + block])
                for lo in range(0, len(times), block)
            ],
            services,
            free_py,
            flush,
            chunk_size=16,
        )
    finally:
        dispatch_batch._native_dispatch = saved
    assert len(expect) == len(times)
    assert rows == [
        (pos, acc, repr(start), repr(fin))
        for pos, (acc, start, fin) in enumerate(expect)
    ]
    assert [repr(value) for value in free_py] == [
        repr(value) for value in ref_state
    ]
