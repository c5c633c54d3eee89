"""``dispatch_segment`` on fault-segment service matrices.

Inside a fault segment a down accelerator is an ``inf`` column, so a
shape class whose every feasible accelerator is down has no finite
service at all.  Such a row belongs to the scalar fault loop (it
requeues to the next transition); both engines must stop before it
instead of committing lane 0 with an infinite finish.
"""

import math

import numpy as np
import pytest

from repro.sim import dispatch_batch

INF = math.inf

#: three lanes, three classes: lane 1 is down (an inf column), class 2
#: is served only by lane 1, so its rows have no finite service
SERVICES = np.array(
    [
        [0.003, 0.002, INF],
        [INF, INF, INF],
        [0.004, 0.001, INF],
    ]
)
TIMES = np.array([0.0, 0.001, 0.002, 0.0025, 0.004, 0.005])
CLASSES = np.array([0, 1, 0, 1, 2, 0], dtype=np.int64)
DEAD_ROW = 4


def _engines():
    engines = [pytest.param(False, id="numpy")]
    if dispatch_batch.native_available():
        engines.insert(0, pytest.param(True, id="native"))
    return engines


def _dispatch(native, times, classes, services, free, limit=INF):
    saved = dispatch_batch._native_dispatch
    if not native:
        dispatch_batch._native_dispatch = None
    try:
        return dispatch_batch.dispatch_segment(
            times, classes, services, free, limit, (INF,) * services.shape[0]
        )
    finally:
        dispatch_batch._native_dispatch = saved


def _rows(runs):
    return [
        (base + off, acc, start, fin)
        for base, accs, starts, fins in runs
        for off, (acc, start, fin) in enumerate(
            zip(accs.tolist(), starts.tolist(), fins.tolist())
        )
    ]


@pytest.mark.parametrize("native", _engines())
def test_stops_before_a_row_no_lane_can_serve(native):
    free = [0.0, 0.0, 0.0]
    accepted, runs = _dispatch(native, TIMES, CLASSES, SERVICES, free)
    assert accepted == DEAD_ROW
    rows = _rows(runs)
    assert [row[0] for row in rows] == list(range(DEAD_ROW))
    assert all(math.isfinite(row[3]) for row in rows)
    # the down lane is never chosen, and the clocks reflect only the
    # committed prefix
    assert {row[1] for row in rows} <= {0, 2}
    assert free[1] == 0.0
    assert max(free) == max(row[3] for row in rows)


@pytest.mark.parametrize("native", _engines())
def test_dead_first_row_commits_nothing(native):
    free = [0.0, 0.0, 0.0]
    accepted, runs = _dispatch(
        native, TIMES[DEAD_ROW:], CLASSES[DEAD_ROW:], SERVICES, free
    )
    assert accepted == 0
    assert runs == []
    assert free == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("native", _engines())
def test_down_column_alone_does_not_stop_the_batch(native):
    """Rows with one finite lane left dispatch through the segment."""
    live = CLASSES != 2
    free = [0.0, 0.0, 0.0]
    accepted, runs = _dispatch(native, TIMES[live], CLASSES[live], SERVICES, free)
    assert accepted == int(live.sum())
    assert {row[1] for row in _rows(runs)} <= {0, 2}

