"""The native kernel on fault-segment service matrices.

Inside a fault segment a down accelerator is an ``inf`` column, so a
shape class whose every feasible accelerator is down has no finite
service at all.  Such a row belongs to the scalar fault loop (it
requeues to the next transition); the kernel, the only engine that
batches fault segments, must stop before it instead of committing
lane 0 with an infinite finish.
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


#: the one engine that batches fault segments (the parametrize id keeps
#: each test's name); skipped without a C compiler
ENGINES = [
    pytest.param(
        "native",
        id="native",
        marks=pytest.mark.skipif(
            not dispatch_batch.native_available(), reason="no C compiler available"
        ),
    )
]


def _dispatch(times, classes, services, free):
    """``(accepted, rows)``: the kernel's verified prefix as
    ``(position, acc, start, finish)`` rows."""
    accepted, accs, starts, fins = dispatch_batch._native_dispatch(
        times, classes, services, free, INF, (INF,) * services.shape[0]
    )
    rows = list(zip(range(accepted), accs.tolist(), starts.tolist(), fins.tolist()))
    return accepted, rows


@pytest.mark.parametrize("engine", ENGINES)
def test_stops_before_a_row_no_lane_can_serve(engine):
    free = [0.0, 0.0, 0.0]
    accepted, rows = _dispatch(TIMES, CLASSES, SERVICES, free)
    assert accepted == DEAD_ROW
    assert [row[0] for row in rows] == list(range(DEAD_ROW))
    assert all(math.isfinite(row[3]) for row in rows)
    # the down lane is never chosen, and the clocks reflect only the
    # committed prefix
    assert {row[1] for row in rows} <= {0, 2}
    assert free[1] == 0.0
    assert max(free) == max(row[3] for row in rows)


@pytest.mark.parametrize("engine", ENGINES)
def test_dead_first_row_commits_nothing(engine):
    free = [0.0, 0.0, 0.0]
    accepted, rows = _dispatch(
        TIMES[DEAD_ROW:], CLASSES[DEAD_ROW:], SERVICES, free
    )
    assert accepted == 0
    assert rows == []
    assert free == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("engine", ENGINES)
def test_down_column_alone_does_not_stop_the_batch(engine):
    """Rows with one finite lane left dispatch through the segment."""
    live = CLASSES != 2
    free = [0.0, 0.0, 0.0]
    accepted, rows = _dispatch(TIMES[live], CLASSES[live], SERVICES, free)
    assert accepted == int(live.sum())
    assert {row[1] for row in rows} <= {0, 2}

