"""The dispatch kernel on fault-segment service matrices.

Inside a fault segment a down accelerator is an ``inf`` column, so a
shape class whose every feasible accelerator is down has no finite
service at all.  The kernel, compiled or Python, decides such a row as unservable (accelerator ``-1``) without
touching a clock and goes on, so the fault loop can requeue it in bulk;
it must never commit lane 0 with an infinite finish.  Each lane is cut
at its own segment end: a row stops the batch only when its start on
some lane reaches that lane's limit.
"""

import math

import numpy as np
import pytest

from repro.sim import _native

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


#: ``native`` is :data:`~repro.sim._native.dispatch_exact`, whichever
#: kernel this host has; where that is the compiled one, ``python``
#: forces its Python mirror as well (the ``native`` id keeps each test's
#: name)
ENGINES = [pytest.param(_native.dispatch_exact, id="native")]
if _native.native_available():
    ENGINES.append(pytest.param(_native._dispatch_python, id="python"))


def _dispatch(engine, times, classes, services, free, limits=INF):
    """``(decided, rows)``: the kernel's decided prefix as
    ``(position, acc, start, finish)`` rows."""
    decided, accs, starts, fins = engine(
        times, classes, services, free, limits, (INF,) * services.shape[0]
    )
    rows = list(zip(range(decided), accs.tolist(), starts.tolist(), fins.tolist()))
    return decided, rows


@pytest.mark.parametrize("engine", ENGINES)
def test_marks_a_row_no_lane_can_serve_and_goes_on(engine):
    free = [0.0, 0.0, 0.0]
    decided, rows = _dispatch(engine, TIMES, CLASSES, SERVICES, free)
    assert decided == len(TIMES)
    dead = rows[DEAD_ROW]
    assert dead == (DEAD_ROW, -1, INF, INF)
    live = rows[:DEAD_ROW] + rows[DEAD_ROW + 1 :]
    assert all(math.isfinite(row[3]) for row in live)
    # the down lane is never chosen, and the clocks reflect only the
    # committed rows
    assert {row[1] for row in live} <= {0, 2}
    assert free[1] == 0.0
    assert max(free) == max(row[3] for row in live)


@pytest.mark.parametrize("engine", ENGINES)
def test_dead_first_row_commits_nothing(engine):
    free = [0.0, 0.0, 0.0]
    dead = slice(DEAD_ROW, DEAD_ROW + 1)
    decided, rows = _dispatch(engine, TIMES[dead], CLASSES[dead], SERVICES, free)
    assert decided == 1
    assert rows == [(0, -1, INF, INF)]
    assert free == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("engine", ENGINES)
def test_down_column_alone_does_not_stop_the_batch(engine):
    """Rows with one finite lane left dispatch through the segment."""
    live = CLASSES != 2
    free = [0.0, 0.0, 0.0]
    decided, rows = _dispatch(engine, TIMES[live], CLASSES[live], SERVICES, free)
    assert decided == int(live.sum())
    assert {row[1] for row in rows} <= {0, 2}


@pytest.mark.parametrize("engine", ENGINES)
def test_each_lane_is_cut_at_its_own_limit(engine):
    """A lane whose backlog starts past another lane's limit stays in
    the batch; the batch stops only at a row whose start on some lane
    reaches that lane's own limit."""
    services = np.array([[0.003, 0.002], [0.004, 0.001]])
    times = np.array([0.0, 0.0005, 0.001, 0.0015, 0.002])
    classes = np.zeros(times.size, dtype=np.int64)
    # lane 1 is busy until 0.05, far past lane 0's limit of 0.0025
    limits = (0.0025, INF)
    free = [0.0, 0.05]
    decided, rows = _dispatch(engine, times, classes, services, free, limits)
    assert decided == 1  # the second row starts lane 0 at 0.003
    assert rows == [(0, 0, 0.0, 0.003)]
    # the same rows against one limit for both lanes stop at once:
    # lane 1's start of 0.05 reaches it
    free = [0.0, 0.05]
    assert _dispatch(engine, times, classes, services, free, 0.0025) == (0, [])
    assert free == [0.0, 0.05]
