"""Conformance for the dispatch kernel behind ``dispatch="auto"``.

The parametrized width tests in ``test_dispatch_identity`` already run
the fast path through :func:`harness.assert_engines_identical`; this
module covers the kernel's own seams: chunk-boundary stress, the
compiled-vs-Python split (the C loop and its Python mirror must be the
*same scheduler*), the kernel's fault-segment cut conditions at
``limit`` / next-down boundaries, and NaN rejection.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.sim import _native
from repro.sim.chaos import FaultPolicy, FaultSchedule
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import generate_trace_soa

from .harness import (
    SHAPES,
    StubPartition,
    assert_engines_identical,
    dispatch_rows,
    fast_variants,
    make_partition,
)


def _trace(num_requests=300, mean_interarrival=1e-3, seed=19):
    return generate_trace_soa(SHAPES, num_requests, mean_interarrival, seed=seed)


@pytest.fixture
def no_native(monkeypatch):
    """Force the Python kernel inside this process."""
    monkeypatch.setattr(_native, "dispatch_exact", _native._dispatch_python)


@pytest.mark.parametrize("width", [1, 2, 8])
@pytest.mark.parametrize("chunk_size", [7, 64, 65536])
def test_small_chunk_identity(width, chunk_size):
    """Flush boundaries must not leak into results at any chunk size."""
    partition = make_partition(width)
    trace = _trace()
    base = ServingSimulator(partition).run(
        trace, dispatch="scan", chunk_size=chunk_size
    )
    streams = []
    for _, context in fast_variants():
        with context():
            fast = ServingSimulator(partition).run(trace, chunk_size=chunk_size)
            streams.append(
                ServingSimulator(partition).run(
                    trace, streaming=True, chunk_size=chunk_size
                )
            )
        assert dispatch_rows(fast) == dispatch_rows(base)
    # every implementation flushes the streaming report in the same
    # chunk_size blocks, so the float sums agree bit for bit
    assert all(s.as_dict() == streams[0].as_dict() for s in streams[1:])


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
def test_numpy_fallback_identical(no_native, width):
    """The Python kernel must match scan without the C loop, fault-free
    and batching through a fault window."""
    assert_engines_identical(_trace(), make_partition(width))
    assert_engines_identical(
        _trace(),
        make_partition(width),
        faults=FaultSchedule.down("acc0", 0.02, 0.06),
        policy=FaultPolicy(max_retries=2),
    )


def _wide_services(width: int) -> np.ndarray:
    """A ``(width, 3)`` service matrix with varied rows and, above two
    lanes, a sprinkling of ``inf`` (infeasible) entries."""
    services = np.empty((width, 3), dtype=np.float64)
    for index in range(width):
        for position in range(3):
            services[index, position] = 0.001 * (
                1 + ((index + 1) * (position + 3)) % 7
            )
    if width > 2:
        for index in range(0, width, 3):
            services[index, 1] = math.inf
    return services


@pytest.mark.parametrize("width", [2, 3, 5, 8])
def test_native_and_fallback_agree(width):
    """C loop vs its Python mirror on one segment.

    Runs the k-wide kernel against :func:`_native._dispatch_python` (the
    mirror the native build self-checks against, and the kernel itself
    without a compiler) at widths crossing the old two-accelerator
    native cap, including service matrices with infeasible (``inf``)
    entries and fault-segment ``limit`` / next-down cuts: accepted
    counts, per-request rows, and the final free clocks must all be
    bit-equal.
    """
    soa = generate_trace_soa(SHAPES, 4000, 4e-4, seed=5)
    services = _wide_services(width)
    for limit, next_downs in [
        (math.inf, (math.inf,) * width),
        (float(soa.arrivals[2500]), (math.inf,) * width),
        (math.inf, (float(soa.arrivals[1200]) + 0.5,) + (math.inf,) * (width - 1)),
        (
            float(soa.arrivals[3000]),
            tuple(0.9 + 0.1 * order for order in range(width)),
        ),
    ]:
        free_native = [0.0] * width
        got = _native.dispatch_exact(
            soa.arrivals, soa.shape_ids, services, free_native, limit, next_downs
        )
        free_ref = [0.0] * width
        expect = _native._dispatch_python(
            soa.arrivals, soa.shape_ids, services, free_ref, limit, next_downs
        )
        assert got[0] == expect[0]
        assert [
            [repr(value) for value in column.tolist()] for column in got[1:]
        ] == [[repr(value) for value in column.tolist()] for column in expect[1:]]
        assert [repr(f) for f in free_native] == [repr(f) for f in free_ref]


def test_repro_no_native_env_forces_fallback():
    """``REPRO_NO_NATIVE=1`` must disable the C kernel at import and
    leave the Python kernel in its place."""
    env = dict(os.environ, REPRO_NO_NATIVE="1")
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    code = (
        "from repro.sim._native import NATIVE_AVAILABLE, dispatch_exact\n"
        "from repro.sim._native import _dispatch_python, native_available\n"
        "assert dispatch_exact is _dispatch_python\n"
        "assert NATIVE_AVAILABLE is False\n"
        "assert native_available() is False\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def test_native_available_tracks_monkeypatch(no_native):
    """``native_available()`` reads the module state dynamically, so the
    ``--stats`` native flag sees the same view the tests force."""
    assert _native.native_available() is False


def test_nan_service_raises_for_explicit_vectorized():
    """A NaN service entry must fail loudly on every fast-path run,
    naming the culprit — fault-free and faulted, exact and streaming.

    The NaN sits on the *first* lane: a NaN finish there never loses a
    strict-less comparison in lane order, so a fast path that skipped
    the check would silently disagree with the scan oracle.
    """
    partition = StubPartition(
        {
            "broken": {
                SHAPES[0]: float("nan"),
                SHAPES[1]: 0.003,
                SHAPES[2]: 0.004,
            },
            "good": {shape: 0.002 for shape in SHAPES},
        }
    )
    trace = _trace(num_requests=50)
    faults = FaultSchedule.down("good", 0.01, 0.02)
    for _, context in fast_variants():
        with context():
            for kwargs in ({}, {"streaming": True}, {"faults": faults}):
                with pytest.raises(ValueError, match="'broken'.*NaN"):
                    ServingSimulator(partition).run(
                        trace, dispatch="auto", **kwargs
                    )


@pytest.mark.parametrize("width", [3, 8])
def test_explicit_vectorized_legal_at_any_width(no_native, width):
    """Without a compiler ``auto`` still runs the kernel on wide fleets
    — the Python kernel at every width — and matches scan."""
    partition = make_partition(width)
    trace = _trace()
    base = ServingSimulator(partition).run(trace, dispatch="scan")
    vec = ServingSimulator(partition).run(trace, dispatch="auto")
    assert dispatch_rows(vec) == dispatch_rows(base)

