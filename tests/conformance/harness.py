"""Differential conformance harness for the serving dispatch paths.

The serving engine's core claim is that the scan oracle and the fast
path (``dispatch="auto"``: the k-wide dispatch kernel, compiled C or
without a compiler its Python mirror) — and the exact and streaming
reports — are *the same scheduler*.  This module makes that
claim a first-class, reusable assertion instead of an ad-hoc benchmark
check:

* :func:`make_partition` builds stub partitions of any width (1–16+),
  with infeasible pairs sprinkled in;
* :func:`assert_engines_identical` runs the oracle and every available
  fast-path implementation on the same seeded trace (with or without a
  fault schedule) and diffs the per-request assignments byte for byte,
  the streaming reports byte for byte, plus the exact-vs-streaming
  summaries.

Import these from any test that adds a new dispatch path or fault
semantic — if the paths can disagree, this is the function that must
catch it.
"""

from __future__ import annotations

import contextlib

from repro.sim import _native
from repro.sim.serving import ServingSimulator
from repro.workloads.gemm import GemmShape

#: the default shape mix used by the parametrized conformance tests
SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 2048, 512),
    GemmShape(256, 256, 256),
)


class StubPartition:
    """Hand-authored service times; ``ValueError`` marks infeasible pairs."""

    def __init__(self, services):
        # services: {name: {shape: seconds | None}}
        self.designs = {name: None for name in services}
        self._services = services

    def estimate_on(self, accelerator, shape):
        service = self._services[accelerator].get(shape)
        if service is None:
            raise ValueError(f"{accelerator} cannot serve {shape}")
        return service


def make_partition(width: int, shapes=SHAPES) -> StubPartition:
    """A ``width``-accelerator stub partition with varied services.

    Service times are deterministic functions of the accelerator index
    (so different widths produce genuinely different dispatch dynamics),
    and every third accelerator can't serve the second shape — except
    on one- and two-wide partitions, where each shape keeps at least
    one feasible accelerator.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    services = {}
    for index in range(width):
        per_shape = {
            shape: 0.001 * (1 + ((index + 1) * (position + 3)) % 7)
            for position, shape in enumerate(shapes)
        }
        if width > 2 and index % 3 == 0 and len(shapes) > 1:
            per_shape[shapes[1]] = None
        services[f"acc{index}"] = per_shape
    return StubPartition(services)


def dispatch_rows(report) -> list[tuple]:
    """The byte-comparable per-request assignment list of a report.

    ``repr`` of the float timestamps makes the comparison exact to the
    last bit — two engines that differ by one ULP anywhere fail.
    """
    names = report.accelerator_names
    return [
        (request_id, names[acc], repr(start), repr(finish), retries)
        for request_id, acc, start, finish, retries in zip(
            report.request_ids.tolist(),
            report.accelerator_ids.tolist(),
            report.starts.tolist(),
            report.finishes.tolist(),
            report.retries.tolist(),
        )
    ]


def shed_rows(report) -> list[tuple]:
    return [
        (s.request_id, s.retries, s.reason, repr(s.time))
        for s in report.shed
    ]


@contextlib.contextmanager
def python_kernel():
    """Run ``auto`` on the kernel's Python mirror inside this block, as
    a host without a C compiler does."""
    saved = _native.dispatch_exact
    _native.dispatch_exact = _native._dispatch_python
    try:
        yield
    finally:
        _native.dispatch_exact = saved


def fast_variants() -> list:
    """``(label, context)`` per fast-path implementation this process has.

    With the native kernel compiled, ``auto`` runs it and the Python
    kernel is forced as a second variant; under ``REPRO_NO_NATIVE=1``
    ``auto`` already *is* the Python kernel.
    """
    variants = [("auto", contextlib.nullcontext)]
    if _native.native_available():
        variants.append(("auto-python", python_kernel))
    return variants


def assert_engines_identical(
    trace,
    partition,
    faults=None,
    policy=None,
    quantile_error: float = 0.01,
) -> dict:
    """Assert the scan oracle, the fast path and both report kinds agree.

    Runs each path on a **fresh** simulator (no shared scheduler state),
    diffs the fast path's per-request assignment and shed lists and its
    streaming report against the oracle's byte for byte, then checks the
    streaming report against the exact one: makespan, count, and loads
    exactly; the mean to float tolerance; percentiles within twice the
    sketch's documented bound.
    Returns the exact oracle report's rows for further assertions.
    """
    base = ServingSimulator(partition).run(
        trace, dispatch="scan", faults=faults, fault_policy=policy
    )
    base_rows = dispatch_rows(base)
    base_shed = shed_rows(base)
    base_stream = ServingSimulator(partition).run(
        trace,
        dispatch="scan",
        streaming=True,
        quantile_error=quantile_error,
        faults=faults,
        fault_policy=policy,
    )
    streams = []
    for label, context in fast_variants():
        with context():
            fast = ServingSimulator(partition).run(
                trace, faults=faults, fault_policy=policy
            )
            streams.append(
                ServingSimulator(partition).run(
                    trace,
                    streaming=True,
                    quantile_error=quantile_error,
                    faults=faults,
                    fault_policy=policy,
                )
            )
        assert dispatch_rows(fast) == base_rows, f"{label} dispatch differs from scan"
        assert shed_rows(fast) == base_shed, (
            f"{label} shed accounting differs from scan"
        )
        assert fast.fault_summary() == base.fault_summary(), (
            f"{label} fault summary differs from scan"
        )
    for stream in streams:
        assert stream.as_dict() == base_stream.as_dict(), (
            "streaming report differs from the scan oracle's"
        )

    stream = streams[0]
    assert stream.count == base.count
    assert stream.makespan == base.makespan
    assert stream.accelerator_load() == base.accelerator_load()
    assert stream.fault_summary() == base.fault_summary()
    if base.count:
        exact_mean = base.mean_latency()
        assert abs(stream.mean_latency() - exact_mean) <= 1e-12 * max(
            1.0, abs(exact_mean)
        )
        bound = 2 * quantile_error
        for percentile in (50, 95, 99):
            exact_value = base.latency_percentile(percentile)
            sketched = stream.latency_percentile(percentile)
            assert abs(sketched - exact_value) <= bound * exact_value, (
                f"p{percentile} outside the sketch bound"
            )
    return {"rows": base_rows, "shed": base_shed, "report": base}
