"""The block-streamed fault loop, pinned to recorded outputs.

The fault loop reads its trace block by block and hands each block to
the report sink once every row in it is completed or shed.  Its
outputs are pinned to ``tests/data/golden_serve/fault_stream.json``,
recorded when the loop still held the whole trace and its per-request
outcome columns, over:

* real C5+C3 and 8-wide fleets;
* the native kernel, the fallback without it, and ``scan`` (all three
  must give the one recorded digest);
* a ``chunk_size`` that divides neither the trace nor a loop block;
* a seeded chaos schedule, and a schedule with a window in which every
  accelerator is down: the loop requeues every arrival there, so its
  oldest unresolved row lags the cursor by more than a block, and the
  kills at the window's onsets are shed (no retries allowed).

Each digest covers the streaming report and its monitor series, or the
exact report's columns, sheds and fault timeline.  Regenerate the file
(only when the outputs are meant to change) with::

    PYTHONPATH=src python tests/conformance/test_fault_stream.py --regenerate
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.windows import ServingMonitor
from repro.sim.chaos import FaultPolicy, FaultSchedule, chaos_schedule
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import generate_trace_soa
from repro.workloads.gemm import GemmShape

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_serve" / "fault_stream.json"

SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
    GemmShape(1024, 2048, 1024),
)
FLEETS = {
    2: (("C5", "C3"), 1000),
    8: (("C1", "C2", "C3", "C4", "C7", "C8", "C9", "I1"), 3000),
}
#: three blocks of the fault loop (8192 requests) and a partial one
REQUESTS = 3 * 8192 + 1234
#: divides neither the trace nor a block
CHUNK = 7919
SCHEDULES = ("chaos", "all-down")
ENGINES = ("native", "no-kernel", "scan")


@functools.lru_cache(maxsize=None)
def _simulator(width: int) -> ServingSimulator:
    names, _ = FLEETS[width]
    simulator = ServingSimulator(
        AcceleratorPartition([config_by_name(name) for name in names])
    )
    simulator.prewarm(SHAPES)
    return simulator


def _schedule(simulator, kind: str, horizon: float):
    names = list(simulator.partition.designs)
    if kind == "chaos":
        schedule = chaos_schedule(
            names, horizon, seed=3, device=simulator.partition.device
        )
        return schedule, FaultPolicy(max_retries=2)
    # every accelerator is down over [0.3, 0.65) of the horizon
    schedule = FaultSchedule.down(names[0], 0.25 * horizon, 0.7 * horizon)
    for name in names[1:]:
        schedule = schedule + FaultSchedule.down(name, 0.3 * horizon, 0.65 * horizon)
    schedule = schedule + FaultSchedule.down(names[-1], 0.8 * horizon, 0.82 * horizon)
    return schedule, FaultPolicy(max_retries=0)


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()[:32]


def _exact_digest(report) -> str:
    columns = {
        name: hashlib.sha256(getattr(report, name).tobytes()).hexdigest()
        for name in (
            "arrivals",
            "starts",
            "finishes",
            "accelerator_ids",
            "class_ids",
            "request_ids",
            "retries",
        )
    }
    columns["dtypes"] = [
        str(getattr(report, name).dtype)
        for name in ("accelerator_ids", "class_ids", "request_ids", "retries")
    ]
    sheds = [
        (s.request.request_id, s.request.arrival, str(s.request.shape), s.retries,
         s.reason, s.time)
        for s in report.shed
    ]
    return _digest(
        {
            "columns": columns,
            "shed": sheds,
            "timeline": report.fault_timeline,
            "summary": report.fault_summary(),
        }
    )


def serve(width: int, kind: str, engine: str, streaming: bool):
    """One faulted serve; returns ``(digest, report)``."""
    from .harness import numpy_rounds

    simulator = _simulator(width)
    _, rate = FLEETS[width]
    horizon = REQUESTS / rate
    trace = generate_trace_soa(SHAPES, REQUESTS, 1.0 / rate, seed=9)
    faults, policy = _schedule(simulator, kind, horizon)
    monitor = ServingMonitor(horizon / 25)
    context = numpy_rounds() if engine == "no-kernel" else contextlib.nullcontext()
    with context:
        report = simulator.run(
            trace,
            streaming=streaming,
            dispatch="scan" if engine == "scan" else "auto",
            chunk_size=CHUNK,
            faults=faults,
            fault_policy=policy,
            monitor=monitor,
        )
    if streaming:
        digest = _digest({"report": report.as_dict(), "monitor": monitor.as_dict()})
    else:
        digest = _digest({"report": _exact_digest(report), "monitor": monitor.as_dict()})
        # the mean's float sum rounds differently across Python versions
        # (3.12 compensates), so it is checked here, not recorded
        assert report.mean_latency() == sum(report.latencies.tolist()) / report.count
    return digest, report


def _key(width: int, kind: str, streaming: bool) -> str:
    return f"{width}-wide/{kind}/{'streaming' if streaming else 'exact'}"


@pytest.mark.parametrize("streaming", [True, False], ids=["streaming", "exact"])
@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("width", sorted(FLEETS), ids=lambda w: f"{w}-wide")
def test_fault_loop_outputs_match_golden(width, kind, streaming):
    golden = json.loads(GOLDEN.read_text())[_key(width, kind, streaming)]
    for engine in ENGINES:
        digest, report = serve(width, kind, engine, streaming)
        assert digest == golden, f"{engine} differs from the recorded outputs"
    if kind == "all-down":
        # the window's arrivals were requeued past a whole loop block,
        # and the kills at its onsets were shed
        assert report.requeues > 8192
        assert report.shed_count > 0


def _traced_peak(simulator, requests: int) -> int:
    """Peak traced bytes of generating and serving ``requests`` under
    chaos, as ``serve --streaming --faults chaos --slo`` does."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    horizon = requests * 1e-3
    trace = generate_trace_soa(SHAPES, requests, 1e-3, seed=1)
    faults, policy = _schedule(simulator, "chaos", horizon)
    monitor = ServingMonitor(horizon / 50)
    simulator.run(
        trace, streaming=True, faults=faults, fault_policy=policy, monitor=monitor
    )
    return tracemalloc.get_traced_memory()[1] - base


def test_faulted_streaming_serve_memory_does_not_grow_with_the_trace():
    simulator = _simulator(2)
    tracemalloc.start()
    try:
        _traced_peak(simulator, 20_000)  # first-use allocations
        small = _traced_peak(simulator, 200_000)
        large = _traced_peak(simulator, 2_000_000)
    finally:
        tracemalloc.stop()
    # the trace and five outcome columns of 2M requests held ~100 MB
    assert large - small < 2 * 2**20, (small, large)


def _regenerate() -> None:
    recorded = {}
    for width in sorted(FLEETS):
        for kind in SCHEDULES:
            for streaming in (True, False):
                digests = {
                    serve(width, kind, engine, streaming)[0] for engine in ENGINES
                }
                assert len(digests) == 1, "engines disagree"
                recorded[_key(width, kind, streaming)] = digests.pop()
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_fault_stream.py --regenerate")
    # run as the package module, whose serve() imports the harness
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from tests.conformance.test_fault_stream import _regenerate as regenerate

    regenerate()
