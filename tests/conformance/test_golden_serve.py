"""Golden outputs of exact-mode ``serve``, pinned byte for byte.

Each case runs the CLI in a fresh interpreter and compares against a
file under ``tests/data/golden_serve/``:

* ``<case>.stdout`` — the printed report (exact fault-free narrow and
  wide fleets, an exact chaos run, and the scan oracle);
* ``<case>.prom`` — the ``--metrics-out`` exposition, minus the samples
  that measure the host rather than the run (wall seconds, native
  kernel availability);
* ``<case>.sim.jsonl`` — the simulated-time events (``SIM_PID``) of
  ``--trace-out``, one JSON event per line in file order.

A 1M-request streaming serve of the benchmark scenario is pinned
in-process as well: its sketched p50/p99, float for float.

The files only change when the CLI's output is meant to change;
regenerate them from the current tree with::

    PYTHONPATH=src python tests/conformance/test_golden_serve.py --regenerate
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "data" / "golden_serve"

SHAPES = "1024x1024x1024,512x512x512,2048x1024x512,1024x2048x1024"
NARROW = "C5,C3"
WIDE = "C1,C2,C3,C4,C7,C8,C9,I1"
SLO = "p99<50ms,avail>0.999"

#: case -> serve arguments after the shape mix
CASES = {
    "exact_narrow": ["--configs", NARROW, "--requests", "2000", "--rate", "1000",
                     "--seed", "11", "--metrics-out"],
    "exact_wide": ["--configs", WIDE, "--requests", "2000", "--rate", "3000",
                   "--seed", "12", "--metrics-out"],
    "exact_chaos": ["--configs", NARROW, "--requests", "2000", "--rate", "1000",
                    "--seed", "13", "--faults", "chaos", "--fault-seed", "5",
                    "--slo", SLO, "--windows", "20", "--metrics-out"],
    "scan": ["--configs", NARROW, "--requests", "2000", "--rate", "1000",
             "--seed", "11", "--dispatch", "scan", "--metrics-out"],
    "faulted_trace": ["--configs", NARROW, "--requests", "300", "--rate", "1000",
                      "--seed", "14",
                      "--faults", "C5:down:0.05:0.15,C3:down:0.08:0.12,"
                                  "C3:slow:2.5:0.15:0.25",
                      "--max-retries", "0", "--slo", SLO, "--windows", "10",
                      "--trace-out"],
    "exact_trace": ["--configs", NARROW, "--requests", "2000", "--rate", "1000",
                    "--seed", "15", "--trace-out"],
}

#: metric samples that describe the host, not the simulated run
_HOST_METRICS = ("repro_eval_wall_seconds_total", "repro_native_available")

_SIM_PID = 2


def _strip_host_metrics(text: str) -> str:
    return "".join(
        line for line in text.splitlines(keepends=True)
        if line.split(" ", 1)[0] not in _HOST_METRICS
    )


def _sim_events(trace_text: str) -> str:
    events = json.loads(trace_text)["traceEvents"]
    return "".join(
        json.dumps(event) + "\n" for event in events if event["pid"] == _SIM_PID
    )


def run_case(name: str) -> dict[str, str]:
    """Run one case in a fresh interpreter; return its golden artifacts.

    Each case gets an empty cache directory: the pinned eval counters
    are a cold serve's, and a serve that finds the service table an
    earlier case with the same configs and shapes stored evaluates
    nothing."""
    args = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   XDG_CACHE_HOME=str(Path(tmp) / "cache"))
        out = Path(tmp) / "out"
        argv = [sys.executable, "-m", "repro.cli", "serve", SHAPES, *args, str(out)]
        result = subprocess.run(
            argv, env=env, capture_output=True, text=True, check=False
        )
        assert result.returncode == 0, result.stderr
        artifacts = {"stdout": result.stdout}
        if args[-1] == "--metrics-out":
            artifacts["prom"] = _strip_host_metrics(out.read_text())
        else:
            artifacts["sim.jsonl"] = _sim_events(out.read_text())
    return artifacts


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return request.param, run_case(request.param)


def test_outputs_match_golden(case):
    name, artifacts = case
    for suffix, text in artifacts.items():
        golden = (GOLDEN / f"{name}.{suffix}").read_text()
        assert text == golden, f"{name}.{suffix} differs from the golden file"


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
def test_completed_view_matches_columns(faulted):
    from repro.sim.chaos import FaultPolicy, FaultSchedule
    from repro.sim.serving import ServingSimulator
    from repro.sim.streaming import generate_trace_soa

    from .harness import SHAPES as MIX
    from .harness import make_partition

    trace = generate_trace_soa(MIX, 400, 2e-4, seed=21)
    faults = (
        FaultSchedule.down("acc0", 0.01, 0.03)
        + FaultSchedule.down("acc1", 0.02, 0.05)
        if faulted
        else None
    )
    report = ServingSimulator(make_partition(3)).run(
        trace, faults=faults, fault_policy=FaultPolicy(max_retries=1)
    )
    completed = report.completed
    assert len(completed) == report.count
    if faulted:
        assert report.kills > 0
    names = report.accelerator_names
    for row, item in enumerate(completed):
        assert item.request.request_id == int(report.request_ids[row])
        assert item.request.arrival == float(report.arrivals[row])
        assert item.request.shape == report.shapes[int(report.class_ids[row])]
        assert item.accelerator == names[int(report.accelerator_ids[row])]
        assert item.start == float(report.starts[row])
        assert item.finish == float(report.finishes[row])
        assert item.retries == int(report.retries[row])
    assert np.array_equal(
        [c.latency for c in completed], report.finishes - report.arrivals
    )
    assert report.completed is completed  # built once, then cached


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        for suffix, text in run_case(name).items():
            (GOLDEN / f"{name}.{suffix}").write_text(text)
            print(f"wrote {GOLDEN / f'{name}.{suffix}'}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_golden_serve.py --regenerate")
    _regenerate()


def test_streaming_benchmark_scenario_percentiles():
    """The benchmark scenario (``repro.bench.scenarios``: four-shape
    mix on C5+C3, trace seed 7) served 1M requests deep through the
    streaming ``auto`` path completes every request at these exact
    sketched percentiles, with or without the native kernel."""
    from repro.bench.scenarios import (
        MEAN_INTERARRIVAL,
        SERVING_SHAPES,
        SERVING_TRACE_SEED,
        build_partition,
    )
    from repro.sim.serving import ServingSimulator
    from repro.sim.streaming import generate_trace_soa

    requests = 1_000_000
    trace = generate_trace_soa(
        SERVING_SHAPES, requests, MEAN_INTERARRIVAL, seed=SERVING_TRACE_SEED
    )
    report = ServingSimulator(build_partition()).run(
        trace, streaming=True, dispatch="auto", quantile_error=0.01
    )
    assert report.count == requests
    assert report.latency_percentiles([50, 99]) == [
        104.59596828844717, 206.46433277162393,
    ]
