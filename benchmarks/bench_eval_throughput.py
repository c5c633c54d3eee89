"""Evaluation-engine throughput: serial vs. cached DSE.

Measures evaluations/second over a fixed DSE candidate set in two
modes and appends the result to a ``BENCH_eval.json`` trajectory so the
engine's throughput is tracked across commits:

* ``serial``     — the seed path: every candidate re-derived from
  scratch (``NULL_CACHE``).
* ``cached``     — the memoization layer enabled.

The engine's contract is a declarative gate list judged by
:mod:`repro.bench.regression`: every mode sustains at least
``EVALS_PER_SEC_FLOOR`` evaluations/s (``SMOKE_EVALS_PER_SEC_FLOOR`` on
the ``--smoke`` set), about what the since-retired NumPy batch mode
reached while the tile planner still searched all 16x16x16 multiples,
and the top-10 rankings are byte-identical between the serial and
cached runs.  Absolute floors, not speedup ratios: the serial mode is
the ratios' denominator, and it is now nearly as fast as the others.
Each mode is timed over ``ROUNDS`` rounds and keeps its fastest, and each
trajectory entry records the floor it was judged against.

Run directly (``python benchmarks/bench_eval_throughput.py``) or let CI
invoke the ``--smoke`` variant; ``test_eval_throughput_smoke`` keeps it
alive under pytest as well.  ``versal-gemm bench eval`` drives the same
measurement through the repeated-run statistical harness
(docs/benchmarking.md).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from repro.bench.regression import Gate, check_entry, failure_messages
from repro.bench.scenarios import EVAL_WORKLOAD, ranking_bytes
from repro.bench.trajectory import append_trajectory
from repro.core.dse import DesignSpaceExplorer, DseResult
from repro.kernels.precision import Precision
from repro.perf.cache import EvalCache, NullCache
from repro.workloads.gemm import GemmShape

DEFAULT_WORKLOAD = EVAL_WORKLOAD
#: evaluations/s every mode must reach.  Under the 16x16x16 tile
#: planner the retired NumPy batch mode ran, on a 2-CPU x86-64 host, 3.4-3.7k on
#: the smoke set (best of 5 rounds) and 4.4-5.8k on the full set (one
#: round, median 4.8k; 7.4-7.8k best of 5, which the serial mode does
#: not reach)
EVALS_PER_SEC_FLOOR = 5000.0
SMOKE_EVALS_PER_SEC_FLOOR = 3800.0
#: timed rounds per mode; each mode reports its fastest
ROUNDS = 5


def gates(floor: float) -> tuple[Gate, ...]:
    """The engine's contract, declaratively (judged by check_entry)."""
    return (
        Gate(metric="rankings_identical", kind="flag",
             label="serial and cached top-10 rankings differ"),
        Gate(metric="modes.*.evals_per_sec", kind="floor", value=floor),
    )


def _explorer(max_aies: int, cache: EvalCache) -> DesignSpaceExplorer:
    return DesignSpaceExplorer(
        Precision.FP32,
        max_aies=max_aies,
        explore_ports=True,
        cache=cache,
    )


def _time_mode(
    explorer: DesignSpaceExplorer, workload: GemmShape, repeats: int
) -> tuple[float, DseResult]:
    start = time.perf_counter()
    result = explorer.explore(workload)
    for _ in range(repeats - 1):
        result = explorer.explore(workload)
    return time.perf_counter() - start, result


def run_benchmark(
    workload: GemmShape = DEFAULT_WORKLOAD,
    max_aies: int = 128,
    repeats: int = 3,
    floor: float = EVALS_PER_SEC_FLOOR,
) -> dict:
    num_candidates = len(_explorer(max_aies, NullCache()).candidates())
    evaluations = num_candidates * repeats

    settings = {"serial": NullCache, "cached": EvalCache}
    modes = dict.fromkeys(settings, math.inf)
    results = {}
    # every round times each mode on a fresh explorer (cold cache), and
    # a mode keeps its fastest round: a slow slice of a shared host then
    # costs one sample instead of a whole mode
    for _ in range(ROUNDS):
        for name, cache in settings.items():
            seconds, results[name] = _time_mode(
                _explorer(max_aies, cache()), workload, repeats
            )
            modes[name] = min(modes[name], seconds)
    return {
        "timestamp": time.time(),
        "workload": str(workload),
        "candidates": num_candidates,
        "repeats": repeats,
        "rounds": ROUNDS,
        "modes": {
            name: {
                "seconds": seconds,
                "evals_per_sec": evaluations / seconds if seconds else 0.0,
            }
            for name, seconds in modes.items()
        },
        "speedup_cached": modes["serial"] / modes["cached"],
        "rankings_identical": ranking_bytes(results["serial"])
        == ranking_bytes(results["cached"]),
        "floors": {"evals_per_sec": floor},
    }


def check(entry: dict) -> list[str]:
    """The engine's contract; empty list means the run is acceptable."""
    floor = entry["floors"]["evals_per_sec"]
    return failure_messages(check_entry(entry, gates(floor)))


def test_eval_throughput_smoke():
    """Tier-2 smoke: small candidate set, full contract still holds."""
    entry = run_benchmark(
        max_aies=64, repeats=3, floor=SMOKE_EVALS_PER_SEC_FLOOR
    )
    assert check(entry) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="1024x1024x1024", help="MxKxN")
    parser.add_argument("--max-aies", type=int, default=128)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", "-o", default="BENCH_eval.json")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small candidate set for CI (max_aies=64)",
    )
    args = parser.parse_args(argv)

    entry = run_benchmark(
        workload=GemmShape.parse(args.workload),
        max_aies=64 if args.smoke else args.max_aies,
        repeats=args.repeats,
        floor=SMOKE_EVALS_PER_SEC_FLOOR if args.smoke else EVALS_PER_SEC_FLOOR,
    )
    append_trajectory(entry, Path(args.output))

    print(f"workload {entry['workload']}  candidates {entry['candidates']}  "
          f"repeats {entry['repeats']}")
    for name, mode in entry["modes"].items():
        print(f"{name:>9}: {mode['seconds'] * 1e3:8.1f} ms  "
              f"{mode['evals_per_sec']:8.1f} evals/s")
    print(f"speedup (cached):   {entry['speedup_cached']:.2f}x")
    print(f"rankings identical: {entry['rankings_identical']}")
    print(f"trajectory -> {args.output}")

    failures = check(entry)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
