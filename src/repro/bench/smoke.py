"""The ``versal-gemm bench --smoke`` specs: CI's statistical gate.

Five seeded repeats of the eval-throughput and serving measurements,
summarized with confidence intervals and judged by declarative gates
against the committed ``BENCH_eval.json`` / ``BENCH_serving.json``
baselines:

* the serving spec pins the committed scenario (the BENCH_serving
  request mix, partition, offered load, and trace seed 7 on the
  vectorized engine), so its simulated ``p50``/``p99`` are
  machine-independent constants — any drift beyond the tolerance is a
  real behaviour change, and an injected slowdown (``--noise``) trips
  the detector deterministically;
* the eval spec measures DSE engine throughput (wall-clock), so its
  gates are per-leg evaluations/s floors (best-of-N against scheduler
  noise) plus the ranking identity of the two legs.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.bench.experiments import EvalThroughputExperiment, ServingExperiment
from repro.bench.noise import NoiseModel
from repro.bench.regression import (
    BaselineError,
    Gate,
    Verdict,
    check_result,
    exit_code,
    load_baseline,
)
from repro.bench.runner import run_bench, write_csv, write_json

SMOKE_REPEATS = 5
#: relative band around the deterministic simulated p50/p99 baselines
SERVING_TOLERANCE = 0.05
#: per-leg DSE throughput floor of the smoke eval spec (best-of-N),
#: evaluations/s: every leg, serial included, must beat what the retired
#: NumPy batch leg reached under the 16x16x16 tile planner (at most 2.3k
#: here and 3.7k on bench_eval_throughput's smoke set, 2-CPU x86-64 host)
EVAL_EVALS_PER_SEC_FLOOR = 3800.0
EVAL_LEGS = ("serial", "cached")


def serving_smoke_experiment(num_requests: int = 1_000_000) -> ServingExperiment:
    """The committed BENCH_serving scenario, trace pinned to seed 7."""
    return ServingExperiment(
        num_requests=num_requests,
        dispatch="auto",
        streaming=True,
        vary_trace=False,
    )


def serving_baseline_gates(tolerance: float = SERVING_TOLERANCE) -> list[Gate]:
    """Gates comparing a serving result to a BENCH_serving.json entry."""
    return [
        Gate(
            metric="p50", kind="baseline", direction="lower",
            tolerance=tolerance, aggregate="median",
            baseline_metric="modes.vectorized.p50", require_baseline=True,
        ),
        Gate(
            metric="p99", kind="baseline", direction="lower",
            tolerance=tolerance, aggregate="median",
            baseline_metric="modes.vectorized.p99", require_baseline=True,
        ),
        Gate(metric="completed_fraction", kind="floor", value=1.0, aggregate="min"),
    ]


def eval_smoke_experiment() -> EvalThroughputExperiment:
    return EvalThroughputExperiment(max_aies=48, inner_repeats=3)


def eval_smoke_gates() -> list[Gate]:
    """Ranking identity + a throughput floor per engine leg."""
    return [
        Gate(metric="rankings_identical", kind="flag",
             label="serial and cached rankings differ"),
    ] + [
        Gate(metric=f"{leg}_evals_per_sec", kind="floor",
             value=EVAL_EVALS_PER_SEC_FLOOR, aggregate="max")
        for leg in EVAL_LEGS
    ]


def _print_verdicts(name: str, verdicts: list[Verdict]) -> None:
    for verdict in verdicts:
        line = (
            f"{name}: [{verdict.status}] {verdict.metric}"
            + (f" = {verdict.observed:g}" if verdict.observed is not None else "")
            + (f" (ref {verdict.reference:g})" if verdict.reference is not None else "")
        )
        print(line, file=sys.stderr if verdict.failed else sys.stdout)


def run_smoke(
    out_dir: Path | str = ".",
    repeats: int = SMOKE_REPEATS,
    seed: int = 7,
    noise: list[NoiseModel] | None = None,
    serving_baseline: Path | str = "BENCH_serving.json",
    eval_baseline: Path | str = "BENCH_eval.json",
    serving_requests: int = 1_000_000,
) -> int:
    """Run both smoke specs, write artifacts, return the exit code.

    ``noise`` exists for slowdown-injection drills: with noise active
    the simulated serving percentiles inflate and the baseline gates
    must report a regression (that path is itself CI-tested).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts: list[Verdict] = []

    try:
        serving_base = load_baseline(serving_baseline)
        eval_base = load_baseline(eval_baseline)
    except BaselineError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1

    serving = run_bench(
        serving_smoke_experiment(serving_requests),
        repeats=repeats, seed=seed, noise=noise,
    )
    write_csv(serving, out_dir / "bench_smoke_serving.csv")
    write_json(serving, out_dir / "bench_smoke_serving.json")
    p50, wall = serving.metric("p50"), serving.metric("wall_seconds")
    print(
        f"serving: {repeats} repeats  p50 {p50.median:.4f}s  "
        f"wall {wall.mean:.3f}s [{wall.ci_low:.3f}, {wall.ci_high:.3f}] "
        f"@ {serving.confidence:.0%}"
    )
    serving_verdicts = check_result(
        serving, serving_baseline_gates(), serving_base
    )
    _print_verdicts("serving", serving_verdicts)
    verdicts.extend(serving_verdicts)

    # the eval spec is wall-clock only; injected noise does not apply
    evaluation = run_bench(eval_smoke_experiment(), repeats=repeats, seed=seed)
    write_csv(evaluation, out_dir / "bench_smoke_eval.csv")
    write_json(evaluation, out_dir / "bench_smoke_eval.json")
    print(f"eval: {repeats} repeats  best evals/s " + "  ".join(
        f"{leg} {evaluation.metric(f'{leg}_evals_per_sec').max:.0f}"
        for leg in EVAL_LEGS
    ))
    eval_verdicts = check_result(evaluation, eval_smoke_gates(), eval_base)
    _print_verdicts("eval", eval_verdicts)
    verdicts.extend(eval_verdicts)

    code = exit_code(verdicts)
    print(f"bench --smoke: {'FAIL' if code else 'ok'} "
          f"({sum(v.failed for v in verdicts)} failing gates)")
    return code
