"""The ``versal-gemm bench`` specs: CI's timing gate.

Repeated runs judged by declarative gates
(:mod:`repro.bench.regression`):

* the eval spec measures DSE engine throughput (wall-clock), so its
  gates are per-leg evaluations/s floors (best-of-N against scheduler
  noise) plus the ranking identity of the two legs;
* five timing pairs (:func:`smoke_pairs`) time two legs of one serving
  path back to back in every repeat (:class:`PairedExperiment`) and
  gate the median over the repeats of their ratio, or of the change
  leg's extra nanoseconds per request.

Contract bits (byte-identical dispatch, fault accounting, trace
validity, the serving scenario's exact percentiles) are tier-1 tests,
not gates here: this module gates time.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from repro.bench.experiments import EvalThroughputExperiment, PairedExperiment
from repro.bench.regression import Gate, Verdict, check_result, exit_code
from repro.bench.runner import run_bench, write_csv, write_json
from repro.bench.scenarios import (
    MEAN_INTERARRIVAL,
    QUANTILE_ERROR,
    SERVING_CONFIGS,
    SERVING_SHAPES,
    SERVING_TRACE_SEED,
    build_partition,
)
from repro.obs.spans import _NULL_SPAN, span
from repro.perf.parallel import usable_cpus
from repro.sim.streaming import generate_trace_soa

SMOKE_REPEATS = 5
#: per-leg DSE throughput floor of the smoke eval spec (best-of-N),
#: evaluations/s: every leg, serial included, must beat what the retired
#: NumPy batch leg reached under the 16x16x16 tile planner (at most
#: 2.3k here and 3.7k on a 104-candidate set, 2-CPU x86-64 host)
EVAL_EVALS_PER_SEC_FLOOR = 3800.0
EVAL_LEGS = ("serial", "cached")

#: requests per leg of the engine, wide-fleet and sharded pairs
PAIR_REQUESTS = 50_000
#: requests per leg of the tracer and monitor pairs
OBS_REQUESTS = 100_000
#: rounds per repeat of the monitor pair, whose legs take 2-10 ms each
MONITOR_ROUNDS = 10
#: rounds per repeat of the tracer pair.  Its ~4 ms legs differ by two
#: span calls, so each round's ratio is host jitter around 1.0: the
#: middle half of 500 rounds read 0.974-1.032 on a 2-CPU x86-64 host,
#: and one process's median ran up to 1.025.  Resampling those rounds,
#: the median over five repeats of 10-round medians passed 1.03 in 1.3%
#: of smoke runs and of 30-round medians in 0.6%
TRACER_ROUNDS = 30
#: eight distinct configs, one board each: the CLI-valid wide fleet
#: the serve goldens and CI's faulted-serve step use
WIDE_CONFIGS = ("C1", "C2", "C3", "C4", "C7", "C8", "C9", "I1")
#: the sharded pair gates only where its pool has CPUs to spread over
SHARDED_MIN_CPUS = 4
#: telemetry windows the monitor pair cuts the horizon into
MONITOR_WINDOWS = 100
#: extra nanoseconds per request an attached monitor may add to the
#: exact serve: 5% of the ~3.5 us/request the exact run took when it
#: built one Python object per request (2-CPU x86-64 host).  The
#: median reads 48-171 ns on that host, so 1.5x the worst reading
#: leaves no room to tighten it
MONITOR_NS_CEILING = 175.0
#: one disabled span() call (attribute check + return of the null span)
NOOP_NS_CEILING = 2_000.0


def eval_smoke_gates() -> list[Gate]:
    """Ranking identity + a throughput floor per engine leg."""
    return [
        Gate(metric="rankings_identical", kind="flag"),
    ] + [
        Gate(metric=f"{leg}_evals_per_sec", kind="floor",
             value=EVAL_EVALS_PER_SEC_FLOOR, aggregate="max")
        for leg in EVAL_LEGS
    ]


# -- the timing pairs ----------------------------------------------------

def _simulator(configs=SERVING_CONFIGS):
    from repro.sim.serving import ServingSimulator

    simulator = ServingSimulator(build_partition(configs))
    simulator.prewarm(SERVING_SHAPES)
    return simulator


def _trace(requests: int):
    return generate_trace_soa(
        SERVING_SHAPES, requests, MEAN_INTERARRIVAL, seed=SERVING_TRACE_SEED
    )


def _serve(simulator, requests: int, **run) -> None:
    """One pass of the serving pipeline: trace, dispatch, p50/p99."""
    simulator.run(_trace(requests), **run).latency_percentiles([50, 99])


def _warmed(base, change):
    """The legs, each run once untimed to absorb first-touch costs."""
    base()
    change()
    return base, change


@contextmanager
def _engines(configs, requests: int = PAIR_REQUESTS):
    """The scan oracle in exact mode vs ``auto`` streaming, as
    ``serve --streaming`` runs it."""
    simulator = _simulator(configs)
    yield _warmed(
        partial(_serve, simulator, requests, dispatch="scan"),
        partial(_serve, simulator, requests, streaming=True,
                quantile_error=QUANTILE_ERROR),
    )


@contextmanager
def _sharded(requests: int = PAIR_REQUESTS):
    """The warm single-process fast path vs a warm shard pool, built
    outside the timing."""
    from repro.sim.cluster_serving import ShardedServingCluster

    simulator = _simulator()
    with ShardedServingCluster(
        simulator, SERVING_SHAPES, shards=min(max(usable_cpus(), 2), 8),
        quantile_error=QUANTILE_ERROR,
    ) as cluster:
        cluster.warm(requests, MEAN_INTERARRIVAL, seed=SERVING_TRACE_SEED)

        def pooled() -> None:
            cluster.serve(
                requests, MEAN_INTERARRIVAL, seed=SERVING_TRACE_SEED
            ).report.latency_percentiles([50, 99])

        yield _warmed(
            partial(_serve, simulator, requests, streaming=True,
                    quantile_error=QUANTILE_ERROR),
            pooled,
        )


def _null_span(*_args, **_kwargs):
    return _NULL_SPAN


@contextmanager
def _tracer(requests: int = OBS_REQUESTS):
    """Streaming serves with ``span`` patched to the null span (the
    code as if never instrumented) vs as shipped, tracer disabled."""
    import repro.sim.serving as serving

    shipped = partial(_simulator().run, _trace(requests), streaming=True)

    def untraced() -> None:
        instrumented, serving.span = serving.span, _null_span
        try:
            shipped()
        finally:
            serving.span = instrumented

    yield _warmed(untraced, shipped)


@contextmanager
def _monitor(requests: int = OBS_REQUESTS):
    """The exact serve without vs with a windowed ``ServingMonitor``."""
    from repro.obs.windows import ServingMonitor

    simulator = _simulator()
    trace = _trace(requests)
    window = requests * MEAN_INTERARRIVAL / MONITOR_WINDOWS

    def monitored() -> None:
        # a fresh monitor per run, so no run folds into another's series
        simulator.run(trace, monitor=ServingMonitor(window))

    yield _warmed(partial(simulator.run, trace), monitored)


def noop_span_ns(calls: int = 200_000) -> dict[str, float]:
    """Nanoseconds for one disabled module-level ``span()`` call."""
    started = time.perf_counter()
    for _ in range(calls):
        span("bench.noop")
    return {"noop_span_ns": (time.perf_counter() - started) / calls * 1e9}


def _ceiling(metric: str, value: float) -> Gate:
    return Gate(metric=metric, kind="ceiling", value=value, aggregate="median")


@dataclass(frozen=True)
class PairSpec:
    """One timing pair, its gates, and whether this host arms them."""

    experiment: PairedExperiment
    gates: list[Gate]
    armed: bool
    #: the arming condition as printed beside the verdicts
    condition: str

    @property
    def name(self) -> str:
        return self.experiment.name


def smoke_pairs() -> list[PairSpec]:
    """The five pairs at the sizes CI ran the retired scripts at.

    A speedup floor of ``S`` is a ratio ceiling of ``1/S``.
    """
    cpus = usable_cpus()
    return [
        PairSpec(
            PairedExperiment("fastpath", partial(_engines, SERVING_CONFIGS)),
            [_ceiling("ratio", 1 / 3)], True, "always",
        ),
        PairSpec(
            PairedExperiment("wide", partial(_engines, WIDE_CONFIGS)),
            [_ceiling("ratio", 1 / 3)], True, "always",
        ),
        PairSpec(
            PairedExperiment("sharded", _sharded),
            [_ceiling("ratio", 1 / 3)], cpus >= SHARDED_MIN_CPUS,
            f"{cpus} usable CPUs, needs {SHARDED_MIN_CPUS}",
        ),
        PairSpec(
            PairedExperiment("tracer", _tracer, rounds=TRACER_ROUNDS,
                             side=noop_span_ns),
            [_ceiling("ratio", 1.03), _ceiling("noop_span_ns", NOOP_NS_CEILING)],
            True, "always",
        ),
        PairSpec(
            PairedExperiment("monitor", _monitor, requests=OBS_REQUESTS,
                             rounds=MONITOR_ROUNDS),
            [_ceiling("extra_ns_per_request", MONITOR_NS_CEILING)],
            True, "always",
        ),
    ]


def _print_verdicts(name: str, verdicts: list[Verdict]) -> None:
    for verdict in verdicts:
        line = (
            f"{name}: [{verdict.status}] {verdict.metric}"
            + (f" = {verdict.observed:g}" if verdict.observed is not None else "")
            + (f" (ref {verdict.reference:g})" if verdict.reference is not None else "")
        )
        print(line, file=sys.stderr if verdict.failed else sys.stdout)


def _write(result, out_dir: Path, name: str) -> None:
    write_csv(result, out_dir / f"bench_smoke_{name}.csv")
    write_json(result, out_dir / f"bench_smoke_{name}.json")


def run_smoke(out_dir: Path | str = ".", repeats: int = SMOKE_REPEATS) -> int:
    """Run every spec, write artifacts, return the exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    verdicts: list[Verdict] = []

    evaluation = run_bench(EvalThroughputExperiment(), repeats=repeats)
    _write(evaluation, out_dir, "eval")
    print(f"eval: {repeats} repeats  best evals/s " + "  ".join(
        f"{leg} {evaluation.metric(f'{leg}_evals_per_sec').max:.0f}"
        for leg in EVAL_LEGS
    ))
    eval_verdicts = check_result(evaluation, eval_smoke_gates())
    _print_verdicts("eval", eval_verdicts)
    verdicts.extend(eval_verdicts)

    for pair in smoke_pairs():
        result = run_bench(pair.experiment, repeats=repeats)
        _write(result, out_dir, pair.name)
        print(
            f"{pair.name}: {repeats} repeats  median ratio "
            f"{result.metric('ratio').median:.3f}  "
            f"{'armed' if pair.armed else 'disarmed'} ({pair.condition})"
        )
        if pair.armed:
            pair_verdicts = check_result(result, pair.gates)
            _print_verdicts(pair.name, pair_verdicts)
            verdicts.extend(pair_verdicts)

    code = exit_code(verdicts)
    print(f"bench: {'FAIL' if code else 'ok'} "
          f"({sum(v.failed for v in verdicts)} failing gates)")
    return code
