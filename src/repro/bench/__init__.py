"""Statistical repeated-run benchmarking for every experiment kind.

The paper's measured figures are single-shot numbers; real Versal and
NPU measurements vary run to run.  This package turns any experiment —
an analytical-model estimate, a serving trace, a load sweep, a pipeline
replay — into an N-repeat seeded experiment with pluggable noise
models, per-metric confidence intervals, and a regression detector that
judges each run by declarative gates (bounds, contract flags, and the
committed ``BENCH_serving.json`` baseline).  Exposed on the CLI as ``versal-gemm bench`` (see
``docs/benchmarking.md``).

Determinism contract: every random draw — noise factors, bootstrap
resamples, per-repeat trace seeds — derives from the experiment seed
through :func:`repro.sim.streaming.derive_seed` /
:func:`~repro.sim.streaming.splitmix_uniforms` over *stable* index
grids, never from evaluation order.  Same seed therefore means
byte-identical sample streams regardless of ``--jobs``, ``--shards``,
or dispatch-engine choice, and ``noise=None`` runs are byte-identical
to the un-harnessed paths.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.experiments": (
        "EstimateExperiment",
        "EvalThroughputExperiment",
        "Experiment",
        "LoadSweepExperiment",
        "PairedExperiment",
        "PipelineExperiment",
        "ServingExperiment",
    ),
    "repro.bench.measure": ("SpanRollupProbe", "StatsProbe", "TimerProbe", "default_probes"),
    "repro.bench.noise": (
        "ClockVariabilityNoise",
        "DramJitterNoise",
        "NoiseModel",
        "ThermalDeratingNoise",
        "parse_noise_spec",
    ),
    "repro.bench.regression": (
        "EXIT_REGRESSION",
        "BaselineError",
        "Gate",
        "Verdict",
        "check_result",
        "exit_code",
        "load_baseline",
    ),
    "repro.bench.runner": ("BenchResult", "run_bench", "write_csv", "write_json"),
    "repro.bench.stats": ("MetricSummary", "bootstrap_interval", "summarize", "t_critical"),
})

__all__ = [
    "BaselineError",
    "BenchResult",
    "ClockVariabilityNoise",
    "DramJitterNoise",
    "EXIT_REGRESSION",
    "EstimateExperiment",
    "EvalThroughputExperiment",
    "Experiment",
    "Gate",
    "LoadSweepExperiment",
    "MetricSummary",
    "NoiseModel",
    "PairedExperiment",
    "PipelineExperiment",
    "ServingExperiment",
    "SpanRollupProbe",
    "StatsProbe",
    "ThermalDeratingNoise",
    "TimerProbe",
    "Verdict",
    "bootstrap_interval",
    "check_result",
    "default_probes",
    "exit_code",
    "load_baseline",
    "parse_noise_spec",
    "run_bench",
    "summarize",
    "t_critical",
    "write_csv",
    "write_json",
]
