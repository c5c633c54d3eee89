"""Repeated-run timing gates: the ``versal-gemm bench`` harness.

Two experiment kinds — DSE evaluation throughput and paired timing
legs of one serving path — run N serial repeats each, summarized per
metric (count, mean, median, std, min, max) and judged by declarative
floor/ceiling/flag gates.  Exposed on the CLI as ``versal-gemm bench``
(see ``docs/benchmarking.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bench.experiments": (
        "EvalThroughputExperiment",
        "Experiment",
        "PairedExperiment",
    ),
    "repro.bench.regression": (
        "EXIT_REGRESSION",
        "Gate",
        "Verdict",
        "check_result",
        "exit_code",
    ),
    "repro.bench.runner": (
        "BenchResult",
        "MetricSummary",
        "run_bench",
        "summarize",
        "write_csv",
        "write_json",
    ),
})

__all__ = [
    "BenchResult",
    "EXIT_REGRESSION",
    "EvalThroughputExperiment",
    "Experiment",
    "Gate",
    "MetricSummary",
    "PairedExperiment",
    "Verdict",
    "check_result",
    "exit_code",
    "run_bench",
    "summarize",
    "write_csv",
    "write_json",
]
