"""Evaluation engine: memoization, parallel fan-out and instrumentation.

The batch drivers (DSE, sweeps, sensitivity, serving, experiments) all
funnel their candidate evaluations through this package so one cache,
one fan-out primitive and one stats format serve the whole library.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.cache": (
        "DEFAULT_CACHE",
        "NULL_CACHE",
        "EvalCache",
        "NullCache",
        "clear_cache",
        "design_fingerprint",
        "get_cache",
    ),
    "repro.perf.metrics": (
        "EvalStats",
        "FaultStats",
        "StatsTotals",
        "read_totals",
        "record_eval",
        "record_faults",
        "track",
    ),
    "repro.perf.parallel": ("default_chunksize", "parallel_map", "resolve_jobs"),
})

__all__ = [
    "DEFAULT_CACHE",
    "NULL_CACHE",
    "EvalCache",
    "NullCache",
    "clear_cache",
    "design_fingerprint",
    "get_cache",
    "EvalStats",
    "FaultStats",
    "StatsTotals",
    "read_totals",
    "record_eval",
    "record_faults",
    "track",
    "default_chunksize",
    "parallel_map",
    "resolve_jobs",
]
