"""Evaluation engine: memoization, instrumentation and thread fan-out.

The batch drivers (DSE, sensitivity, serving prewarm, experiments)
evaluate the model serially through one shared cache and report one
stats format.  ``parallel_map`` fans out only serving work (load-sweep
points), whose native kernel and NumPy passes release the GIL.
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
    "repro.perf.parallel": ("parallel_map", "resolve_jobs"),
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
    "parallel_map",
    "resolve_jobs",
]
