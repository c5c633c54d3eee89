"""Unified observability: tracing spans, metrics, Perfetto export.

Three cooperating pieces:

* :mod:`repro.obs.spans` — the ``span(...)`` context-manager API and
  process-wide :data:`~repro.obs.spans.GLOBAL_TRACER` (disabled by
  default, zero-overhead when off);
* :mod:`repro.obs.metrics` — counters/gauges/histograms in
  :data:`~repro.obs.metrics.GLOBAL_METRICS` with Prometheus text and
  JSON exposition;
* :mod:`repro.obs.export` / :mod:`repro.obs.summary` — Chrome
  trace-event JSON out (loadable in Perfetto), and per-track
  utilization/overlap/bottleneck analysis back in;
* :mod:`repro.obs.windows` / :mod:`repro.obs.slo` — time-windowed
  telemetry (a :class:`~repro.obs.windows.ServingMonitor` fed at
  dispatch-chunk boundaries keeps a latency sketch and shed/kill counts
  per window) and declarative SLOs with multi-window burn-rate alerting
  over those windows.

Every export loads on first use (see :mod:`repro._lazy`), so importing
a module of this package pulls in only that module's own imports.
``repro.sim`` and ``repro.perf`` import these modules, so the modules
themselves import neither at module level.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.export": (
        "ChromeTraceBuilder",
        "validate_chrome_trace",
        "write_chrome_trace",
    ),
    "repro.obs.metrics": (
        "GLOBAL_METRICS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
    ),
    "repro.obs.spans": (
        "GLOBAL_TRACER",
        "Span",
        "Tracer",
        "instant",
        "span",
        "tracing_enabled",
    ),
    "repro.obs.slo": (
        "AlertEvent",
        "SloObjective",
        "SloReport",
        "SloSpec",
        "evaluate_slo",
        "parse_slo",
    ),
    "repro.obs.summary": (
        "TraceSummary",
        "TrackStats",
        "load_trace",
        "summarize_trace",
    ),
    "repro.obs.windows": (
        "ServingMonitor",
        "WindowStats",
    ),
})

__all__ = [
    "AlertEvent",
    "ChromeTraceBuilder",
    "Counter",
    "Gauge",
    "GLOBAL_METRICS",
    "GLOBAL_TRACER",
    "Histogram",
    "MetricsRegistry",
    "ServingMonitor",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "Span",
    "TraceSummary",
    "TrackStats",
    "Tracer",
    "WindowStats",
    "evaluate_slo",
    "instant",
    "load_trace",
    "parse_slo",
    "span",
    "summarize_trace",
    "tracing_enabled",
    "validate_chrome_trace",
    "write_chrome_trace",
]
