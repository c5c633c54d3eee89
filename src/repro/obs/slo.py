"""Declarative SLOs with multi-window burn-rate alerting.

A spec string like ``"p99<50ms,avail>0.999,shed<0.01"`` compiles to a
:class:`SloSpec` of typed objectives:

* ``pNN<T`` — a latency objective: at most ``1 - NN/100`` of requests
  may finish slower than ``T`` (units ``ns``/``us``/``ms``/``s``, bare
  numbers are seconds);
* ``avail>F`` — an availability floor: at most ``1 - F`` of outcomes
  may be sheds;
* ``shed<C`` — a shed-rate ceiling: at most ``C`` of outcomes may be
  sheds.

Each objective defines an **error budget** — the fraction of events
allowed to be bad over the run.  :func:`evaluate_slo` walks a
:class:`repro.obs.windows.ServingMonitor`'s timeline, counts bad events
per window (latency objectives query each window's sketch with
``count_above``, so no samples are retained anywhere), and applies the
Google-SRE multi-window burn-rate recipe adapted to a bounded run:

* the **fast** alert watches a short trailing span (5% of the series,
  minimum one window) and fires when that span alone consumes 5% of
  the whole run's error budget — the "page someone now" signal;
* the **slow** alert fires when cumulative bad events exhaust 1x the
  run's budget — the "the SLO is lost" signal.

Alerts are rising-edge :class:`AlertEvent`s stamped with the simulated
time of the window edge where the condition became true, so a fault
window injected mid-run produces an alert timestamped *inside* that
window — an end-to-end-tested contract.

The three burn-rate knobs are module constants (``FAST_SPAN_FRACTION``,
``FAST_BUDGET_FRACTION``, ``SLOW_BUDGET_FRACTION``).  Evaluation is
linear in the number of windows: the fast span's bad events are one
running sum.

Like the rest of ``repro.obs``, this module imports nothing from
``repro.sim`` at module level; it reads monitors through their
per-window accessors only (``completed``, ``shed``, ``sketch``,
``bounds``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.windows import ServingMonitor

__all__ = [
    "AlertEvent",
    "ObjectiveResult",
    "SloObjective",
    "SloReport",
    "SloSpec",
    "WindowVerdict",
    "evaluate_slo",
    "parse_slo",
]

_UNIT_SECONDS = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}

_LATENCY_RE = re.compile(
    r"^p(?P<pct>\d+(?:\.\d+)?)\s*(?:<=|<)\s*"
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\s*(?P<unit>ns|us|ms|s)?$"
)
_AVAIL_RE = re.compile(
    r"^avail(?:ability)?\s*(?:>=|>)\s*(?P<num>\d*\.?\d+(?:[eE][+-]?\d+)?)$"
)
_SHED_RE = re.compile(
    r"^shed(?:_rate)?\s*(?:<=|<)\s*(?P<num>\d*\.?\d+(?:[eE][+-]?\d+)?)$"
)


@dataclass(frozen=True)
class SloObjective:
    """One compiled SLO clause.

    ``budget`` is the error-budget fraction: the share of the
    objective's event population allowed to be bad over the whole run.
    """

    kind: str  # "latency" | "availability" | "shed_rate"
    name: str  # canonical clause text, e.g. "p99<0.05s"
    budget: float
    percentile: float | None = None
    threshold_seconds: float | None = None
    target: float | None = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "budget": self.budget,
        }
        if self.percentile is not None:
            out["percentile"] = self.percentile
        if self.threshold_seconds is not None:
            out["threshold_seconds"] = self.threshold_seconds
        if self.target is not None:
            out["target"] = self.target
        return out


@dataclass(frozen=True)
class SloSpec:
    """An ordered set of objectives compiled from one spec string."""

    objectives: tuple[SloObjective, ...]
    text: str

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an SLO spec needs at least one objective")

    @classmethod
    def parse(cls, text: str) -> "SloSpec":
        objectives = tuple(
            _parse_clause(clause.strip())
            for clause in text.split(",")
            if clause.strip()
        )
        if not objectives:
            raise ValueError(f"empty SLO spec: {text!r}")
        return cls(objectives=objectives, text=text)

    def as_dict(self) -> dict[str, Any]:
        return {
            "text": self.text,
            "objectives": [objective.as_dict() for objective in self.objectives],
        }


def parse_slo(text: str) -> SloSpec:
    """Compile ``"p99<50ms,avail>0.999,shed<0.01"`` into a spec."""
    return SloSpec.parse(text)


def _parse_clause(clause: str) -> SloObjective:
    match = _LATENCY_RE.match(clause)
    if match:
        percentile = float(match.group("pct"))
        if not 0 < percentile < 100:
            raise ValueError(
                f"latency percentile must be in (0, 100): {clause!r}"
            )
        threshold = float(match.group("num")) * _UNIT_SECONDS[match.group("unit")]
        if not 0 < threshold < math.inf:
            raise ValueError(
                f"latency threshold must be positive and finite: {clause!r}"
            )
        return SloObjective(
            kind="latency",
            name=f"p{match.group('pct')}<{threshold:g}s",
            budget=1.0 - percentile / 100.0,
            percentile=percentile,
            threshold_seconds=threshold,
        )
    match = _AVAIL_RE.match(clause)
    if match:
        target = float(match.group("num"))
        if not 0 <= target < 1:
            raise ValueError(
                f"availability floor must be in [0, 1): {clause!r}"
            )
        return SloObjective(
            kind="availability",
            name=f"avail>{target:g}",
            budget=1.0 - target,
            target=target,
        )
    match = _SHED_RE.match(clause)
    if match:
        ceiling = float(match.group("num"))
        if not 0 < ceiling <= 1:
            raise ValueError(f"shed ceiling must be in (0, 1]: {clause!r}")
        return SloObjective(
            kind="shed_rate",
            name=f"shed<{ceiling:g}",
            budget=ceiling,
            target=ceiling,
        )
    raise ValueError(
        f"unparseable SLO clause {clause!r} "
        "(expected pNN<T[ms], avail>F, or shed<C)"
    )


#: multi-window burn-rate alerting (SRE-workbook defaults): the fast
#: alert's trailing span as a share of the series, the share of the
#: run's budget that span must burn to page, and the cumulative share
#: that loses the SLO
FAST_SPAN_FRACTION = 0.05
FAST_BUDGET_FRACTION = 0.05
SLOW_BUDGET_FRACTION = 1.0


def fast_span(num_windows: int) -> int:
    """Windows in the fast alert's trailing span (at least one)."""
    return max(1, round(FAST_SPAN_FRACTION * num_windows))


@dataclass(frozen=True)
class AlertEvent:
    """A rising-edge burn-rate alert at a simulated-time window edge."""

    time: float
    objective: str
    severity: str  # "fast" | "slow"
    burn_rate: float
    window_seconds: float
    detail: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "time": self.time,
            "objective": self.objective,
            "severity": self.severity,
            "burn_rate": self.burn_rate,
            "window_seconds": self.window_seconds,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class WindowVerdict:
    """One objective's view of one window."""

    index: int
    start: float
    end: float
    bad: int
    total: int
    burn_rate: float

    @property
    def ok(self) -> bool:
        """Within budget at this window's own rate (burn rate <= 1)."""
        return self.burn_rate <= 1.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "bad": self.bad,
            "total": self.total,
            "burn_rate": self.burn_rate,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ObjectiveResult:
    """One objective evaluated over a monitor's full timeline."""

    objective: SloObjective
    windows: tuple[WindowVerdict, ...]
    alerts: tuple[AlertEvent, ...]
    total_events: int
    bad_events: int
    budget_events: float

    @property
    def ok(self) -> bool:
        return not self.alerts

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget burned over the run."""
        if self.budget_events <= 0:
            return 0.0 if self.bad_events == 0 else float("inf")
        return self.bad_events / self.budget_events

    def as_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective.as_dict(),
            "total_events": self.total_events,
            "bad_events": self.bad_events,
            "budget_events": self.budget_events,
            "budget_consumed": self.budget_consumed,
            "ok": self.ok,
            "windows": [verdict.as_dict() for verdict in self.windows],
            "alerts": [alert.as_dict() for alert in self.alerts],
        }


@dataclass(frozen=True)
class SloReport:
    """Every objective's verdicts plus the merged alert timeline."""

    spec: SloSpec
    results: tuple[ObjectiveResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def alerts(self) -> list[AlertEvent]:
        """All alerts across objectives, in firing order."""
        merged = [alert for result in self.results for alert in result.alerts]
        merged.sort(key=lambda alert: (alert.time, alert.objective, alert.severity))
        return merged

    @cached_property
    def _breached(self) -> frozenset[int]:
        """Window indices where some objective's verdict is out of budget."""
        return frozenset(
            verdict.index
            for result in self.results
            for verdict in result.windows
            if not verdict.ok
        )

    def window_ok(self, index: int) -> bool:
        """True when every objective's verdict at ``index`` is in budget."""
        return index not in self._breached

    def as_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.as_dict(),
            "ok": self.ok,
            "results": [result.as_dict() for result in self.results],
            "alerts": [alert.as_dict() for alert in self.alerts],
        }


def _window_events(
    monitor: "ServingMonitor", objective: SloObjective, index: int
) -> tuple[int, int]:
    """``(bad, total)`` for one objective in one window."""
    completed = monitor.completed(index)
    if objective.kind == "latency":
        sketch = monitor.sketch(index)
        if sketch is None:
            return 0, completed
        return sketch.count_above(objective.threshold_seconds), completed
    # availability floor and shed-rate ceiling both count sheds as bad
    # out of all outcomes; only their budgets differ
    shed = monitor.shed(index)
    return shed, completed + shed


def _evaluate_objective(
    monitor: "ServingMonitor",
    objective: SloObjective,
    indices: list[int],
) -> ObjectiveResult:
    per_window = [
        _window_events(monitor, objective, index) for index in indices
    ]
    total_events = sum(total for _, total in per_window)
    bad_events = sum(bad for bad, _ in per_window)
    budget_events = objective.budget * total_events

    verdicts = []
    for index, (bad, total) in zip(indices, per_window):
        start, end = monitor.bounds(index)
        if total == 0:
            rate = 0.0 if bad == 0 else float("inf")
        else:
            rate = (bad / total) / objective.budget
        verdicts.append(
            WindowVerdict(
                index=index, start=start, end=end,
                bad=bad, total=total, burn_rate=rate,
            )
        )

    span = fast_span(len(indices))
    fast_threshold = FAST_BUDGET_FRACTION * budget_events
    slow_threshold = SLOW_BUDGET_FRACTION * budget_events
    alerts: list[AlertEvent] = []
    fast_active = slow_active = False
    cumulative = fast_bad = 0
    bads = [bad for bad, _ in per_window]
    for pos, verdict in enumerate(verdicts):
        cumulative += bads[pos]
        # trailing fast span measured over *window positions*, padding
        # empty (unpopulated) windows implicitly with zero bad events;
        # one running integer sum, so exact
        fast_bad += bads[pos]
        if pos >= span:
            fast_bad -= bads[pos - span]
        fast_now = fast_bad > 0 and fast_bad >= fast_threshold
        slow_now = cumulative > 0 and cumulative >= slow_threshold
        if fast_now and not fast_active:
            alerts.append(
                AlertEvent(
                    time=verdict.end,
                    objective=objective.name,
                    severity="fast",
                    burn_rate=verdict.burn_rate,
                    window_seconds=monitor.window_seconds,
                    detail=(
                        f"{fast_bad} bad events in the last {span} "
                        f"window(s) burned >= {FAST_BUDGET_FRACTION:.0%} "
                        f"of the {budget_events:.1f}-event budget"
                    ),
                )
            )
        if slow_now and not slow_active:
            alerts.append(
                AlertEvent(
                    time=verdict.end,
                    objective=objective.name,
                    severity="slow",
                    burn_rate=verdict.burn_rate,
                    window_seconds=monitor.window_seconds,
                    detail=(
                        f"cumulative {cumulative} bad events exhausted "
                        f"{SLOW_BUDGET_FRACTION:g}x the "
                        f"{budget_events:.1f}-event budget"
                    ),
                )
            )
        fast_active = fast_now
        slow_active = slow_now

    return ObjectiveResult(
        objective=objective,
        windows=tuple(verdicts),
        alerts=tuple(alerts),
        total_events=total_events,
        bad_events=bad_events,
        budget_events=budget_events,
    )


def evaluate_slo(
    monitor: "ServingMonitor",
    spec: SloSpec | str,
) -> SloReport:
    """Evaluate every objective of ``spec`` over ``monitor``'s timeline.

    The timeline is the contiguous window range from the first to the
    last populated window — interior windows that saw no events still
    occupy burn-rate positions (with zero bad events), exactly as a
    wall-clock alerting pipeline would see them.
    """
    if isinstance(spec, str):
        spec = SloSpec.parse(spec)
    populated = monitor.window_indices()
    if populated:
        indices = list(range(populated[0], populated[-1] + 1))
    else:
        indices = []
    results = tuple(
        _evaluate_objective(monitor, objective, indices)
        for objective in spec.objectives
    )
    return SloReport(spec=spec, results=results)
