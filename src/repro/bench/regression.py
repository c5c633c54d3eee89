"""Declarative regression gates with a tolerance policy.

A :class:`Gate` names one metric and how to judge it:

* ``floor`` — the metric must not drop below a recorded floor (the
  CI speedup floors); the floor is read from the baseline entry's
  ``floors`` map when present, else from the gate itself;
* ``ceiling`` — the metric must not exceed a bound (error bounds,
  overhead limits);
* ``flag`` — the metric must be truthy (byte-identity contracts);
* ``baseline`` — the metric is compared against the value recorded in
  a prior ``BENCH_*.json`` entry under a relative tolerance, with a
  direction (``lower``/``higher`` is better) deciding which side is a
  regression and which an improvement.

Each gate resolves to a :class:`Verdict` with one of the statuses
``improvement`` / ``pass`` / ``within_tolerance`` / ``regression`` /
``missing_baseline`` / ``corrupt_baseline``; ``regression`` and
``corrupt_baseline`` fail (``missing_baseline`` only when the gate
requires a baseline).  ``exit_code`` maps verdicts onto the CLI
contract: non-zero exactly when a gate failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from repro.bench.runner import BenchResult

EXIT_OK = 0
EXIT_REGRESSION = 1

_KINDS = ("floor", "ceiling", "flag", "baseline")
_DIRECTIONS = ("lower", "higher")
_FAILING = ("regression", "corrupt_baseline")


class BaselineError(ValueError):
    """A baseline trajectory exists but cannot be used."""


@dataclass(frozen=True)
class Gate:
    """One declarative check on one metric (see module docstring)."""

    metric: str
    kind: str
    #: floor/ceiling bound (overridden by a baseline-recorded floor)
    value: float | None = None
    #: summary statistic compared for harness results
    aggregate: str = "mean"
    #: for ``baseline`` gates: which direction is better
    direction: str = "lower"
    #: relative tolerance band around the baseline value
    tolerance: float = 0.05
    #: dotted path into the baseline entry (defaults to ``metric``)
    baseline_metric: str | None = None
    #: human-readable failure text (a generic one is derived if unset)
    label: str | None = None
    #: fail (rather than report) when the baseline is missing
    require_baseline: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"gate kind must be one of {_KINDS}, got {self.kind!r}")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"gate direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )
        if self.kind in ("floor", "ceiling") and self.value is None:
            raise ValueError(f"{self.kind} gate on {self.metric!r} needs a value")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")


@dataclass(frozen=True)
class Verdict:
    """The outcome of evaluating one gate against one run."""

    metric: str
    kind: str
    status: str
    observed: float | None = None
    reference: float | None = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status in _FAILING

    @property
    def message(self) -> str:
        body = self.detail or (
            f"{self.metric}: observed {self.observed!r} vs "
            f"reference {self.reference!r}"
        )
        return f"[{self.status}] {body}"


def load_baseline(path: Path | str) -> dict | None:
    """The last entry of a BENCH trajectory (None when the file is absent).

    Raises :class:`BaselineError` when the file exists but is corrupt
    (invalid JSON, not a list, or an empty/non-dict entry) — a corrupt
    baseline must fail loudly, never pass silently.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        trajectory = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise BaselineError(f"{path} exists but is not valid JSON ({error})") from None
    if not isinstance(trajectory, list):
        raise BaselineError(f"{path} is not a JSON list trajectory")
    if not trajectory or not isinstance(trajectory[-1], dict):
        raise BaselineError(f"{path} holds no usable baseline entry")
    return trajectory[-1]


def resolve_path(entry: dict | None, dotted: str) -> Any:
    """Walk a dotted path through nested dicts (None when absent)."""
    node: Any = entry
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _judge_bound(gate: Gate, observed: Any, floor_value: float) -> Verdict:
    path = gate.metric
    if observed is None:
        return Verdict(
            metric=path, kind=gate.kind, status="regression",
            detail=gate.label or f"{path} is missing from the run entry",
        )
    observed = float(observed)
    ok = observed >= floor_value if gate.kind == "floor" else observed <= floor_value
    relation = "below the floor" if gate.kind == "floor" else "above the ceiling"
    return Verdict(
        metric=path,
        kind=gate.kind,
        status="pass" if ok else "regression",
        observed=observed,
        reference=floor_value,
        detail="" if ok else (
            gate.label or f"{path} = {observed:g} is {relation} {floor_value:g}"
        ),
    )


def _judge_flag(gate: Gate, observed: Any) -> Verdict:
    ok = bool(observed)
    return Verdict(
        metric=gate.metric,
        kind="flag",
        status="pass" if ok else "regression",
        observed=None if observed is None else float(bool(observed)),
        detail="" if ok else (gate.label or f"{gate.metric} contract does not hold"),
    )


def _judge_baseline(gate: Gate, observed: Any, baseline: dict | None) -> Verdict:
    path = gate.metric
    if observed is None:
        return Verdict(
            metric=path, kind="baseline", status="regression",
            detail=gate.label or f"{path} is missing from the run entry",
        )
    observed = float(observed)
    reference = resolve_path(baseline, gate.baseline_metric or path)
    if baseline is None or reference is None:
        status = "missing_baseline"
        if gate.require_baseline:
            status = "regression"
        return Verdict(
            metric=path, kind="baseline", status=status, observed=observed,
            detail=f"{path}: no recorded baseline value to compare against",
        )
    reference = float(reference)
    if reference == 0.0:
        worse = observed > 0 if gate.direction == "lower" else observed < 0
        status = "regression" if worse else "pass"
    else:
        ratio = observed / reference
        if gate.direction == "lower":
            better, worse = ratio < 1.0, ratio > 1.0 + gate.tolerance
            improved = ratio < 1.0 - gate.tolerance
        else:
            better, worse = ratio > 1.0, ratio < 1.0 - gate.tolerance
            improved = ratio > 1.0 + gate.tolerance
        if worse:
            status = "regression"
        elif improved:
            status = "improvement"
        elif better:
            status = "pass"
        else:
            status = "within_tolerance"
    return Verdict(
        metric=path,
        kind="baseline",
        status=status,
        observed=observed,
        reference=reference,
        detail="" if status != "regression" else (
            gate.label
            or (
                f"{path} = {observed:g} regressed beyond {gate.tolerance:.0%} "
                f"of the recorded baseline {reference:g}"
            )
        ),
    )


def _recorded_floor(gate: Gate, baseline: dict | None) -> float:
    """A baseline-recorded floor overrides the gate's declared value."""
    recorded = resolve_path(baseline, f"floors.{gate.metric}")
    return float(recorded) if recorded is not None else float(gate.value)


def check_result(
    result: BenchResult,
    gates: Sequence[Gate],
    baseline: dict | None = None,
) -> list[Verdict]:
    """Evaluate gates against a harness result's metric summaries.

    The observed value is the gate's ``aggregate`` over the repeat
    distribution (``mean`` by default; wall-clock floors usually gate
    ``max`` — best-of-N — to shrug off scheduler noise).
    """
    verdicts: list[Verdict] = []
    for gate in gates:
        summary = result.summaries.get(gate.metric)
        observed = None if summary is None else summary.value(gate.aggregate)
        if gate.kind == "flag":
            # a flag over repeats holds only when every repeat held
            flag = None if summary is None else summary.value("min")
            verdicts.append(_judge_flag(gate, flag))
        elif gate.kind == "baseline":
            verdicts.append(_judge_baseline(gate, observed, baseline))
        else:
            verdicts.append(
                _judge_bound(gate, observed, _recorded_floor(gate, baseline))
            )
    return verdicts


def exit_code(verdicts: Sequence[Verdict]) -> int:
    """0 when every gate holds, 1 on any regression/corrupt baseline."""
    return EXIT_REGRESSION if any(v.failed for v in verdicts) else EXIT_OK
