"""Declarative gates on a benchmark result.

A :class:`Gate` names one metric and how to judge it:

* ``floor`` — the metric must not drop below ``value`` (the eval
  leg's evaluations/s);
* ``ceiling`` — the metric must not exceed ``value`` (the timing
  pairs' ratios and overheads);
* ``flag`` — the metric must be truthy in every repeat (the eval
  legs' ranking identity).

Each gate resolves to a :class:`Verdict` whose status is ``pass`` or
``regression``; ``exit_code`` maps verdicts onto the CLI contract:
non-zero exactly when a gate failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.bench.runner import BenchResult

EXIT_OK = 0
EXIT_REGRESSION = 1

_KINDS = ("floor", "ceiling", "flag")


@dataclass(frozen=True)
class Gate:
    """One declarative check on one metric (see module docstring)."""

    metric: str
    kind: str
    #: floor/ceiling bound
    value: float | None = None
    #: summary statistic compared (wall-clock floors gate ``max``,
    #: best-of-N, to shrug off scheduler noise)
    aggregate: str = "mean"

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"gate kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind in ("floor", "ceiling") and self.value is None:
            raise ValueError(f"{self.kind} gate on {self.metric!r} needs a value")


@dataclass(frozen=True)
class Verdict:
    """The outcome of evaluating one gate against one run."""

    metric: str
    kind: str
    status: str
    #: the aggregate the gate read (None when the run lacks the metric)
    observed: float | None = None
    #: the floor/ceiling bound
    reference: float | None = None

    @property
    def failed(self) -> bool:
        return self.status == "regression"


def _judge_bound(gate: Gate, observed: float | None) -> Verdict:
    bound = float(gate.value)
    ok = observed is not None and (
        observed >= bound if gate.kind == "floor" else observed <= bound
    )
    return Verdict(
        metric=gate.metric, kind=gate.kind,
        status="pass" if ok else "regression",
        observed=observed, reference=bound,
    )


def _judge_flag(gate: Gate, observed: float | None) -> Verdict:
    return Verdict(
        metric=gate.metric, kind="flag",
        status="pass" if observed else "regression",
        observed=None if observed is None else float(bool(observed)),
    )


def check_result(result: BenchResult, gates: Sequence[Gate]) -> list[Verdict]:
    """Evaluate gates against a result's metric summaries.

    The observed value is the gate's ``aggregate`` over the repeats; a
    flag holds only when it held in every repeat.
    """
    verdicts: list[Verdict] = []
    for gate in gates:
        summary = result.summaries.get(gate.metric)
        if gate.kind == "flag":
            verdicts.append(
                _judge_flag(gate, None if summary is None else summary.min)
            )
        else:
            verdicts.append(_judge_bound(
                gate, None if summary is None else summary.value(gate.aggregate)
            ))
    return verdicts


def exit_code(verdicts: Sequence[Verdict]) -> int:
    """0 when every gate holds, 1 on any regression."""
    return EXIT_REGRESSION if any(v.failed for v in verdicts) else EXIT_OK
