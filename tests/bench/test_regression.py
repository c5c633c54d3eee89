"""Unit tests: floor, ceiling and flag gates."""

import pytest

from repro.bench.regression import (
    EXIT_OK,
    EXIT_REGRESSION,
    Gate,
    check_result,
    exit_code,
)
from repro.bench.runner import BenchResult, summarize


def _result(**metrics: float) -> BenchResult:
    """A one-repeat harness result whose metrics read ``metrics``."""
    return BenchResult(
        kind="test", params={}, repeats=1, samples=[metrics],
        summaries={name: summarize([value]) for name, value in metrics.items()},
    )


def _check(metrics: dict, gates):
    """Judge ``gates`` against a one-repeat result reading ``metrics``."""
    return check_result(_result(**metrics), gates)


class TestGateValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="gate kind"):
            Gate(metric="x", kind="baseline")

    def test_floor_needs_value(self):
        with pytest.raises(ValueError, match="needs a value"):
            Gate(metric="x", kind="floor")


class TestBounds:
    def test_floor_pass_and_regression(self):
        gates = [Gate(metric="speedup", kind="floor", value=2.0)]
        ok = _check({"speedup": 3.0}, gates)
        assert [v.status for v in ok] == ["pass"]
        bad = _check({"speedup": 1.5}, gates)
        assert [v.status for v in bad] == ["regression"]
        assert bad[0].failed and bad[0].observed == 1.5
        assert bad[0].reference == 2.0

    def test_ceiling(self):
        gates = [Gate(metric="error", kind="ceiling", value=0.01)]
        assert _check({"error": 0.005}, gates)[0].status == "pass"
        assert _check({"error": 0.02}, gates)[0].status == "regression"

    def test_missing_metric_is_regression(self):
        gates = [Gate(metric="speedup", kind="floor", value=2.0)]
        verdicts = _check({}, gates)
        assert verdicts[0].status == "regression"
        assert verdicts[0].observed is None


class TestFlags:
    def test_truthy_passes(self):
        gates = [Gate(metric="identical", kind="flag")]
        assert _check({"identical": True}, gates)[0].status == "pass"
        bad = _check({"identical": False}, gates)
        assert bad[0].status == "regression"
        assert bad[0].failed and bad[0].observed == 0.0


class TestCheckResult:
    @staticmethod
    def _repeated(values):
        return BenchResult(
            kind="test", params={}, repeats=len(values),
            samples=[{"x": v} for v in values],
            summaries={"x": summarize(values)},
        )

    def test_aggregates_over_summaries(self):
        result = self._repeated([1.0, 2.0, 6.0])
        judged = {
            aggregate: check_result(
                result, [Gate(metric="x", kind="ceiling", value=2.5,
                              aggregate=aggregate)]
            )[0]
            for aggregate in ("min", "median", "mean", "max")
        }
        assert {a: v.observed for a, v in judged.items()} == {
            "min": 1.0, "median": 2.0, "mean": 3.0, "max": 6.0,
        }
        assert [a for a, v in judged.items() if v.failed] == ["mean", "max"]
        assert exit_code(list(judged.values())) == EXIT_REGRESSION
        assert exit_code([judged["min"], judged["median"]]) == EXIT_OK

    def test_flag_must_hold_in_every_repeat(self):
        result = self._repeated([1.0, 0.0, 1.0])
        assert check_result(result, [Gate(metric="x", kind="flag")])[0].failed

    def test_missing_summary_metric_fails_bound(self):
        gates = [Gate(metric="no_such_metric", kind="floor", value=1.0)]
        verdicts = check_result(self._repeated([1.0]), gates)
        assert verdicts[0].status == "regression"
