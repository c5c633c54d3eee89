"""Unit tests: regression gates, tolerance policy, baseline loading."""

import json

import pytest

from repro.bench.experiments import EstimateExperiment
from repro.bench.regression import (
    EXIT_OK,
    EXIT_REGRESSION,
    BaselineError,
    Gate,
    check_result,
    exit_code,
    load_baseline,
)
from repro.bench.runner import BenchResult, run_bench
from repro.bench.stats import summarize


def _result(**metrics: float) -> BenchResult:
    """A one-repeat harness result whose metrics read ``metrics``."""
    return BenchResult(
        kind="test", params={}, repeats=1, seed=0, noise=[], confidence=0.95,
        samples=[metrics],
        summaries={name: summarize([value]) for name, value in metrics.items()},
    )


def _check(metrics: dict, gates, baseline=None):
    """Judge ``gates`` against a one-repeat result reading ``metrics``."""
    return check_result(_result(**metrics), gates, baseline)


class TestGateValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="gate kind"):
            Gate(metric="x", kind="bound", value=1.0)

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Gate(metric="x", kind="baseline", direction="sideways")

    def test_floor_needs_value(self):
        with pytest.raises(ValueError, match="needs a value"):
            Gate(metric="x", kind="floor")

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            Gate(metric="x", kind="baseline", tolerance=-0.1)


class TestBounds:
    def test_floor_pass_and_regression(self):
        gates = [Gate(metric="speedup", kind="floor", value=2.0)]
        ok = _check({"speedup": 3.0}, gates)
        assert [v.status for v in ok] == ["pass"]
        bad = _check({"speedup": 1.5}, gates)
        assert [v.status for v in bad] == ["regression"]
        assert bad[0].failed and "below the floor" in bad[0].message

    def test_ceiling(self):
        gates = [Gate(metric="error", kind="ceiling", value=0.01)]
        assert _check({"error": 0.005}, gates)[0].status == "pass"
        assert _check({"error": 0.02}, gates)[0].status == "regression"

    def test_missing_metric_is_regression(self):
        gates = [Gate(metric="speedup", kind="floor", value=2.0)]
        verdicts = _check({}, gates)
        assert verdicts[0].status == "regression"
        assert "missing" in verdicts[0].message

    def test_baseline_recorded_floor_overrides_gate_value(self):
        gates = [Gate(metric="speedup", kind="floor", value=2.0)]
        baseline = {"floors": {"speedup": 5.0}}
        verdicts = _check({"speedup": 3.0}, gates, baseline)
        assert verdicts[0].status == "regression"
        assert verdicts[0].reference == 5.0


class TestFlags:
    def test_truthy_passes(self):
        gates = [Gate(metric="identical", kind="flag", label="differs")]
        assert _check({"identical": True}, gates)[0].status == "pass"
        bad = _check({"identical": False}, gates)
        assert bad[0].status == "regression"
        assert "differs" in bad[0].message


class TestBaselineGates:
    GATES = [Gate(metric="p99", kind="baseline", direction="lower",
                  tolerance=0.10)]

    def test_improvement(self):
        verdicts = _check({"p99": 80.0}, self.GATES, {"p99": 100.0})
        assert verdicts[0].status == "improvement"

    def test_within_tolerance(self):
        verdicts = _check({"p99": 105.0}, self.GATES, {"p99": 100.0})
        assert verdicts[0].status == "within_tolerance"
        assert not verdicts[0].failed

    def test_regression_beyond_tolerance(self):
        verdicts = _check({"p99": 120.0}, self.GATES, {"p99": 100.0})
        assert verdicts[0].status == "regression"
        assert exit_code(verdicts) == EXIT_REGRESSION

    def test_pass_when_slightly_better(self):
        verdicts = _check({"p99": 95.0}, self.GATES, {"p99": 100.0})
        assert verdicts[0].status == "pass"

    def test_higher_is_better_direction(self):
        gates = [Gate(metric="speedup", kind="baseline", direction="higher",
                      tolerance=0.10)]
        assert _check(
            {"speedup": 15.0}, gates, {"speedup": 10.0}
        )[0].status == "improvement"
        assert _check(
            {"speedup": 8.0}, gates, {"speedup": 10.0}
        )[0].status == "regression"

    def test_missing_baseline_reports_without_failing(self):
        verdicts = _check({"p99": 80.0}, self.GATES, None)
        assert verdicts[0].status == "missing_baseline"
        assert not verdicts[0].failed
        assert exit_code(verdicts) == EXIT_OK

    def test_missing_baseline_fails_when_required(self):
        gates = [Gate(metric="p99", kind="baseline", require_baseline=True)]
        verdicts = _check({"p99": 80.0}, gates, None)
        assert verdicts[0].status == "regression"

    def test_dotted_baseline_metric_path(self):
        gates = [Gate(metric="p50", kind="baseline",
                      baseline_metric="modes.vectorized.p50",
                      tolerance=0.05)]
        baseline = {"modes": {"vectorized": {"p50": 100.0}}}
        assert _check({"p50": 100.0}, gates, baseline)[0].status in (
            "pass", "within_tolerance"
        )


class TestLoadBaseline:
    def test_absent_file_returns_none(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") is None

    def test_last_entry_wins(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps([{"p99": 1.0}, {"p99": 2.0}]))
        assert load_baseline(path) == {"p99": 2.0}

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_non_list_raises(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps({"p99": 1.0}))
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_empty_list_raises(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(path)

    def test_non_dict_entry_raises(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(BaselineError):
            load_baseline(path)


class TestCheckResult:
    def test_aggregates_over_summaries(self):
        result = run_bench(EstimateExperiment(), repeats=3, seed=1)
        gates = [
            Gate(metric="total_seconds", kind="ceiling", value=10.0),
            Gate(metric="clock_fraction", kind="flag"),
            Gate(metric="total_seconds", kind="baseline", direction="lower",
                 tolerance=0.5),
        ]
        baseline = {"total_seconds": result.metric("total_seconds").mean}
        verdicts = check_result(result, gates, baseline)
        assert all(not v.failed for v in verdicts)

    def test_missing_summary_metric_fails_bound(self):
        result = run_bench(EstimateExperiment(), repeats=2, seed=1)
        gates = [Gate(metric="no_such_metric", kind="floor", value=1.0)]
        verdicts = check_result(result, gates)
        assert verdicts[0].status == "regression"
