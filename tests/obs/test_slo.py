"""SLO spec grammar and multi-window burn-rate alerting."""

import json

import numpy as np
import pytest

from repro.obs.slo import (
    SloSpec,
    evaluate_slo,
    fast_span,
    parse_slo,
)
from repro.obs.windows import ServingMonitor


class TestParseGrammar:
    def test_latency_clause_with_units(self):
        for text, seconds in [
            ("p99<50ms", 0.05),
            ("p99<50000us", 0.05),
            ("p99<50000000ns", 0.05),
            ("p99<0.05s", 0.05),
            ("p99<0.05", 0.05),
        ]:
            (objective,) = SloSpec.parse(text).objectives
            assert objective.kind == "latency"
            assert objective.threshold_seconds == pytest.approx(seconds)
            assert objective.percentile == 99.0
            assert objective.budget == pytest.approx(0.01)

    def test_fractional_percentile_and_le(self):
        (objective,) = SloSpec.parse("p99.9 <= 10ms").objectives
        assert objective.budget == pytest.approx(0.001)
        assert objective.threshold_seconds == pytest.approx(0.01)

    def test_availability_clause(self):
        for text in ("avail>0.999", "availability >= 0.999"):
            (objective,) = SloSpec.parse(text).objectives
            assert objective.kind == "availability"
            assert objective.target == pytest.approx(0.999)
            assert objective.budget == pytest.approx(0.001)
            assert objective.name == "avail>0.999"

    def test_shed_clause(self):
        for text in ("shed<0.01", "shed_rate <= 0.01"):
            (objective,) = SloSpec.parse(text).objectives
            assert objective.kind == "shed_rate"
            assert objective.budget == pytest.approx(0.01)
            assert objective.name == "shed<0.01"

    def test_multi_clause_spec_keeps_order(self):
        spec = parse_slo("p99<50ms, avail>0.999, shed<0.01")
        assert [o.kind for o in spec.objectives] == [
            "latency", "availability", "shed_rate",
        ]
        assert spec.text == "p99<50ms, avail>0.999, shed<0.01"

    def test_as_dict_is_json_ready(self):
        spec = parse_slo("p99<50ms,avail>0.999")
        out = json.loads(json.dumps(spec.as_dict()))
        assert out["objectives"][0]["threshold_seconds"] == pytest.approx(0.05)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            " , ,",
            "p99",
            "latency<50ms",
            "p0<50ms",          # percentile must be in (0, 100)
            "p100<50ms",
            "p99<0ms",          # threshold must be positive
            "p99<50m",          # unknown unit
            "avail>1",          # floor must be in [0, 1)
            "avail>1.5",
            "shed<0",           # ceiling must be in (0, 1]
            "shed<1.5",
            "p99<50ms;avail>0.9",  # wrong separator
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            SloSpec.parse(bad)


def _monitor(window_seconds=0.1, quantile_error=0.01):
    return ServingMonitor(window_seconds, quantile_error=quantile_error)


def _complete(monitor, window, count, latency):
    """``count`` completions with ``latency`` inside window ``window``."""
    start, end = monitor.bounds(window)
    finishes = np.linspace(start, end, count, endpoint=False)
    arrivals = finishes - latency
    monitor.observe_chunk(finishes, finishes - arrivals)


class TestEvaluate:
    def test_clean_run_is_ok(self):
        monitor = _monitor()
        for window in range(20):
            _complete(monitor, window, 50, latency=0.005)
        report = evaluate_slo(monitor, "p99<50ms,avail>0.999,shed<0.01")
        assert report.ok
        assert report.alerts == []
        for result in report.results:
            assert result.bad_events == 0
            assert result.total_events == 1000
            assert result.budget_consumed == 0.0

    def test_accepts_compiled_spec_and_string(self):
        monitor = _monitor()
        _complete(monitor, 0, 10, latency=0.001)
        by_text = evaluate_slo(monitor, "p99<50ms")
        by_spec = evaluate_slo(monitor, SloSpec.parse("p99<50ms"))
        assert by_text.as_dict() == by_spec.as_dict()

    def test_empty_monitor_is_vacuously_ok(self):
        report = evaluate_slo(_monitor(), "p99<50ms")
        assert report.ok and report.alerts == []
        (result,) = report.results
        assert result.windows == () and result.total_events == 0

    def test_shed_burst_fires_fast_and_slow_inside_burst_window(self):
        monitor = _monitor()
        for window in range(20):
            _complete(monitor, window, 100, latency=0.005)
        # a burst of sheds in window 12: far beyond the 0.1% avail budget
        burst_start, burst_end = monitor.bounds(12)
        monitor.observe_sheds(np.linspace(burst_start, burst_end, 40, endpoint=False))
        report = evaluate_slo(monitor, "avail>0.999")
        assert not report.ok
        severities = {alert.severity for alert in report.alerts}
        assert severities == {"fast", "slow"}
        for alert in report.alerts:
            assert burst_start < alert.time <= burst_end
            assert alert.objective == "avail>0.999"
            assert alert.burn_rate > 1.0

    def test_latency_objective_counts_slow_requests_via_sketch(self):
        monitor = _monitor()
        for window in range(10):
            _complete(monitor, window, 90, latency=0.005)
            _complete(monitor, window, 10, latency=0.5)  # over threshold
        report = evaluate_slo(monitor, "p99<50ms")
        (result,) = report.results
        assert result.total_events == 1000
        # 10% bad against a 1% budget: the SLO is decisively lost
        assert result.bad_events == 100
        assert result.budget_consumed == pytest.approx(10.0)
        assert not result.ok

    def test_alerts_are_rising_edge_only(self):
        monitor = _monitor()
        for window in range(20):
            _complete(monitor, window, 100, latency=0.005)
            start, end = monitor.bounds(window)
            if window >= 10:  # condition stays true from window 10 on
                monitor.observe_sheds(
                    np.linspace(start, end, 30, endpoint=False)
                )
        report = evaluate_slo(monitor, "avail>0.999")
        fast = [a for a in report.alerts if a.severity == "fast"]
        slow = [a for a in report.alerts if a.severity == "slow"]
        assert len(fast) == 1 and len(slow) == 1

    def test_window_ok_reflects_per_window_burn(self):
        monitor = _monitor()
        for window in range(10):
            _complete(monitor, window, 100, latency=0.005)
        start, end = monitor.bounds(5)
        monitor.observe_sheds(np.linspace(start, end, 50, endpoint=False))
        report = evaluate_slo(monitor, "avail>0.99")
        assert report.window_ok(4)
        assert not report.window_ok(5)
        assert report.window_ok(6)

    def test_interior_empty_windows_occupy_burn_positions(self):
        monitor = _monitor()
        _complete(monitor, 0, 50, latency=0.005)
        _complete(monitor, 9, 50, latency=0.005)
        report = evaluate_slo(monitor, "avail>0.999")
        (result,) = report.results
        assert [v.index for v in result.windows] == list(range(10))
        assert all(v.bad == 0 for v in result.windows)

    def test_report_as_dict_round_trips_through_json(self):
        monitor = _monitor()
        _complete(monitor, 0, 100, latency=0.005)
        monitor.observe_sheds(np.array([0.05]))
        report = evaluate_slo(monitor, "avail>0.5,p99<50ms")
        out = json.loads(json.dumps(report.as_dict()))
        assert out["ok"] is True
        assert {r["objective"]["kind"] for r in out["results"]} == {
            "availability", "latency",
        }

    def test_alert_timeline_sorted_by_time(self):
        monitor = _monitor()
        for window in range(20):
            _complete(monitor, window, 50, latency=0.005)
        start, end = monitor.bounds(3)
        monitor.observe_sheds(np.linspace(start, end, 40, endpoint=False))
        _complete(monitor, 15, 50, latency=0.9)
        report = evaluate_slo(monitor, "p99<50ms,avail>0.999")
        times = [alert.time for alert in report.alerts]
        assert times == sorted(times)
        assert {alert.objective for alert in report.alerts} == {
            "p99<0.05s", "avail>0.999",
        }

    def test_fast_alerts_match_trailing_span_sums(self):
        monitor = _monitor()
        rng = np.random.default_rng(11)
        for window in range(200):
            _complete(monitor, window, 50, latency=0.005)
            # sheds in window 0 too: a span that never lets it go, or
            # drops it early, moves the alerts
            sheds = 2 if window == 0 else int(rng.choice([0, 0, 1]))
            if sheds:
                start, end = monitor.bounds(window)
                monitor.observe_sheds(np.linspace(start, end, sheds, endpoint=False))
        (result,) = evaluate_slo(monitor, "avail>0.99").results
        span = fast_span(len(result.windows))
        bads = [verdict.bad for verdict in result.windows]
        threshold = 0.05 * result.budget_events
        expected, active = [], False
        for pos, verdict in enumerate(result.windows):
            trailing = sum(bads[max(0, pos - span + 1) : pos + 1])
            now = trailing > 0 and trailing >= threshold
            if now and not active:
                expected.append((verdict.end, f"{trailing} bad events"))
            active = now
        fast = [a for a in result.alerts if a.severity == "fast"]
        assert len(expected) > 1
        assert [(a.time, a.detail.split(" in ")[0]) for a in fast] == expected


class TestBurnRatePolicy:
    def test_fast_span_is_at_least_one_window(self):
        assert fast_span(1) == 1
        assert fast_span(10) == 1
        assert fast_span(100) == 5
