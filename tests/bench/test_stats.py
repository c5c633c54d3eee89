"""Unit tests: the per-metric summary every gate reads."""

import pytest

from repro.bench.runner import MetricSummary, summarize


class TestSummarize:
    def test_closed_form(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.n == 5
        assert summary.mean == 3.0
        assert summary.median == 3.0
        assert summary.std == pytest.approx(2.5 ** 0.5)
        assert (summary.min, summary.max) == (1.0, 5.0)

    def test_single_sample_degenerates_to_point(self):
        summary = summarize([42.0])
        assert summary.n == 1
        assert summary.std == 0.0
        assert summary.mean == summary.median == summary.min == summary.max == 42.0

    def test_constant_samples_have_zero_width(self):
        summary = summarize([7.0] * 10)
        assert summary.std == 0.0
        assert summary.min == summary.max == 7.0

    def test_aggregate_accessor(self):
        summary = summarize([1.0, 3.0])
        assert summary.value("mean") == pytest.approx(2.0)
        assert summary.value("min") == 1.0
        assert summary.value("max") == 3.0
        with pytest.raises(ValueError):
            summary.value("mode")
        with pytest.raises(ValueError):
            summary.value("std")

    def test_as_dict_round_trips(self):
        summary = summarize([1.0, 2.0, 4.0])
        data = summary.as_dict()
        assert data == {
            "n": 3, "mean": summary.mean, "median": 2.0, "std": summary.std,
            "min": 1.0, "max": 4.0,
        }

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestMetricSummary:
    def test_frozen(self):
        summary = summarize([1.0, 2.0])
        with pytest.raises(AttributeError):
            summary.mean = 0.0
        assert isinstance(summary, MetricSummary)
