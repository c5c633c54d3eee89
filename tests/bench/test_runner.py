"""Unit tests: the repeated-run driver, paired timing, and artifacts."""

import csv
import json
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.bench import experiments
from repro.bench.experiments import Experiment, PairedExperiment
from repro.bench.runner import BenchResult, run_bench, write_csv, write_json


class Counting(Experiment):
    """Reports its repeat index and the square of it."""

    kind = "counting"

    def __init__(self):
        self.repeat = 0
        self.closed = False

    def params(self):
        return {"start": 0}

    def run_repeat(self):
        self.repeat += 1
        return {"repeat": float(self.repeat), "square": float(self.repeat ** 2)}

    def close(self):
        self.closed = True


class TestRunBench:
    def test_basic_result_shape(self):
        experiment = Counting()
        result = run_bench(experiment, repeats=3)
        assert isinstance(result, BenchResult)
        assert result.kind == "counting" and result.params == {"start": 0}
        assert result.repeats == 3 and len(result.samples) == 3
        assert [s["repeat"] for s in result.samples] == [1.0, 2.0, 3.0]
        assert "wall_seconds" in result.summaries  # every repeat is timed
        assert result.metric("square").n == 3
        assert result.metric("square").median == 4.0
        assert experiment.closed

    def test_unknown_metric_raises(self):
        result = run_bench(Counting(), repeats=2)
        with pytest.raises(KeyError, match="no metric"):
            result.metric("nope")

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_bench(Counting(), repeats=0)


class _Clock:
    """A fake ``time`` module whose clock only the legs advance."""

    def __init__(self):
        self.now = 0.0
        self.module = SimpleNamespace(perf_counter=lambda: self.now)


@pytest.mark.parametrize("cold_leg", ["base", "change"])
def test_paired_legs_are_warm_before_the_first_timed_round(cold_leg, monkeypatch):
    """A leg that is slow only on its first call after the repeat's
    garbage collection must not move the leg times the pair reports."""
    clock = _Clock()
    collected = {"fresh": False}

    def collect():
        collected["fresh"] = True

    def leg(name, seconds):
        def run():
            clock.now += seconds
            if name == cold_leg and collected["fresh"]:
                clock.now += 5.0
            if name == cold_leg:
                collected["fresh"] = False
        return run

    @contextmanager
    def setup():
        yield leg("base", 1.0), leg("change", 1.5)

    monkeypatch.setattr(experiments, "time", clock.module)
    monkeypatch.setattr(experiments, "gc", SimpleNamespace(collect=collect))
    pair = PairedExperiment("cold", setup, requests=1000, rounds=4)
    result = run_bench(pair, repeats=2)
    assert result.metric("base_seconds").max == 1.0
    assert result.metric("change_seconds").max == 1.5
    assert result.metric("ratio").max == 1.5
    assert result.metric("extra_ns_per_request").max == pytest.approx(0.5e6)


class TestArtifacts:
    def test_write_csv_round_trips(self, tmp_path):
        result = run_bench(Counting(), repeats=2)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0]) == ["metric", "n", "mean", "median", "std", "min", "max"]
        row = next(row for row in rows if row["metric"] == "square")
        assert float(row["mean"]) == result.metric("square").mean == 2.5
        assert int(row["n"]) == 2

    def test_write_json_round_trips(self, tmp_path):
        result = run_bench(Counting(), repeats=2)
        path = tmp_path / "out.json"
        write_json(result, path)
        entry = json.loads(path.read_text())
        assert entry["kind"] == "counting"
        assert entry["repeats"] == 2
        assert entry["metrics"]["square"]["n"] == 2
        assert len(entry["samples"]) == 2
        assert set(entry["environment"]) == {
            "python", "numpy", "machine", "usable_cpus", "native_kernel",
            "pythondontwritebytecode",
        }

    def test_entry_is_json_serializable(self):
        blob = json.dumps(run_bench(Counting(), repeats=2).entry())
        assert '"square"' in blob
