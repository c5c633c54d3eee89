"""Unit tests: the repeated-run driver, probes, and result artifacts."""

import csv
import json

import pytest

from repro.bench.experiments import (
    EstimateExperiment,
    LoadSweepExperiment,
    PipelineExperiment,
)
from repro.bench.noise import DramJitterNoise, ThermalDeratingNoise
from repro.bench.runner import BenchResult, run_bench, write_csv, write_json

#: metrics that are measurements of this process, not seeded draws —
#: the only ones allowed to differ between serial and parallel runs
_WALL_METRICS = ("wall_seconds", "wall_seconds_sweep", "wall_rps")


def _seeded_only(sample: dict) -> dict:
    return {
        name: value
        for name, value in sample.items()
        if name not in _WALL_METRICS and not name.startswith("stats_")
        and not name.startswith("span_")
    }


class TestRunBench:
    def test_basic_result_shape(self):
        result = run_bench(EstimateExperiment(), repeats=3, seed=5)
        assert isinstance(result, BenchResult)
        assert result.kind == "estimate"
        assert result.repeats == 3 and len(result.samples) == 3
        assert "total_seconds" in result.summaries
        assert "wall_seconds" in result.summaries  # timer probe
        assert "stats_evaluations" in result.summaries  # stats probe
        assert result.metric("total_seconds").n == 3

    def test_unknown_metric_raises(self):
        result = run_bench(EstimateExperiment(), repeats=2)
        with pytest.raises(KeyError, match="no metric"):
            result.metric("nope")

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_bench(EstimateExperiment(), repeats=0)

    def test_jobs_parallelism_is_byte_identical(self):
        noise = [DramJitterNoise(0.1), ThermalDeratingNoise(0.2)]
        serial = run_bench(EstimateExperiment(), repeats=6, seed=9, noise=noise)
        threaded = run_bench(
            EstimateExperiment(), repeats=6, seed=9, noise=noise, jobs=3
        )
        assert [_seeded_only(s) for s in serial.samples] == [
            _seeded_only(s) for s in threaded.samples
        ]

    def test_noise_described_in_result(self):
        result = run_bench(
            EstimateExperiment(), repeats=2, noise=[DramJitterNoise(0.25)]
        )
        assert result.noise == ["dram:0.25"]
        assert run_bench(EstimateExperiment(), repeats=2).noise == []

    def test_thermal_noise_slows_pipeline(self):
        clean = run_bench(PipelineExperiment(items=512), repeats=3, seed=2)
        noisy = run_bench(
            PipelineExperiment(items=512), repeats=3, seed=2,
            noise=[ThermalDeratingNoise(0.2)],
        )
        assert (
            noisy.metric("makespan_seconds").min
            > clean.metric("makespan_seconds").max
        )

    def test_sweep_experiment_metrics(self):
        result = run_bench(
            LoadSweepExperiment(offered_loads=[500.0, 1000.0],
                                num_requests=200),
            repeats=2, seed=3,
        )
        assert result.metric("points").mean == 2.0
        assert "max_achieved_rps" in result.summaries


class TestArtifacts:
    def test_write_csv_round_trips(self, tmp_path):
        result = run_bench(EstimateExperiment(), repeats=2, seed=1)
        path = tmp_path / "out.csv"
        write_csv(result, path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        names = {row["metric"] for row in rows}
        assert "total_seconds" in names
        row = next(row for row in rows if row["metric"] == "total_seconds")
        assert float(row["mean"]) == result.metric("total_seconds").mean
        assert int(row["n"]) == 2

    def test_write_json_round_trips(self, tmp_path):
        result = run_bench(EstimateExperiment(), repeats=2, seed=1)
        path = tmp_path / "out.json"
        write_json(result, path)
        entry = json.loads(path.read_text())
        assert entry["kind"] == "estimate"
        assert entry["repeats"] == 2
        assert entry["metrics"]["total_seconds"]["n"] == 2
        assert len(entry["samples"]) == 2
        assert set(entry["environment"]) == {
            "python", "numpy", "machine", "usable_cpus", "native_kernel",
            "pythondontwritebytecode",
        }

    def test_entry_is_json_serializable(self):
        result = run_bench(
            EstimateExperiment(), repeats=2, noise=[DramJitterNoise()]
        )
        blob = json.dumps(result.entry())
        assert "dram:0.1" in blob
