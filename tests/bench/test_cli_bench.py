"""CLI tests: ``versal-gemm bench`` exit codes and regression gating.

The acceptance contract lives here: against the committed
``BENCH_serving.json`` the pinned serving scenario passes clean, and an
injected slowdown (``--noise``) exits non-zero through the CLI.
"""

import json

from repro.bench.experiments import EvalThroughputExperiment
from repro.cli import main

#: the pinned BENCH_serving scenario (trace seed 7, auto fast path)
_PINNED = ["bench", "serving", "--fixed-trace", "--dispatch", "auto",
           "-n", "2", "--requests", "1000000"]


class TestBenchBasics:
    def test_estimate_kind_runs(self, capsys):
        assert main(["bench", "estimate", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "bench estimate: 2 repeats" in out
        assert "total_seconds" in out

    def test_pipeline_kind_runs(self, capsys):
        assert main(["bench", "pipeline", "-n", "2", "--items", "256"]) == 0
        assert "makespan_seconds" in capsys.readouterr().out

    def test_requires_kind_or_smoke(self, capsys):
        assert main(["bench"]) == 2
        assert "pass an experiment kind" in capsys.readouterr().err

    def test_bad_noise_spec(self, capsys):
        assert main(["bench", "estimate", "--noise", "cosmic"]) == 2
        assert "unknown noise kind" in capsys.readouterr().err

    def test_noise_rejected_for_eval_kind(self, capsys):
        assert main(["bench", "eval", "--noise", "dram"]) == 2
        assert "noise models do not apply" in capsys.readouterr().err

    def test_serving_scan_dispatch_streams(self, capsys):
        """The scan oracle serves the default streaming bench too."""
        argv = ["bench", "serving", "--dispatch", "scan", "--requests", "2000",
                "--repeats", "1"]
        assert main(argv) == 0
        assert "completed_requests  2000" in capsys.readouterr().out

    def test_writes_artifacts(self, tmp_path, capsys):
        csv_out = tmp_path / "r.csv"
        json_out = tmp_path / "r.json"
        code = main(["bench", "estimate", "-n", "2",
                     "--csv-out", str(csv_out), "--json-out", str(json_out)])
        assert code == 0
        assert csv_out.exists()
        entry = json.loads(json_out.read_text())
        assert entry["kind"] == "estimate" and entry["repeats"] == 2


class TestBenchRegressionGating:
    def test_committed_serving_baseline_passes_clean(self, capsys):
        """The pinned scenario reproduces BENCH_serving.json's simulated
        percentiles, so the baseline gates hold."""
        code = main(_PINNED + ["--baseline", "BENCH_serving.json"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "p50" in out

    def test_injected_slowdown_fails_committed_baseline(self, capsys):
        """Thermal noise inflates the simulated percentiles beyond the
        tolerance band: the detector must exit non-zero."""
        code = main(_PINNED + ["--noise", "thermal:0.2",
                               "--baseline", "BENCH_serving.json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "regression" in captured.err

    def test_corrupt_baseline_fails_loudly(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        code = main(["bench", "serving", "--fixed-trace", "-n", "2",
                     "--requests", "20000", "--baseline", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "corrupt_baseline" in captured.err

    def test_missing_baseline_file_does_not_fail_optional_gates(self, tmp_path):
        """An absent baseline file only fails gates that require one;
        the serving gates do, so the run reports a regression."""
        code = main(["bench", "serving", "--fixed-trace", "-n", "2",
                     "--requests", "20000",
                     "--baseline", str(tmp_path / "none.json")])
        # p50/p99 gates set require_baseline=True -> regression
        assert code == 1

    def test_baseline_unsupported_for_pipeline_kind(self, tmp_path, capsys):
        (tmp_path / "b.json").write_text("[{}]")
        code = main(["bench", "pipeline", "-n", "2", "--items", "128",
                     "--baseline", str(tmp_path / "b.json")])
        assert code == 2
        assert "no baseline gates" in capsys.readouterr().err


def _fixed_duration(monkeypatch, seconds):
    """Time every eval-leg exploration at ``seconds``.

    The exploration itself still runs, so ranking identity is computed
    for real; only the wall clock, which depends on host load, is pinned.
    """
    def timed(self, explorer):
        return seconds, explorer.explore(self.workload)

    monkeypatch.setattr(EvalThroughputExperiment, "_timed", timed)


class TestBenchSmoke:
    def test_smoke_small_runs_end_to_end(self, tmp_path, capsys, monkeypatch):
        """A reduced --smoke run writes all four artifacts and exits 0
        (simulated percentiles only improve at smaller request counts)."""
        _fixed_duration(monkeypatch, 1e-6)
        code = main(["bench", "--smoke", "--out-dir", str(tmp_path),
                     "-n", "2", "--requests", "100000"])
        out = capsys.readouterr().out
        assert code == 0, out
        for name in ("bench_smoke_serving.csv", "bench_smoke_serving.json",
                     "bench_smoke_eval.csv", "bench_smoke_eval.json"):
            assert (tmp_path / name).exists()

    def test_smoke_fails_below_the_evals_per_sec_floor(
        self, tmp_path, capsys, monkeypatch
    ):
        _fixed_duration(monkeypatch, 10.0)
        code = main(["bench", "--smoke", "--out-dir", str(tmp_path),
                     "-n", "2", "--requests", "100000"])
        err = capsys.readouterr().err
        assert code == 1
        assert "eval: [regression] serial_evals_per_sec" in err
        assert "eval: [regression] cached_evals_per_sec" in err
