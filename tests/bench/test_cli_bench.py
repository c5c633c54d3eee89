"""CLI tests: ``versal-gemm bench`` exit codes and regression gating.

The acceptance contract lives here: against the committed
``BENCH_serving.json`` the pinned serving scenario passes clean, an
injected slowdown (``--noise``) exits non-zero through the CLI, and a
slowed leg fails its ``--smoke`` timing pair.  Every wall clock the
smoke gates read is pinned, so these tests never gate on host speed.
"""

import json

import pytest

from repro.bench import smoke
from repro.bench.experiments import EvalThroughputExperiment, PairedExperiment
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


_PAIRS = ("fastpath", "wide", "sharded", "tracer", "monitor")


def _fixed_pairs(monkeypatch, slowed=None, run_legs=True):
    """Time every pair's base leg at 1 s and its change leg at 0.1 s.

    The ``slowed`` pair's change leg takes 10 s instead (``"noop"``
    slows the disabled ``span()`` call the tracer pair measures).  With
    ``run_legs`` each leg still runs, so the pairs' set-up and legs are
    exercised for real; without it neither runs.  Arming is forced on,
    so every pair gates on any host.
    """
    def timed(self, leg):
        if run_legs:
            self._legs[leg]()
        if leg == "base":
            return 1.0
        return 10.0 if self.name == slowed else 0.1

    monkeypatch.setattr(PairedExperiment, "_time", timed)
    if not run_legs:
        monkeypatch.setattr(PairedExperiment, "prepare", lambda self: None)
    monkeypatch.setattr(
        smoke, "noop_span_ns",
        lambda: {"noop_span_ns": 1e4 if slowed == "noop" else 100.0},
    )
    monkeypatch.setattr(smoke, "usable_cpus", lambda: smoke.SHARDED_MIN_CPUS)
    monkeypatch.setattr(smoke, "native_available", lambda: True)


class TestBenchSmoke:
    def test_smoke_small_runs_end_to_end(self, tmp_path, capsys, monkeypatch):
        """A reduced --smoke run writes every artifact and exits 0
        (simulated percentiles only improve at smaller request counts)."""
        _fixed_duration(monkeypatch, 1e-6)
        _fixed_pairs(monkeypatch)
        code = main(["bench", "--smoke", "--out-dir", str(tmp_path),
                     "-n", "1", "--requests", "100000"])
        out = capsys.readouterr().out
        assert code == 0, out
        for name in ("serving", "eval") + _PAIRS:
            assert (tmp_path / f"bench_smoke_{name}.csv").exists()
            entry = json.loads((tmp_path / f"bench_smoke_{name}.json").read_text())
            assert entry["environment"]["usable_cpus"] >= 1
        for name in _PAIRS:
            assert f"{name}: 1 repeats  median ratio 0.100  armed" in out

    @pytest.mark.parametrize(
        "slowed, metric",
        [(pair, "ratio") for pair in _PAIRS[:-1]]
        + [("monitor", "extra_ns_per_request"), ("noop", "noop_span_ns")],
    )
    def test_slowed_change_leg_fails_its_pair(
        self, slowed, metric, tmp_path, capsys, monkeypatch
    ):
        _fixed_duration(monkeypatch, 1e-6)
        _fixed_pairs(monkeypatch, slowed=slowed, run_legs=False)
        code = main(["bench", "--smoke", "--out-dir", str(tmp_path),
                     "-n", "1", "--requests", "20000"])
        err = capsys.readouterr().err
        assert code == 1
        pair = "tracer" if slowed == "noop" else slowed
        failing = [line for line in err.splitlines() if "[regression]" in line]
        assert len(failing) == 1, err
        assert failing[0].startswith(f"{pair}: [regression] {metric} = ")

    def test_disarmed_pair_does_not_gate(self, tmp_path, capsys, monkeypatch):
        _fixed_duration(monkeypatch, 1e-6)
        _fixed_pairs(monkeypatch, slowed="sharded", run_legs=False)
        monkeypatch.setattr(smoke, "usable_cpus", lambda: 2)
        code = main(["bench", "--smoke", "--out-dir", str(tmp_path),
                     "-n", "1", "--requests", "20000"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "sharded: 1 repeats  median ratio 10.000  disarmed " \
            "(2 usable CPUs, needs 4)" in out

    def test_smoke_fails_below_the_evals_per_sec_floor(
        self, tmp_path, capsys, monkeypatch
    ):
        _fixed_duration(monkeypatch, 10.0)
        _fixed_pairs(monkeypatch, run_legs=False)
        code = main(["bench", "--smoke", "--out-dir", str(tmp_path),
                     "-n", "2", "--requests", "100000"])
        err = capsys.readouterr().err
        assert code == 1
        assert "eval: [regression] serial_evals_per_sec" in err
        assert "eval: [regression] cached_evals_per_sec" in err
