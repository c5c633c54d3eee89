"""CLI tests: ``versal-gemm bench`` exit codes and gating.

A slowed leg fails its timing pair, a slow eval leg fails the
evaluations/s floor, and a pair this host cannot arm does not gate.
Every wall clock the gates read is pinned, so these tests never gate
on host speed.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.bench import smoke
from repro.bench.experiments import EvalThroughputExperiment, PairedExperiment
from repro.cli import build_parser, main


def _bench_parser():
    (bench,) = [
        action.choices["bench"] for action in build_parser()._actions
        if getattr(action, "choices", None) and "bench" in action.choices
    ]
    return bench


def test_bench_takes_only_repeats_and_out_dir():
    flags = [action.option_strings for action in _bench_parser()._actions]
    assert flags == [["-h", "--help"], ["-n", "--repeats"], ["--out-dir"]]


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
        idle = {"base": lambda: None, "change": lambda: None}
        monkeypatch.setattr(
            PairedExperiment, "prepare", lambda self: setattr(self, "_legs", idle)
        )
    monkeypatch.setattr(
        smoke, "noop_span_ns",
        lambda: {"noop_span_ns": 1e4 if slowed == "noop" else 100.0},
    )
    monkeypatch.setattr(smoke, "usable_cpus", lambda: smoke.SHARDED_MIN_CPUS)


class TestBenchSmoke:
    def test_smoke_small_runs_end_to_end(self, tmp_path, capsys, monkeypatch):
        """A one-repeat run writes every artifact and exits 0."""
        _fixed_duration(monkeypatch, 1e-6)
        _fixed_pairs(monkeypatch)
        code = main(["bench", "--out-dir", str(tmp_path), "-n", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        for name in ("eval",) + _PAIRS:
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
        code = main(["bench", "--out-dir", str(tmp_path), "-n", "1"])
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
        code = main(["bench", "--out-dir", str(tmp_path), "-n", "1"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "sharded: 1 repeats  median ratio 10.000  disarmed " \
            "(2 usable CPUs, needs 4)" in out

    def test_smoke_fails_below_the_evals_per_sec_floor(
        self, tmp_path, capsys, monkeypatch
    ):
        _fixed_duration(monkeypatch, 10.0)
        _fixed_pairs(monkeypatch, run_legs=False)
        code = main(["bench", "--out-dir", str(tmp_path), "-n", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "eval: [regression] serial_evals_per_sec" in err
        assert "eval: [regression] cached_evals_per_sec" in err


BENCHMARKING_MD = Path(__file__).resolve().parents[2] / "docs" / "benchmarking.md"


def _doc_rows(first_header: str) -> list[dict[str, str]]:
    """Rows of the docs/benchmarking.md table whose first column is
    ``first_header``, each as {column header: cell}, keyed by the
    first cell's backticked name."""
    rows, header = [], None
    for line in BENCHMARKING_MD.read_text().splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if header is None:
            header = cells
        elif header[0] == first_header and cells[0].startswith("`"):
            rows.append(dict(zip(header, cells), key=cells[0].strip("`")))
    return rows


class TestBenchDocs:
    """Every option and every gate of ``bench`` has exactly one row in
    docs/benchmarking.md naming what it serves."""

    def test_every_option_has_one_row(self):
        documented = Counter(row["key"] for row in _doc_rows("Option"))
        options = [
            max(action.option_strings, key=len)
            for action in _bench_parser()._actions
            if action.dest != "help"
        ]
        assert documented == dict.fromkeys(options, 1)
        assert all(row["Serves"] for row in _doc_rows("Option"))

    def test_every_gate_has_one_row(self):
        armed = [f"eval.{gate.metric}" for gate in smoke.eval_smoke_gates()]
        armed += [
            f"{pair.name}.{gate.metric}"
            for pair in smoke.smoke_pairs()
            for gate in pair.gates
        ]
        documented = Counter(row["key"] for row in _doc_rows("Gate"))
        assert documented == dict.fromkeys(armed, 1)
        assert all(row["Serves"] for row in _doc_rows("Gate"))
