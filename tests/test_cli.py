"""CLI tests."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

DATA = Path(__file__).resolve().parent / "data"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "table2" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "384x128x256" in out

    def test_run_csv_format(self, capsys):
        assert main(["run", "table3", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "B1" in out and "," in out

    def test_run_json_format(self, capsys):
        assert main(["run", "table1", "--format", "json"]) == 0
        assert "aiesimulator" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("run: unknown experiment 'fig99'; known: ")
        assert "fig9, " in line and "table3" in line

    def test_chart_unknown_experiment(self, capsys):
        assert main(["chart", "fig99", "--value", "plios"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("chart: unknown experiment 'fig99'; known: ")

    def test_estimate(self, capsys):
        assert main(["estimate", "1024x1024x1024", "--config", "C3"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck" in out and "throughput" in out

    def test_dse(self, capsys):
        assert main(["dse", "512x512x512", "--precision", "fp32", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out

    def test_stats_reset_per_invocation(self, capsys):
        argv = ["--stats", "dse", "768x768x768", "--precision", "int8", "--top", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().err
        assert main(argv) == 0
        second = capsys.readouterr().err
        # both runs report exactly their own batch — the second run hits
        # the process-wide cache but its counters start from zero again
        assert "over 1 batches" in first
        assert "over 1 batches" in second
        assert "/ 0 misses" not in first.splitlines()[0]
        assert "/ 0 misses" in second.splitlines()[0]

    def test_model(self, capsys):
        assert main(["model", "BERT-large", "--tokens", "256"]) == 0
        out = capsys.readouterr().out
        assert "forward pass" in out and "mlp_up" in out

    def test_model_fixed_config(self, capsys):
        assert main(["model", "BERT-large", "--tokens", "256", "--fixed-config"]) == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out

    def test_trace(self, capsys):
        assert main(["trace", "1024x1024x1024", "--config", "C11", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "load/AIE overlap" in out and "|" in out

    def test_estimate_json(self, capsys):
        import json

        assert main(["estimate", "1024x1024x1024", "--config", "C3", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["workload"] == "1024x1024x1024"
        assert parsed["design"]["config"]["name"] == "C3"

    def test_roofline(self, capsys):
        assert main(["roofline", "--width", "50", "--height", "10"]) == 0
        out = capsys.readouterr().out
        assert "o=ideal" in out and "/" in out

    def test_graph_summary(self, capsys):
        assert main(["graph", "--config", "C1"]) == 0
        out = capsys.readouterr().out
        assert "packs" in out and "PLIO" in out

    def test_graph_dot(self, capsys):
        assert main(["graph", "--config", "C7", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "C7"')

    def test_chart(self, capsys):
        assert main(["chart", "table3", "--value", "gflop", "--label", "id"]) == 0
        out = capsys.readouterr().out
        assert "#" in out and "L2" in out

    def test_chart_log_scale(self, capsys):
        assert main(["chart", "table3", "--value", "gflop", "--label", "id", "--log"]) == 0
        assert "#" in capsys.readouterr().out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "results.md"
        assert main(["report", "-o", str(target)]) == 0
        text = target.read_text()
        assert "# Reproduction results" in text
        assert "fig9" in text and "table2" in text and "insights" in text


class TestServe:
    SHAPES = "1024x1024x1024,512x512x512"

    def test_point_mode(self, capsys):
        argv = ["serve", self.SHAPES, "--requests", "200", "--rate", "2000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "throughput" in out and "requests" in out

    def test_streaming_matches_exact_summary_fields(self, capsys):
        argv = ["serve", self.SHAPES, "--requests", "300", "--streaming"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "makespan" in out

    def test_dispatch_pinning(self, capsys):
        base = ["serve", self.SHAPES, "--requests", "150", "--seed", "3"]
        outputs = []
        for engine in ("scan", "auto"):
            assert main(base + ["--dispatch", engine]) == 0
            outputs.append(capsys.readouterr().out)
        # byte-identical dispatch => byte-identical summaries
        assert len(set(outputs)) == 1

    def test_sweep_jobs_output_identical(self, capsys):
        argv = [
            "serve", self.SHAPES, "--sweep", "--requests", "150",
            "--loads", "100,500,2500",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(["--jobs", "2"] + argv) == 0
        assert capsys.readouterr().out == serial

    def test_sweep(self, capsys):
        argv = [
            "serve", self.SHAPES, "--sweep", "--requests", "150",
            "--loads", "100,500",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "offered-load sweep" in out and "p99_ms" in out

    def test_rejects_rate_and_interarrival_together(self, capsys):
        argv = [
            "serve", self.SHAPES, "--rate", "100",
            "--mean-interarrival", "0.01",
        ]
        assert main(argv) == 2
        assert "not both" in capsys.readouterr().err

    def test_streaming_scan_dispatch_matches_auto(self, capsys):
        base = ["serve", self.SHAPES, "--requests", "150", "--streaming"]
        assert main(base + ["--dispatch", "scan"]) == 0
        scan = capsys.readouterr().out
        assert main(base) == 0
        # one report sink: the oracle's streaming report is byte-identical
        assert capsys.readouterr().out == scan
        assert "streaming" in scan

    def test_stats_reports_native_kernel_flag(self, capsys):
        from repro.obs.metrics import GLOBAL_METRICS
        from repro.sim._native import native_available

        argv = ["--stats", "serve", self.SHAPES, "--requests", "150"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        native_line = next(
            line for line in err.splitlines() if line.startswith("native")
        )
        expected = "available" if native_available() else "unavailable"
        assert expected in native_line
        if native_available():
            from repro.sim._native import NATIVE_ORIGIN

            assert NATIVE_ORIGIN in native_line
        family = GLOBAL_METRICS.snapshot()["repro_native_available"]
        assert family["type"] == "gauge"
        assert family["values"][0]["value"] == (
            1.0 if native_available() else 0.0
        )


_SERVE = ["serve", "512x512x512", "--requests", "100"]
_HUGE_GAP = ["--mean-interarrival", "1e308"]
_TINY_SERVE = ["serve", "512x512x512", "--requests", "50"]
_COARSE_SERVE = ["serve", "1024x1024x1024,512x512x512", "--configs", "C5,C3",
                 "--requests", "1000"]


class TestBadInput:
    """Bad flag values end in a one-line argparse error, never a traceback."""

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["serve", "0x1x1"], "0x1x1"),
            (["serve", "1x2"], "1x2"),
            (["serve", "axbxc"], "axbxc"),
            (["serve", "1e3x1x1"], "1e3x1x1"),
            (["serve", "512x512x512,0x1x1"], "0x1x1"),
            (["serve", ","], ","),
            (["estimate", "1x2"], "1x2"),
            (["dse", "axbxc"], "axbxc"),
            (["estimate", "64x64x64", "--config", "C99"], "C99"),
            (_SERVE[:2] + ["--requests", "0"], "0"),
            (_SERVE + ["--rate", "-1"], "-1"),
            (_SERVE + ["--rate", "0"], "0"),
            (_SERVE + ["--rate", "inf"], "inf"),
            (_SERVE + ["--rate", "nan"], "nan"),
            (_SERVE + ["--mean-interarrival", "0"], "0"),
            (_SERVE + ["--configs", "C99"], "C99"),
            (_SERVE + ["--configs", "C5,C99"], "C99"),
            (_SERVE + ["--max-retries", "-1", "--faults", "chaos"], "-1"),
            (_SERVE + ["--quantile-error", "0"], "0"),
            (_SERVE + ["--quantile-error", "nan"], "nan"),
            (["trace", "1x2"], "1x2"),
            (["trace", "256x256x256", "--config", "C99"], "C99"),
            (["dse", "512x512x512", "--top", "0"], "0"),
            (_SERVE + ["--mean-interarrival", "nan"], "nan"),
            (_SERVE + ["--quantile-error", "1"], "1"),
            (["bench", "--repeats", "-1"], "-1"),
            (["dse", "0x1x1"], "0x1x1"),
            (["chart", "fig5", "--value", "efficiency", "--width", "0"], "0"),
            (_SERVE + ["--sweep", "--loads", "-5"], "-5"),
            (_SERVE + ["--sweep", "--loads", "abc"], "abc"),
            (_SERVE + ["--sweep", "--loads", "500,inf"], "inf"),
            (_SERVE + ["--sweep", "--loads", ","], ","),
            (_SERVE + ["--sweep", "--loads", "0"], "0"),
            (["dse", "512x512x512", "--top", "-1"], "-1"),
            (["trace", "256x256x256", "--width", "0"], "0"),
            (["model", "BERT-large", "--tokens", "0"], "0"),
            (["roofline", "--width", "1"], "1"),
            (["roofline", "--width", "0"], "0"),
            (["roofline", "--height", "0"], "0"),
            (["chart", "fig5", "--value", "efficiency", "--width", "-3"], "-3"),
            (["bench", "-n", "0"], "0"),
            (_SERVE + ["--configs", "C5,C5"], "C5"),
            (_SERVE + ["--configs", "C5,C3,C5"], "C5"),
            (["model", "nope"], "nope"),
            (_SERVE + ["--windows", "0"], "0"),
            (_SERVE + ["--shards", "0"], "0"),
        ],
    )
    def test_exits_2_naming_the_value(self, argv, token, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert repr(token) in err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("versal-gemm ")

    @pytest.mark.parametrize(
        "argv, line",
        [
            (_SERVE + ["--configs", "C5,C5"],
             "versal-gemm serve: error: argument --configs: "
             "duplicate config 'C5'"),
            (["model", "nope"],
             "versal-gemm model: error: argument model: unknown model "
             "'nope'; known: BERT-large, ViT-L, Llama2-7B, Llama2-13B, "
             "Llama2-70B"),
        ],
        ids=["duplicate-config", "unknown-model"],
    )
    def test_parser_error_line(self, argv, line, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == line

    @pytest.mark.parametrize(
        "configs, line",
        [
            ("C1,C2,C3,C4,C5,C6,C7,C8,C9",
             "serve: partition needs 992 AIEs; device has 400"),
        ],
        ids=["too-many-aies"],
    )
    def test_partition_that_does_not_fit_exits_2_storing_no_table(
        self, configs, line, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert main(_SERVE + ["--configs", configs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [line]
        assert list(tmp_path.glob("repro/services-*")) == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (_TINY_SERVE + ["--rate", "1e-320"], "serve: --rate 1e-320"),
            (_TINY_SERVE + _HUGE_GAP, "serve: --mean-interarrival 1e+308"),
            (_TINY_SERVE + _HUGE_GAP + ["--shards", "2", "--streaming"],
             "serve: --mean-interarrival 1e+308"),
            (_TINY_SERVE + _HUGE_GAP + ["--faults", "chaos"],
             "serve: --mean-interarrival 1e+308"),
            (_TINY_SERVE + ["--sweep", "--loads", "500,1e-310"],
             "serve: --loads 1e-310"),
        ],
        ids=["rate", "unsharded", "sharded", "chaos", "serve-sweep-loads"],
    )
    def test_overflowing_arrival_clock_exits_2_before_running(
        self, argv, flag, capsys, recwarn
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{flag} overflows the arrival clock of 50 requests"
        ]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (_COARSE_SERVE + ["--rate", "1e-14"], "serve: --rate 1e-14"),
            (_COARSE_SERVE + ["--rate", "1e-10", "--streaming"],
             "serve: --rate 1e-10"),
            (_COARSE_SERVE + ["--mean-interarrival", "1e10", "--shards", "2",
                              "--streaming"],
             "serve: --mean-interarrival 10000000000.0"),
            (_COARSE_SERVE + ["--sweep", "--loads", "500,1e-10"],
             "serve: --loads 1e-10"),
        ],
        ids=["rate", "streaming", "sharded", "serve-sweep-loads"],
    )
    def test_too_coarse_arrival_clock_exits_2_naming_the_flag(
        self, argv, flag, capsys
    ):
        # at 1e13 s the clock's spacing is ~2 ms: every latency of a
        # ~330 us service would print quantized (0.0 us at --rate 1e-14)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"{flag} spaces the arrival clock of 1000 requests ")
        assert line.endswith("coarser than 0.01 of the 0.00033 s shortest service time")

    def test_slow_rate_with_a_fine_enough_clock_still_runs(self, capsys):
        assert main(_COARSE_SERVE + ["--rate", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "latency      p50 329.7 us" in out

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_jobs_exits_2_naming_the_value(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["-j", value, "list"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1] == (
            "versal-gemm: error: argument --jobs/-j: "
            f"expected an integer >= 0, got {value!r}"
        )


_OUTPUT_FLAGS = [
    (_SERVE, "--trace-out"),
    (_SERVE, "--metrics-out"),
    (_SERVE, "--monitor-out"),
    (["dse", "512x512x512", "--top", "3"], "--trace-out"),
    (["dse", "512x512x512", "--top", "3"], "--metrics-out"),
]
_OUTPUT_IDS = [f"{argv[0]}{flag}" for argv, flag in _OUTPUT_FLAGS]


class TestOutputPaths:
    """Output files that cannot be written end in one line, never a
    traceback: a missing directory before any work is done, anything
    else when the file is written."""

    @pytest.mark.parametrize("argv, flag", _OUTPUT_FLAGS, ids=_OUTPUT_IDS)
    def test_missing_directory_exits_2_before_running(
        self, argv, flag, capsys, tmp_path
    ):
        path = str(tmp_path / "missing" / "out.json")
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, path])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        last = captured.err.strip().splitlines()[-1]
        assert last.startswith(f"versal-gemm {argv[0]}: error: argument {flag}: ")
        assert repr(path) in last

    def test_out_dir_under_a_file_exits_2_before_running(self, capsys, tmp_path):
        regular = tmp_path / "file"
        regular.write_text("")
        path = str(regular / "bench")
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--out-dir", path])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines()[-1] == (
            "versal-gemm bench: error: argument --out-dir: cannot make "
            f"directory {path!r}: {str(regular)!r} is not a directory"
        )

    @pytest.mark.parametrize("argv, flag", _OUTPUT_FLAGS, ids=_OUTPUT_IDS)
    def test_unwritable_file_exits_1_with_one_line(
        self, argv, flag, capsys, tmp_path
    ):
        # the directory exists, but a directory cannot be opened as a file
        assert main(argv + [flag, str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            f"versal-gemm: cannot write {flag} {tmp_path}: Is a directory"
        )


class TestServeFaults:
    SHAPES = "1024x1024x1024,512x512x512"
    BASE = ["serve", SHAPES, "--requests", "200", "--rate", "2000", "--seed", "3"]

    def test_window_spec_prints_fault_lines(self, capsys):
        argv = self.BASE + ["--faults", "C5:down:0.01:0.03"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "availability" in out
        assert "kills" in out and "shed" in out

    def test_chaos_mode_deterministic_under_seed(self, capsys):
        argv = self.BASE + ["--faults", "chaos", "--fault-seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_fault_seed_changes_chaos_schedule(self, capsys):
        outputs = []
        for seed in ("1", "2"):
            argv = self.BASE + ["--faults", "chaos", "--fault-seed", seed]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]

    def test_faulted_dispatch_engines_byte_identical(self, capsys):
        outputs = []
        for engine in ("scan", "auto"):
            argv = self.BASE + [
                "--faults", "C5:down:0.005:0.02,C3:slow:2.5:0.0:0.05",
                "--dispatch", engine,
            ]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_device_degraded_window_runs(self, capsys):
        argv = self.BASE + ["--faults", "C5:cols:1:0.0:0.05"]
        assert main(argv) == 0
        assert "availability" in capsys.readouterr().out

    def test_bad_spec_exits_2(self, capsys):
        argv = self.BASE + ["--faults", "C9:down:0.0:0.1"]
        assert main(argv) == 2
        assert "unknown accelerator" in capsys.readouterr().err

    def test_malformed_spec_exits_2(self, capsys):
        argv = self.BASE + ["--faults", "C5:frob:1:2:3"]
        assert main(argv) == 2
        assert "fault" in capsys.readouterr().err

    def test_fault_free_output_unchanged_by_flag_absence(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "faults" not in out and "availability" not in out

    def test_stats_prints_fault_line(self, capsys):
        argv = ["--stats"] + self.BASE + ["--faults", "C5:down:0.005:0.02"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "fault stats" in captured.err

    def test_sweep_accepts_faults(self, capsys):
        argv = [
            "serve", self.SHAPES, "--sweep", "--requests", "150",
            "--loads", "100,500", "--faults", "C5:down:0.01:0.05",
        ]
        assert main(argv) == 0
        assert "offered-load sweep" in capsys.readouterr().out


class TestObservability:
    SHAPES = "1024x1024x1024,512x512x512"

    def serve_argv(self, *extra):
        return ["serve", self.SHAPES, "--requests", "200", *extra]

    def test_trace_out_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        assert main(self.serve_argv("--trace-out", str(path))) == 0
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "serve.run" for e in events)
        # per-request serving lifecycle rendered alongside the spans
        assert any(e.get("cat") == "execute" for e in events)

    def test_trace_out_tracer_disabled_afterwards(self, tmp_path):
        from repro.obs.spans import GLOBAL_TRACER

        path = tmp_path / "trace.json"
        assert main(self.serve_argv("--trace-out", str(path))) == 0
        assert not GLOBAL_TRACER.enabled

    def test_metrics_out_writes_prometheus_text(self, capsys, tmp_path):
        path = tmp_path / "metrics.prom"
        assert main(self.serve_argv("--metrics-out", str(path))) == 0
        text = path.read_text()
        assert "# TYPE repro_serving_requests_total counter" in text
        assert "repro_serving_requests_total 200" in text
        assert "repro_serving_latency_seconds_count 200" in text
        assert 'repro_serving_latency_seconds_bucket{le="' in text
        assert 'repro_serving_latency_seconds_bucket{le="+Inf"} 200' in text
        assert "repro_eval_evaluations_total" in text  # migrated EvalStats

    def test_streaming_trace_still_exports_spans(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        argv = self.serve_argv("--streaming", "--trace-out", str(path))
        assert main(argv) == 0
        trace = json.loads(path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "serve.run" in names

    def test_dse_trace_out(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        argv = ["dse", "1024x1024x1024", "--top", "3", "--trace-out", str(path)]
        assert main(argv) == 0
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "dse.explore" in names and "model.estimate" in names

    def test_obs_summary_renders_table(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        assert main(self.serve_argv("--trace-out", str(path))) == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "track" in out and "util" in out and "bottleneck:" in out

    def test_obs_summary_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["obs", "summary", str(tmp_path / "nope.json")]) == 2
        assert "obs summary:" in capsys.readouterr().err

    def test_obs_summary_invalid_trace_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": [{"name": "x", "ph": "Z", "ts": 0}]}')
        assert main(["obs", "summary", str(path)]) == 2
        assert "obs summary:" in capsys.readouterr().err

    def test_serving_output_identical_with_and_without_tracing(
        self, capsys, tmp_path
    ):
        argv = self.serve_argv("--seed", "7")
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        traced = argv + ["--trace-out", str(tmp_path / "t.json")]
        assert main(traced) == 0
        assert capsys.readouterr().out == baseline


class TestServeSlo:
    SHAPES = "1024x1024x1024,512x512x512"

    def serve_argv(self, *extra):
        return [
            "serve", self.SHAPES, "--requests", "2000",
            "--mean-interarrival", "5e-4", "--seed", "3", *extra,
        ]

    def test_slo_prints_windowed_timeline_and_verdict(self, capsys):
        argv = self.serve_argv("--slo", "p99<1s,avail>0.9", "--windows", "10")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "windowed telemetry" in out
        assert "rps" in out and "p99" in out
        assert "slo          p99<1s: ok" in out
        assert "avail>0.9: ok" in out

    def test_monitor_out_without_slo_still_prints_timeline(
        self, capsys, tmp_path
    ):
        import json

        path = tmp_path / "monitor.json"
        argv = self.serve_argv("--monitor-out", str(path))
        assert main(argv) == 0
        assert "windowed telemetry" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert "monitor" in data and "slo" not in data
        windows = data["monitor"]["requests"]["values"]
        assert sum(windows.values()) == 2000

    def test_fault_alert_fires_inside_fault_window(self, capsys, tmp_path):
        import json

        path = tmp_path / "monitor.json"
        argv = self.serve_argv(
            "--slo", "p99<50ms,avail>0.999", "--windows", "20",
            "--faults", "C5:down:0.3:0.6",
            "--monitor-out", str(path),
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "BREACH" in out and "ALERT" in out
        alerts = json.loads(path.read_text())["alerts"]
        assert alerts, "fault injection produced no burn-rate alert"
        # the acceptance contract: some alert fires *inside* the
        # injected [0.3s, 0.6s) fault window
        assert any(0.3 <= alert["time"] <= 0.6 for alert in alerts)
        assert {a["severity"] for a in alerts} <= {"fast", "slow"}

    def test_slo_output_identical_to_plain_run_above_the_timeline(
        self, capsys
    ):
        plain = self.serve_argv()
        assert main(plain) == 0
        baseline = capsys.readouterr().out
        assert main(self.serve_argv("--slo", "p99<1s")) == 0
        monitored = capsys.readouterr().out
        # the monitor is additive: the serving summary itself is untouched
        # and the timeline is appended after it
        assert monitored.startswith(baseline.rstrip("\n"))
        assert "windowed telemetry" in monitored
        assert "windowed telemetry" not in baseline

    def test_trace_out_gains_counter_track(self, capsys, tmp_path):
        import json

        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "trace.json"
        argv = self.serve_argv(
            "--slo", "p99<1s", "--windows", "10", "--trace-out", str(path)
        )
        assert main(argv) == 0
        trace = json.loads(path.read_text())
        validate_chrome_trace(trace)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert "serving rps" in names and "serving p99 (ms)" in names

    def test_bad_slo_spec_exits_2(self, capsys):
        assert main(self.serve_argv("--slo", "p99>50ms")) == 2
        assert "SLO" in capsys.readouterr().err

    def test_windows_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(self.serve_argv("--slo", "p99<1s", "--windows", "0"))
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(
            "argument --windows: expected an integer >= 1, got '0'"
        )

    def test_fine_windows_verdict_counts_every_completion(self, capsys):
        argv = ["serve", "512x512x512", "--requests", "10000",
                "--slo", "p99<50ms", "--windows", "5000"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "slo          p99<0.05s: ok (0/10000 bad" in out

    def test_sharded_serve_merges_monitor(self, capsys):
        argv = self.serve_argv(
            "--shards", "2", "--slo", "p99<1s", "--windows", "10"
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "windowed telemetry" in out
        assert "p99<1s: ok" in out

    def test_sweep_slo_column_and_breach_line(self, capsys):
        argv = [
            "serve", self.SHAPES, "--sweep", "--requests", "150",
            "--loads", "100,4000", "--slo", "p99<5ms",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "slo" in out
        assert "slo breach" in out or "BREACH" in out or "none within" in out


class TestObsSlo:
    SHAPES = "1024x1024x1024,512x512x512"

    def _export(self, tmp_path, *extra):
        path = tmp_path / "monitor.json"
        argv = [
            "serve", self.SHAPES, "--requests", "1000",
            "--mean-interarrival", "5e-4", "--seed", "3",
            "--monitor-out", str(path), *extra,
        ]
        assert main(argv) == 0
        return path

    def test_reevaluates_stored_spec(self, capsys, tmp_path):
        path = self._export(tmp_path, "--slo", "p99<1s")
        capsys.readouterr()
        assert main(["obs", "slo", str(path)]) == 0
        out = capsys.readouterr().out
        assert "windowed telemetry" in out
        assert "p99<1s: ok" in out

    def test_override_spec_flips_verdict(self, capsys, tmp_path):
        path = self._export(tmp_path, "--slo", "p99<1s")
        capsys.readouterr()
        assert main(["obs", "slo", str(path), "--slo", "p99<1ns"]) == 0
        out = capsys.readouterr().out
        assert "BREACH" in out

    def test_no_stored_spec_prints_hint(self, capsys, tmp_path):
        path = self._export(tmp_path)
        capsys.readouterr()
        assert main(["obs", "slo", str(path)]) == 0
        captured = capsys.readouterr()
        assert "windowed telemetry" in captured.out
        assert "pass --slo" in captured.err

    def test_file_with_capacity_keys_renders_as_before(self, capsys):
        # written before the capacity keys were dropped: it also carries
        # the requests and peak_latency sections, which are not read back
        assert main(["obs", "slo", str(DATA / "monitor_capacity_keys.json")]) == 0
        expected = (DATA / "monitor_capacity_keys.stdout").read_text()
        assert capsys.readouterr().out == expected

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["obs", "slo", str(tmp_path / "nope.json")]) == 2
        assert "obs slo:" in capsys.readouterr().err

    def test_non_monitor_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": []}')
        assert main(["obs", "slo", str(path)]) == 2
        assert "not a monitor export" in capsys.readouterr().err

    def test_bad_override_spec_exits_2(self, capsys, tmp_path):
        path = self._export(tmp_path)
        capsys.readouterr()
        assert main(["obs", "slo", str(path), "--slo", "frobnicate"]) == 2
        assert "obs slo:" in capsys.readouterr().err
