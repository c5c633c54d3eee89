"""Chrome trace-event export: schema, tracks, latency accounting."""

import json
import warnings

import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.export import (
    SIM_PID,
    ChromeTraceBuilder,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.spans import Tracer
from repro.sim.chaos import FaultPolicy, FaultSchedule
from repro.sim.engine import PipelineSimulator, PipelineStage
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import generate_trace_soa
from repro.sim.trace import ExecutionTrace
from repro.workloads.gemm import GemmShape

SHAPES = (GemmShape(1024, 1024, 1024), GemmShape(512, 512, 512))


def serve(requests=200, faults=None, streaming=False):
    partition = AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    simulator = ServingSimulator(partition)
    simulator.prewarm(SHAPES)
    trace = generate_trace_soa(SHAPES, requests, 0.5e-3, seed=3)
    return simulator.run(
        trace,
        streaming=streaming,
        faults=faults,
        fault_policy=FaultPolicy(max_retries=2) if faults is not None else None,
    )


class TestSpanExport:
    def test_spans_become_complete_events(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer", track="serving", size=2):
            with tracer.span("inner"):
                pass
        trace = ChromeTraceBuilder().add_spans(tracer.spans()).build()
        validate_chrome_trace(trace)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        assert all(e["dur"] >= 0 for e in events)
        depths = {e["name"]: e["args"]["depth"] for e in events}
        assert depths == {"outer": 0, "inner": 1}

    def test_metadata_names_the_track(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", track="serving"):
            pass
        trace = ChromeTraceBuilder().add_spans(tracer.spans()).build()
        thread_names = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert thread_names == ["serving"]

    def test_non_json_attrs_are_stringified(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", shape=GemmShape(8, 8, 8)):
            pass
        trace = ChromeTraceBuilder().add_spans(tracer.spans()).build()
        json.dumps(trace)  # must be serializable
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert isinstance(event["args"]["shape"], str)


class TestServingExport:
    def test_schema_and_per_accelerator_tracks(self):
        report = serve()
        trace = ChromeTraceBuilder().add_serving_report(report).build()
        validate_chrome_trace(trace)
        thread_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        used = {c.accelerator for c in report.completed}
        assert used <= thread_names  # one track per accelerator

    def test_wait_plus_execute_reproduces_latency_accounting(self):
        report = serve()
        trace = ChromeTraceBuilder().add_serving_report(report).build()
        wait_start, wait_us, exec_us = {}, 0.0, 0.0
        for event in trace["traceEvents"]:
            if event.get("cat") == "wait" and event["ph"] == "b":
                wait_start[event["id"]] = event["ts"]
            elif event.get("cat") == "wait" and event["ph"] == "e":
                wait_us += event["ts"] - wait_start[event["id"]]
            elif event.get("cat") == "execute":
                exec_us += event["dur"]
        total = sum(c.latency for c in report.completed)
        assert (wait_us + exec_us) / 1e6 == pytest.approx(total, rel=1e-9)

    def test_fault_run_emits_instants_and_windows(self):
        horizon = 200 * 0.5e-3
        faults = FaultSchedule.down(
            "C5", 0.1 * horizon, 0.6 * horizon
        ) + FaultSchedule.down("C3", 0.2 * horizon, 0.4 * horizon)
        report = serve(faults=faults)
        trace = ChromeTraceBuilder().add_serving_report(report).build()
        validate_chrome_trace(trace)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        windows = [
            e for e in trace["traceEvents"] if e.get("cat") == "fault-window"
        ]
        assert len(windows) == 2
        # the chaos loop produced kills/requeues/sheds -> instant markers
        expected = report.kills + report.requeues + len(report.shed)
        assert len(instants) == expected
        assert len(report.fault_timeline) == report.kills + report.requeues

    @pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
    def test_wall_clock_tracks_leave_simulated_events_alone(self, faulted):
        """Tids are numbered per pid: a serve that records one more
        wall-clock span track exports the same simulated-time events."""
        horizon = 200 * 0.5e-3
        faults = (
            FaultSchedule.down("C5", 0.1 * horizon, 0.6 * horizon)
            if faulted
            else None
        )
        report = serve(faults=faults)

        def simulated_events(extra_span: bool) -> list[dict]:
            tracer = Tracer()
            tracer.enable()
            if extra_span:
                with tracer.span("serve.service_table", track="model"):
                    pass
            with tracer.span("serve.run", track="serving"):
                pass
            trace = (
                ChromeTraceBuilder()
                .add_spans(tracer.spans())
                .add_serving_report(report)
                .build()
            )
            validate_chrome_trace(trace)
            return [e for e in trace["traceEvents"] if e["pid"] == SIM_PID]

        assert simulated_events(True) == simulated_events(False)

    def test_streaming_report_degrades_to_utilization(self):
        report = serve(streaming=True)
        builder = ChromeTraceBuilder()
        with pytest.warns(UserWarning, match="utilization"):
            builder.add_serving_report(report)
        trace = builder.build()
        validate_chrome_trace(trace)
        slices = [
            e for e in trace["traceEvents"] if e.get("cat") == "utilization"
        ]
        assert {e["args"]["requests"] for e in slices} == set(
            report.accelerator_load().values()
        )
        # no per-request lifecycles survive the degrade
        assert not any(e.get("cat") in ("wait", "execute")
                       for e in trace["traceEvents"])

    def test_streaming_fault_run_keeps_fault_windows(self):
        horizon = 200 * 0.5e-3
        faults = FaultSchedule.down("C5", 0.1 * horizon, 0.6 * horizon)
        report = serve(streaming=True, faults=faults)
        builder = ChromeTraceBuilder()
        with pytest.warns(UserWarning, match="fault windows"):
            builder.add_serving_report(report)
        trace = builder.build()
        validate_chrome_trace(trace)
        windows = [
            e for e in trace["traceEvents"] if e.get("cat") == "fault-window"
        ]
        assert len(windows) == 1


class TestExecutionTraceExport:
    def test_one_track_per_stage(self):
        pipeline = PipelineSimulator(
            [
                PipelineStage("load", lambda t: 2.0, slots=2),
                PipelineStage("compute", lambda t: 3.0, slots=2),
            ]
        )
        trace = ExecutionTrace(pipeline.run(4))
        chrome = ChromeTraceBuilder().add_execution_trace(trace).build()
        validate_chrome_trace(chrome)
        thread_names = {
            e["args"]["name"]
            for e in chrome["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names == {"load", "compute"}
        slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(trace.events)

    def test_accepts_raw_events_json(self):
        records = [
            {"stage": "load", "item": 0, "start": 0.0, "end": 2.0},
            {"stage": "compute", "item": 0, "start": 2.0, "end": 5.0},
        ]
        chrome = ChromeTraceBuilder().add_execution_trace(records).build()
        validate_chrome_trace(chrome)
        assert len([e for e in chrome["traceEvents"] if e["ph"] == "X"]) == 2


class TestValidation:
    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "Z", "ts": 0}]}
            )

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="'dur'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "dur": -1}]}
            )

    def test_rejects_nonmonotone_timestamps(self):
        events = [
            {"name": "a", "ph": "X", "ts": 5, "dur": 1},
            {"name": "b", "ph": "X", "ts": 2, "dur": 1},
        ]
        with pytest.raises(ValueError, match="monotonicity"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_unmatched_async_begin(self):
        events = [
            {"name": "w", "ph": "b", "ts": 0, "pid": 1, "cat": "wait", "id": "1"}
        ]
        with pytest.raises(ValueError, match="unmatched 'b'"):
            validate_chrome_trace({"traceEvents": events})

    def test_rejects_end_without_begin(self):
        events = [{"name": "x", "ph": "E", "ts": 0, "pid": 1, "tid": 1}]
        with pytest.raises(ValueError, match="without a matching 'B'"):
            validate_chrome_trace({"traceEvents": events})

    def test_accepts_balanced_sync_pairs(self):
        events = [
            {"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "x", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
        ]
        validate_chrome_trace({"traceEvents": events})


class TestWriteTrace:
    def test_write_and_reload(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", track="t"):
            pass
        trace = ChromeTraceBuilder().add_spans(tracer.spans()).build()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), trace)
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        assert loaded == trace

    def test_file_bytes_are_the_c_encoder_output(self, tmp_path):
        trace = ChromeTraceBuilder().add_serving_report(serve(requests=50)).build()
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), trace)
        assert path.read_bytes() == (json.dumps(trace) + "\n").encode()


def columns_report(rows: int, bad_row: int | None = None):
    """An exact report built straight from synthetic columns: two
    accelerators, two shapes, every request admitted on arrival."""
    import numpy as np

    from repro.sim.serving import ServingReport

    arrivals = np.arange(rows) * 1e-3 + 1.0 / 3.0
    starts = arrivals.copy()
    finishes = starts + np.where(np.arange(rows) % 2, 7e-4, 1.3e-3)
    if bad_row is not None:
        finishes[bad_row] = float("inf")
    return ServingReport(
        arrivals=arrivals,
        starts=starts,
        finishes=finishes,
        accelerator_ids=(np.arange(rows) % 2).astype(np.int16),
        accelerator_names=("C5", "C3"),
        class_ids=(np.arange(rows) // 3 % 2).astype(np.int64),
        shapes=SHAPES,
        request_ids=np.arange(rows, dtype=np.int64),
        retries=np.zeros(rows, dtype=np.int32),
    )


class TestStreamingWrite:
    """``write`` streams the text ``json.dumps`` would make of the whole
    trace; ``build`` is that text parsed back."""

    CLI_SHAPES = "1024x1024x1024,512x512x512,2048x1024x512,1024x2048x1024"

    @pytest.mark.parametrize(
        "extra",
        [
            (),
            ("--faults", "chaos", "--fault-seed", "5", "--slo",
             "p99<50ms,avail>0.999", "--windows", "20"),
            ("--streaming", "--faults", "chaos", "--fault-seed", "2"),
        ],
        ids=["exact", "exact-chaos-slo", "streaming-chaos"],
    )
    def test_cli_trace_is_canonical_json(self, extra, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.json"
        argv = ["serve", self.CLI_SHAPES, "--configs", "C5,C3", "--requests",
                "3000", "--rate", "1000", "--seed", "13", *extra,
                "--trace-out", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert main(argv) == 0
        text = path.read_text()
        trace = json.loads(text)
        assert text == json.dumps(trace) + "\n"
        validate_chrome_trace(trace)
        events = len(trace["traceEvents"])
        metadata = sum(event["ph"] == "M" for event in trace["traceEvents"])
        assert capsys.readouterr().err.strip().endswith(
            f"({events - metadata} trace events)"
        )

    def test_build_is_the_written_file_parsed(self, tmp_path):
        horizon = 200 * 0.5e-3
        faults = FaultSchedule.down("C5", 0.1 * horizon, 0.6 * horizon)
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work", track="t"):
            pass
        builder = (
            ChromeTraceBuilder()
            .add_spans(tracer.spans())
            .add_serving_report(serve(faults=faults))
            .add_serving_report(serve(requests=50))
        )
        path = tmp_path / "trace.json"
        builder.write(str(path))
        with open(path) as handle:
            assert builder.build() == json.load(handle)
        write_chrome_trace(str(tmp_path / "again.json"), builder)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_ties_keep_insertion_order_across_sources(self):
        report = columns_report(5000)
        # stage slices at the same microsecond as request 4321's arrival,
        # added before and after the report
        at = float(report.arrivals[4321])
        stage = [{"stage": "s", "item": 0, "start": at, "end": at + 1.0}]
        late = [{"stage": "s", "item": 1, "start": at, "end": at + 1.0}]
        trace = (
            ChromeTraceBuilder()
            .add_execution_trace(stage)
            .add_serving_report(report)
            .add_execution_trace(late)
            .build()
        )
        validate_chrome_trace(trace)
        tied = [
            (e["name"], e["ph"])
            for e in trace["traceEvents"]
            if e["ph"] != "M" and e["ts"] == at * 1e6
        ]
        assert tied == [
            ("item 0", "X"),
            ("wait", "b"),
            ("wait", "e"),
            ("1024x1024x1024", "X"),
            ("item 1", "X"),
        ]

    def test_len_counts_three_events_per_request(self):
        builder = ChromeTraceBuilder().add_serving_report(columns_report(700))
        assert len(builder) == 2100

    def test_non_finite_row_raises_naming_it(self):
        with pytest.raises(ValueError, match=r"row 1234 \(request 1234\)"):
            ChromeTraceBuilder().add_serving_report(
                columns_report(2000, bad_row=1234)
            )

    def test_write_memory_is_bounded(self, tmp_path):
        import tracemalloc

        builder = ChromeTraceBuilder().add_serving_report(columns_report(20_000))
        tracemalloc.start()
        try:
            builder.write(str(tmp_path / "trace.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an event dict per request event, as build() makes, needs ~48 MB
        assert peak < 8e6
