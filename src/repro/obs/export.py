"""Chrome trace-event JSON export (Perfetto / ``chrome://tracing``).

Renders any of the library's collected timelines as the Trace Event
Format both viewers load:

* tracer spans from :mod:`repro.obs.spans` (wall-clock phases: model
  estimates, DSE batches, serving runs, pipeline simulations) — one
  track per span track name, complete ``X`` events;
* exact serving reports — per-request lifecycles in *simulated* time:
  an async ``b``/``e`` wait interval from arrival to dispatch, an ``X``
  execution slice on the owning accelerator's track, and instant ``i``
  markers for chaos kills/requeues/sheds plus ``X`` windows for fault
  schedules;
* :class:`~repro.sim.trace.ExecutionTrace` pipeline timelines — one
  track per stage, one ``X`` slice per (stage, item) interval;
* :class:`~repro.obs.windows.ServingMonitor` windowed telemetry —
  one Perfetto counter track (``C`` events) per metric, sampled at
  each window's start in simulated time.

Streaming and merged fleet reports hold no per-request state; they
degrade to per-accelerator utilization slices plus fault windows (with
a one-line warning) instead of raising.

Wall-clock and simulated-time events live under separate pids so
Perfetto groups them as two processes instead of interleaving two
incompatible clocks on one timeline.  :func:`validate_chrome_trace` is
the schema contract the tests (and ``obs summary``) enforce: a
``traceEvents`` list, nondecreasing timestamps, matched ``b``/``e``
pairs, and ``X`` events with nonnegative durations.
"""

from __future__ import annotations

import json
import warnings
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.obs.spans import Span
    from repro.obs.windows import ServingMonitor
    from repro.sim.serving import ServingReport
    from repro.sim.trace import ExecutionTrace

__all__ = [
    "ChromeTraceBuilder",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: seconds -> Chrome trace microseconds
_MICROS = 1e6

#: pid for wall-clock (tracer span) events
WALL_PID = 1
#: pid for simulated-time (serving / pipeline) events
SIM_PID = 2

_PROCESS_NAMES = {
    WALL_PID: "versal-gemm (wall clock)",
    SIM_PID: "versal-gemm (simulated time)",
}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _jsonable_args(attrs: dict[str, Any] | None) -> dict[str, Any]:
    if not attrs:
        return {}
    return {str(key): _jsonable(value) for key, value in attrs.items()}


class ChromeTraceBuilder:
    """Accumulates events from any source and emits one sorted trace."""

    def __init__(self):
        self._events: list[dict[str, Any]] = []
        self._tids: dict[tuple[int, str], int] = {}
        self._next_tid = 1

    # -- track bookkeeping ---------------------------------------------
    def tid(self, track: str, pid: int = WALL_PID) -> int:
        key = (pid, track)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tids[key] = self._next_tid
            self._next_tid += 1
        return tid

    def _metadata_events(self) -> list[dict[str, Any]]:
        events: list[dict[str, Any]] = []
        for pid in sorted({pid for pid, _ in self._tids}):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": _PROCESS_NAMES.get(pid, f"process {pid}")},
                }
            )
        for (pid, track), tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": track},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"sort_index": tid},
                }
            )
        return events

    # -- sources --------------------------------------------------------
    def add_spans(self, spans: "Iterable[Span]") -> "ChromeTraceBuilder":
        """Tracer spans as complete ``X`` events (wall-clock pid)."""
        for span in spans:
            args = _jsonable_args(span.attrs)
            args["depth"] = span.depth
            self._events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "ts": span.start * _MICROS,
                    "dur": max(span.duration, 0.0) * _MICROS,
                    "pid": WALL_PID,
                    "tid": self.tid(span.track or "main", WALL_PID),
                    "args": args,
                }
            )
        return self

    def add_serving_report(self, report: "ServingReport") -> "ChromeTraceBuilder":
        """Per-request lifecycles from an exact serving report.

        Wait intervals are async ``b``/``e`` pairs keyed by request id
        (they overlap freely, which sync slices cannot), executions are
        ``X`` slices on the owning accelerator's track, and the chaos
        loop's kill/requeue/shed decisions plus the fault schedule's
        windows land on per-accelerator fault tracks.  Streaming and
        merged fleet reports hold no per-request state — they degrade
        to one utilization slice per accelerator plus the fault
        windows, with a one-line warning.
        """
        if getattr(report, "request_ids", None) is None:
            warnings.warn(
                "streaming/merged report: exporting accelerator utilization "
                "and fault windows only (per-request lifecycles need the "
                "exact report)",
                stacklevel=2,
            )
            makespan = float(getattr(report, "makespan", 0.0))
            loads = report.accelerator_load()
            total = sum(loads.values()) or 1
            downtime = getattr(report, "downtime", {})
            for name, count in sorted(loads.items()):
                self._events.append(
                    {
                        "name": f"{count} requests ({count / total:.0%} of load)",
                        "cat": "utilization",
                        "ph": "X",
                        "ts": 0.0,
                        "dur": makespan * _MICROS,
                        "pid": SIM_PID,
                        "tid": self.tid(name, SIM_PID),
                        "args": {
                            "requests": count,
                            "share": count / total,
                            "downtime_s": float(downtime.get(name, 0.0)),
                        },
                    }
                )
            self._add_fault_windows(getattr(report, "fault_events", ()))
            return self
        wait_tid = self.tid("request queue", SIM_PID)
        # accelerator tracks are numbered in first-completion order, the
        # order a row-by-row walk would first touch them
        track_tids = {
            name: self.tid(name, SIM_PID) for name in report.accelerator_load()
        }
        acc_tids = [track_tids.get(name) for name in report.accelerator_names]
        shape_names = [str(shape) for shape in report.shapes]
        events = self._events
        for request_id, wait_ts, start_ts, dur, acc, cid, retries, latency, queue in zip(
            report.request_ids.tolist(),
            (report.arrivals * _MICROS).tolist(),
            (report.starts * _MICROS).tolist(),
            ((report.finishes - report.starts) * _MICROS).tolist(),
            report.accelerator_ids.tolist(),
            report.class_ids.tolist(),
            report.retries.tolist(),
            report.latencies.tolist(),
            report.queueing_delays.tolist(),
        ):
            events.append(
                {
                    "name": "wait",
                    "cat": "wait",
                    "ph": "b",
                    "id": str(request_id),
                    "ts": wait_ts,
                    "pid": SIM_PID,
                    "tid": wait_tid,
                    "args": {"request_id": request_id},
                }
            )
            events.append(
                {
                    "name": "wait",
                    "cat": "wait",
                    "ph": "e",
                    "id": str(request_id),
                    "ts": start_ts,
                    "pid": SIM_PID,
                    "tid": wait_tid,
                }
            )
            events.append(
                {
                    "name": shape_names[cid],
                    "cat": "execute",
                    "ph": "X",
                    "ts": start_ts,
                    "dur": dur,
                    "pid": SIM_PID,
                    "tid": acc_tids[acc],
                    "args": {
                        "request_id": request_id,
                        "retries": retries,
                        "latency_s": latency,
                        "queue_s": queue,
                    },
                }
            )
        for shed in getattr(report, "shed", ()):
            self._events.append(
                {
                    "name": f"shed:{shed.reason}",
                    "cat": "fault",
                    "ph": "i",
                    "s": "p",
                    "ts": shed.time * _MICROS,
                    "pid": SIM_PID,
                    "tid": self.tid("chaos", SIM_PID),
                    "args": {
                        "request_id": shed.request.request_id,
                        "retries": shed.retries,
                    },
                }
            )
        for time, kind, request_id, retries in getattr(report, "fault_timeline", ()):
            self._events.append(
                {
                    "name": kind,
                    "cat": "fault",
                    "ph": "i",
                    "s": "p",
                    "ts": time * _MICROS,
                    "pid": SIM_PID,
                    "tid": self.tid("chaos", SIM_PID),
                    "args": {"request_id": request_id, "retries": retries},
                }
            )
        self._add_fault_windows(getattr(report, "fault_events", ()))
        return self

    def _add_fault_windows(self, fault_events: Sequence[Any]) -> None:
        """Pair onset/recovery records into ``X`` windows per accelerator."""
        open_windows: dict[tuple[str, str], list[Any]] = {}
        for event in fault_events:
            key = (event.accelerator, event.kind)
            is_onset = type(event).__name__ == "FaultEvent"
            if is_onset:
                open_windows.setdefault(key, []).append(event)
                continue
            pending = open_windows.get(key)
            if not pending:
                continue
            onset = pending.pop(0)
            self._events.append(
                {
                    "name": f"{onset.kind}: {onset.detail or onset.accelerator}",
                    "cat": "fault-window",
                    "ph": "X",
                    "ts": onset.time * _MICROS,
                    "dur": (event.time - onset.time) * _MICROS,
                    "pid": SIM_PID,
                    "tid": self.tid(f"{onset.accelerator} faults", SIM_PID),
                    "args": {"kind": onset.kind, "detail": onset.detail},
                }
            )

    def add_monitor(
        self, monitor: "ServingMonitor", prefix: str = "serving"
    ) -> "ChromeTraceBuilder":
        """Windowed telemetry as Perfetto counter tracks (``C`` events).

        One counter per metric — completions/s, p50/p99 latency (ms),
        sheds, kills — sampled at each populated window's start in
        simulated time; the last window's values are re-emitted at its
        end so the final step stays visible in the viewer.
        """
        timeline = monitor.timeline()
        if not timeline:
            return self
        counter_tid = self.tid(f"{prefix} counters", SIM_PID)

        def emit(ts_seconds: float, stats: Any) -> None:
            for metric, value in (
                (f"{prefix} rps", stats.rps),
                (f"{prefix} p50 (ms)", (stats.p50 or 0.0) * 1e3),
                (f"{prefix} p99 (ms)", (stats.p99 or 0.0) * 1e3),
                (f"{prefix} sheds", float(stats.shed)),
                (f"{prefix} kills", float(stats.kills)),
            ):
                self._events.append(
                    {
                        "name": metric,
                        "cat": "counter",
                        "ph": "C",
                        "ts": ts_seconds * _MICROS,
                        "pid": SIM_PID,
                        "tid": counter_tid,
                        "args": {"value": float(value)},
                    }
                )

        for stats in timeline:
            emit(stats.start, stats)
        emit(timeline[-1].end, timeline[-1])
        return self

    def add_execution_trace(
        self, trace: "ExecutionTrace | Sequence[dict[str, Any]]"
    ) -> "ChromeTraceBuilder":
        """Pipeline stage intervals — one track per stage.

        Accepts an :class:`~repro.sim.trace.ExecutionTrace` or the
        records its ``events_json()`` returns (the shared event source).
        """
        events = trace if isinstance(trace, (list, tuple)) else trace.events_json()
        for record in events:
            self._events.append(
                {
                    "name": f"item {record['item']}",
                    "cat": "stage",
                    "ph": "X",
                    "ts": record["start"] * _MICROS,
                    "dur": (record["end"] - record["start"]) * _MICROS,
                    "pid": SIM_PID,
                    "tid": self.tid(record["stage"], SIM_PID),
                    "args": {"item": record["item"]},
                }
            )
        return self

    # -- output ---------------------------------------------------------
    def build(self) -> dict[str, Any]:
        """The finished trace: metadata first, then events by timestamp."""
        body = sorted(self._events, key=lambda event: event["ts"])
        return {
            "traceEvents": self._metadata_events() + body,
            "displayTimeUnit": "ms",
        }

    def __len__(self) -> int:
        return len(self._events)


def write_chrome_trace(path: str, trace: dict[str, Any]) -> None:
    # json.dumps runs the C encoder; json.dump always takes the pure
    # Python one (same bytes, ~3x slower on a per-request trace)
    with open(path, "w") as handle:
        handle.write(json.dumps(trace))
        handle.write("\n")


_ALLOWED_PHASES = frozenset("XBEbeiMC")


def validate_chrome_trace(trace: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``trace`` satisfies the schema the
    exporters guarantee (and Perfetto's JSON importer accepts).

    Checks: a ``traceEvents`` list of dicts, every event carrying a
    string ``name``, a known ``ph`` and a nonnegative numeric ``ts``;
    ``X`` events with nonnegative ``dur``; ``C`` counter samples with
    numeric ``args`` series; ``B``/``E`` stacks balanced per
    (pid, tid); async ``b``/``e`` matched per (pid, cat, id); and
    non-metadata timestamps nondecreasing in file order.
    """
    if not isinstance(trace, dict) or not isinstance(
        trace.get("traceEvents"), list
    ):
        raise ValueError("trace must be a dict with a 'traceEvents' list")
    sync_stacks: dict[tuple[Any, Any], int] = {}
    async_open: dict[tuple[Any, Any, Any], int] = {}
    last_ts: float | None = None
    for index, event in enumerate(trace["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise ValueError(f"{where} is missing a string 'name'")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where} needs a nonnegative numeric 'ts'")
        if phase == "M":
            continue
        if last_ts is not None and ts < last_ts:
            raise ValueError(f"{where} breaks timestamp monotonicity")
        last_ts = ts
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} ('X') needs a nonnegative 'dur'")
        elif phase == "C":
            counter_args = event.get("args")
            if (
                not isinstance(counter_args, dict)
                or not counter_args
                or not all(
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    for value in counter_args.values()
                )
            ):
                raise ValueError(
                    f"{where} ('C') needs numeric 'args' series values"
                )
        elif phase == "B":
            sync_stacks[(event.get("pid"), event.get("tid"))] = (
                sync_stacks.get((event.get("pid"), event.get("tid")), 0) + 1
            )
        elif phase == "E":
            key = (event.get("pid"), event.get("tid"))
            depth = sync_stacks.get(key, 0)
            if depth <= 0:
                raise ValueError(f"{where} ('E') without a matching 'B'")
            sync_stacks[key] = depth - 1
        elif phase == "b":
            key = (event.get("pid"), event.get("cat"), event.get("id"))
            if None in key:
                raise ValueError(f"{where} ('b') needs pid, cat and id")
            async_open[key] = async_open.get(key, 0) + 1
        elif phase == "e":
            key = (event.get("pid"), event.get("cat"), event.get("id"))
            pending = async_open.get(key, 0)
            if pending <= 0:
                raise ValueError(f"{where} ('e') without a matching 'b'")
            async_open[key] = pending - 1
    unbalanced = {key: depth for key, depth in sync_stacks.items() if depth}
    if unbalanced:
        raise ValueError(f"unclosed 'B' events on tracks {sorted(unbalanced)}")
    dangling = {key: n for key, n in async_open.items() if n}
    if dangling:
        raise ValueError(f"unmatched 'b' events for {sorted(dangling)}")
