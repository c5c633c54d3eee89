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

import io
import json
import warnings
from itertools import repeat
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, TextIO

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


#: sort items formatted and written per batch (bounds the transient text)
_BATCH = 4096

# The request events' text, byte for byte what ``json.dumps`` makes of
# the event dicts: the same keys in the same order, request ids and
# start times (each used more than once) pre-formatted with ``str`` and
# ``repr``, other ints as ``%d`` and floats as ``%r`` — ``float.__repr__``
# is the float form ``json`` writes (only finite values get here).
# A wait ``b``:
_BEGIN = (
    '{"name": "wait", "cat": "wait", "ph": "b", "id": "%s", "ts": %r, '
    f'"pid": {SIM_PID}, "tid": %d, "args": {{"request_id": %s}}}}'
)
# ... and the wait ``e`` with the execution ``X`` that follows it:
_END_EXECUTE = (
    '{"name": "wait", "cat": "wait", "ph": "e", "id": "%s", "ts": %s, '
    f'"pid": {SIM_PID}, "tid": %d}}, '
    '{"name": %s, "cat": "execute", "ph": "X", "ts": %s, "dur": %r, '
    f'"pid": {SIM_PID}, "tid": %d, "args": {{"request_id": %s, '
    '"retries": %d, "latency_s": %r, "queue_s": %r}}'
)


class _EventList:
    """A run of events kept as the dicts ``json.dumps`` encodes: spans,
    fault markers and windows, counters, pipeline stages, utilization
    slices.  One sort item per event."""

    def __init__(self):
        self.events: list[dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self.events)

    @property
    def items(self) -> int:
        return len(self.events)

    def sort_keys(self, out) -> None:
        out[:] = [event["ts"] for event in self.events]

    def texts(self, items, ts) -> list[str]:
        events = self.events
        return [json.dumps(events[item]) for item in items.tolist()]


class _RequestEvents:
    """One exact report's request lifecycles, kept as its columns.

    Row ``j`` stands for three events: the wait ``b`` at its arrival,
    then the wait ``e`` and the execution ``X`` at its start.  The last
    two share a timestamp and are adjacent in insertion order, so a
    stable sort never parts them: they sort as one item, and ``n`` rows
    are ``2n`` sort items (item ``2j`` the ``b``, ``2j + 1`` the pair).
    The report's columns are frozen after construction, so holding
    references is enough.
    """

    def __init__(
        self, report: "ServingReport", wait_tid: int, track_tids: dict[str, int]
    ):
        import numpy as np

        self.arrivals = report.arrivals
        self.starts = report.starts
        self.finishes = report.finishes
        self.accelerator_ids = report.accelerator_ids
        self.class_ids = report.class_ids
        self.request_ids = report.request_ids
        self.retries = report.retries
        self.wait_tid = wait_tid
        # an accelerator that completed nothing has no track and no row
        self.acc_tids = np.array(
            [track_tids.get(name, 0) for name in report.accelerator_names],
            dtype=np.int64,
        )
        self.shape_names = np.array(
            [json.dumps(str(shape)) for shape in report.shapes], dtype=object
        )
        for what, values in self._derived():
            bad = ~np.isfinite(values)
            if bad.any():
                row = int(bad.argmax())
                raise ValueError(
                    f"serving report row {row} (request "
                    f"{int(self.request_ids[row])}) has a non-finite {what} "
                    f"({float(values[row])!r}), which JSON cannot encode"
                )

    def _derived(self):
        """Every float the events carry, one full column at a time."""
        yield "arrival time", self.arrivals * _MICROS
        yield "start time", self.starts * _MICROS
        yield "duration", (self.finishes - self.starts) * _MICROS
        yield "latency", self.finishes - self.arrivals
        yield "queueing delay", self.starts - self.arrivals

    def __len__(self) -> int:
        return 3 * self.finishes.size

    @property
    def items(self) -> int:
        return 2 * self.finishes.size

    def sort_keys(self, out) -> None:
        import numpy as np

        np.multiply(self.arrivals, _MICROS, out=out[0::2])
        np.multiply(self.starts, _MICROS, out=out[1::2])

    def texts(self, items, ts):
        """The texts of sort ``items`` (whose keys are ``ts``), in order,
        as an object array."""
        import numpy as np

        rows = items >> 1
        is_pair = (items & 1).astype(bool)
        texts = np.empty(items.size, dtype=object)
        wait_tid = repeat(self.wait_tid)
        begins = np.flatnonzero(~is_pair)
        if begins.size:
            ids = list(map(str, self.request_ids[rows[begins]].tolist()))
            texts[begins] = list(
                map(_BEGIN.__mod__, zip(ids, ts[begins].tolist(), wait_tid, ids))
            )
        pairs = np.flatnonzero(is_pair)
        if pairs.size:
            at = rows[pairs]
            ids = list(map(str, self.request_ids[at].tolist()))
            starts = list(map(repr, ts[pairs].tolist()))
            arrivals, start, finish = (
                self.arrivals[at], self.starts[at], self.finishes[at]
            )
            texts[pairs] = list(
                map(
                    _END_EXECUTE.__mod__,
                    zip(
                        ids,
                        starts,
                        wait_tid,
                        self.shape_names[self.class_ids[at]].tolist(),
                        starts,
                        ((finish - start) * _MICROS).tolist(),
                        self.acc_tids[self.accelerator_ids[at]].tolist(),
                        ids,
                        self.retries[at].tolist(),
                        (finish - arrivals).tolist(),
                        (start - arrivals).tolist(),
                    ),
                )
            )
        return texts


class ChromeTraceBuilder:
    """Accumulates events from any source and writes one sorted trace.

    Exact serving reports are kept as their columns, not as event
    dicts: :meth:`write` formats their events batch by batch while it
    streams the file, so a trace costs about 32 bytes of NumPy per
    request on top of the report itself.
    """

    def __init__(self):
        #: event sources in insertion order: runs of event dicts and
        #: exact reports' request columns
        self._sources: list[_EventList | _RequestEvents] = []
        self._tids: dict[tuple[int, str], int] = {}
        self._next_tid = 1

    def _add(self, event: dict[str, Any]) -> None:
        sources = self._sources
        if not sources or not isinstance(sources[-1], _EventList):
            sources.append(_EventList())
        sources[-1].events.append(event)

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
            self._add(
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

        Raises ``ValueError`` naming the row when a request's derived
        time, duration, latency or queueing delay is not finite.
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
                self._add(
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
        self._sources.append(_RequestEvents(report, wait_tid, track_tids))
        for shed in getattr(report, "shed", ()):
            self._add(
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
            self._add(
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
            self._add(
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
                self._add(
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
            self._add(
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
    def write(self, path: str) -> None:
        """Write the finished trace to ``path``: metadata first, then
        every event by timestamp (ties keep insertion order).

        The text is streamed in batches, byte for byte
        ``json.dumps(trace) + "\\n"`` of the same trace as a dict.
        """
        with open(path, "w") as handle:
            self._write_to(handle)

    def build(self) -> dict[str, Any]:
        """The finished trace as a dict: the parsed text of :meth:`write`
        (every event as a Python object at once — for small traces and
        tests)."""
        buffer = io.StringIO()
        self._write_to(buffer)
        return json.loads(buffer.getvalue())

    def _write_to(self, handle: TextIO) -> None:
        handle.write('{"traceEvents": [')
        separator = ""
        for chunk in self._chunks():
            handle.write(separator)
            handle.write(chunk)
            separator = ", "
        handle.write('], "displayTimeUnit": "ms"}\n')

    def _chunks(self) -> Iterator[str]:
        """The events' JSON texts, ``", "``-joined a batch at a time."""
        import numpy as np

        metadata = self._metadata_events()
        if metadata:
            yield ", ".join(map(json.dumps, metadata))
        sources = self._sources
        bounds = np.cumsum([0, *(source.items for source in sources)])
        ts = np.empty(int(bounds[-1]))
        for source, lo, hi in zip(sources, bounds[:-1], bounds[1:]):
            source.sort_keys(ts[lo:hi])
        order = np.argsort(ts, kind="stable")
        for lo in range(0, order.size, _BATCH):
            items = order[lo : lo + _BATCH]
            owners = np.searchsorted(bounds, items, side="right") - 1
            texts = np.empty(items.size, dtype=object)
            for owner in np.unique(owners).tolist():
                mine = np.flatnonzero(owners == owner)
                picked = items[mine]
                texts[mine] = sources[owner].texts(picked - bounds[owner], ts[picked])
            yield ", ".join(texts.tolist())

    def __len__(self) -> int:
        return sum(len(source) for source in self._sources)


def write_chrome_trace(
    path: str, trace: "dict[str, Any] | ChromeTraceBuilder"
) -> None:
    """Write a trace dict, or stream a builder's trace (same bytes)."""
    if isinstance(trace, ChromeTraceBuilder):
        trace.write(path)
        return
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
