"""Serving simulation: GEMM request streams over a partition.

A deployed Versal board serves a *stream* of inference requests, not one
workload; what matters operationally is tail latency versus offered
load.  This module serves a deterministic pseudo-random request trace
(an :class:`~repro.sim.streaming.SoATrace` from
:func:`~repro.sim.streaming.generate_trace_soa`: exponential-ish
inter-arrivals from a hash-based LCG — no global RNG, fully
reproducible), dispatches each request to the partition accelerator
that finishes it earliest, and reports throughput and latency
percentiles.

Two dispatch paths produce **byte-identical** decisions:

* the seed scan (``dispatch="scan"``) — the original O(requests x
  accelerators) loop, kept as the ground-truth oracle;
* the fast path (``dispatch="auto"``, the default) — the vectorized
  engine of :mod:`repro.sim.dispatch_batch` over the SoA trace, at every
  partition width: the native k-wide exact loop when a C compiler is
  present, NumPy speculate-and-verify rounds otherwise (a faulted run
  without the compiler takes the scan's scalar fault loop instead).

Every engine — the scan oracle, the fast path and the fault loop —
hands its arrival-ordered decisions to one report sink, which cuts them
into the same ``chunk_size`` blocks and builds either report from them:
the exact :class:`ServingReport` keeps the columns, while
``run(..., streaming=True)`` folds the blocks into a
:class:`~repro.sim.streaming.StreamingServingReport` (sketched
percentiles within the sketch's documented error bound).  The fast
path and the fault loop read the trace through
:meth:`~repro.sim.streaming.SoATrace.blocks`, so a streaming serve of a
generated trace is O(1) in memory in the trace length, the trace
included: the fast path generates, dispatches and folds each block
before the next exists, and the fault loop hands each block to the
sink once every row in it is completed or shed.  Either report is
therefore byte-identical across engines.  :func:`load_sweep` drives the
offered-load -> tail-latency curve the paper's serving discussion is
about, with saturation-knee detection and an early exit once throughput
plateaus.

``run(..., faults=...)`` injects a time-varying
:class:`~repro.sim.chaos.FaultSchedule` (accelerators go down and come
back, or serve through degraded :class:`~repro.hw.specs.DeviceSpec`
variants mid-run) under a :class:`~repro.sim.chaos.FaultPolicy`:
executions a ``down`` window interrupts are killed and retried with
exponential backoff, failing over to surviving accelerators, and shed
with accounting once the retry budget is exhausted or nothing feasible
remains.  Both paths implement **identical** fault semantics (enforced
by ``tests/conformance``); ``faults=None`` or an empty schedule takes
the untouched fault-free paths, byte for byte.

Fault-run semantics, precisely:

* A dispatch *attempt* at time ``t`` considers each feasible
  accelerator with ``start = max(t, free)``; the accelerator is skipped
  when ``start`` falls in a ``down`` window or its degraded service is
  unresolvable.  Service is resolved **at admission**: the window the
  start instant falls in fixes the service time, even if the execution
  outlives the window.  The winner minimizes ``(finish, scan order)`` —
  the same tie-break as fault-free dispatch.
* Dispatch is not prescient: if the chosen accelerator's next ``down``
  window opens strictly between start and finish, the execution is
  *killed* at the window start, the accelerator's clock advances to it,
  and the request retries after ``policy.backoff(retries)`` — or is
  shed (``retry_budget_exhausted``) past ``policy.max_retries``.
* An attempt with no usable accelerator *requeues* (no retry consumed)
  to the schedule's next state transition; when no transition remains
  the request is shed (``no_feasible_accelerator``).  A shape no
  accelerator can serve even fault-free raises ``ValueError`` exactly
  like the fault-free path.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry
from repro.obs.spans import span
from repro.perf.metrics import (
    EvalStats,
    FaultStats,
    record_eval,
    record_faults,
    track,
)
from repro.perf.parallel import parallel_map, resolve_jobs
from repro.sim import dispatch_batch
from repro.sim.dispatch_batch import dispatch_vectorized
from repro.sim.streaming import (
    TRACE_BLOCK,
    QuantileSketch,
    SoATrace,
    StreamingServingReport,
    derive_seed,
    generate_trace_soa,
)
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.multi_acc import AcceleratorPartition
    from repro.hw.specs import DeviceSpec
    from repro.obs.slo import SloSpec
    from repro.obs.windows import ServingMonitor
    from repro.sim.chaos import FaultPolicy, FaultSchedule

#: requests buffered between streaming-report flushes (bounds memory)
DISPATCH_CHUNK = 65536

_DISPATCH_MODES = ("auto", "scan")


@dataclass(frozen=True)
class Request:
    """One GEMM request with its arrival time."""

    request_id: int
    shape: GemmShape
    arrival: float


@dataclass(frozen=True)
class CompletedRequest:
    request: Request
    accelerator: str
    start: float
    finish: float
    #: executions killed by down windows before this one completed
    retries: int = 0

    @property
    def latency(self) -> float:
        return self.finish - self.request.arrival

    @property
    def queueing_delay(self) -> float:
        return self.start - self.request.arrival


@dataclass(frozen=True)
class ShedRequest:
    """A request dropped with accounting instead of completed."""

    request: Request
    retries: int
    #: ``retry_budget_exhausted`` or ``no_feasible_accelerator``
    reason: str
    #: when the shedding decision was made
    time: float


#: accelerator-index column dtype (partitions stay far below 2**15 wide)
_ACC_DTYPE = np.int16
#: retry-count column dtype
_RETRY_DTYPE = np.int32
#: rows per Python float list when the exact report sums its latencies
_SUM_CHUNK = 1 << 16


@dataclass(eq=False)
class ServingReport:
    """Exact serving report: one NumPy column per per-request field.

    Row ``j`` is the ``j``-th completed request in arrival order.  The
    engines write the columns directly — no per-request object exists
    between dispatch and export; :attr:`completed` builds the
    ``CompletedRequest`` list on first access for callers that want
    objects.
    """

    arrivals: np.ndarray
    starts: np.ndarray
    finishes: np.ndarray
    #: index into ``accelerator_names`` per row
    accelerator_ids: np.ndarray
    accelerator_names: tuple[str, ...]
    #: index into ``shapes`` per row
    class_ids: np.ndarray
    shapes: tuple[GemmShape, ...]
    request_ids: np.ndarray
    #: executions killed by down windows before each row completed
    retries: np.ndarray
    #: requests dropped under the fault policy (empty on fault-free runs)
    shed: list[ShedRequest] = field(default_factory=list)
    #: fault onset/clearance records, ordered by time
    fault_events: list = field(default_factory=list)
    #: per-accelerator seconds spent down within the makespan
    downtime: dict[str, float] = field(default_factory=dict)
    #: executions killed mid-flight by a down window
    kills: int = 0
    #: attempts deferred because no accelerator was usable
    requeues: int = 0
    #: chaos-loop decision log, ``(time, kind, request_id, retries)`` with
    #: kind in {"kill", "requeue"}, time-ordered — the trace exporter
    #: renders these as instant markers (sheds carry their own records)
    fault_timeline: list = field(default_factory=list)

    @cached_property
    def completed(self) -> list[CompletedRequest]:
        """The rows as ``CompletedRequest`` objects, built once on first
        access (a snapshot: the columns stay the report's state)."""
        names = self.accelerator_names
        shapes = self.shapes
        return [
            CompletedRequest(
                request=Request(request_id=rid, shape=shapes[cid], arrival=arrival),
                accelerator=names[acc],
                start=start,
                finish=finish,
                retries=retries,
            )
            for rid, cid, arrival, acc, start, finish, retries in zip(
                self.request_ids.tolist(),
                self.class_ids.tolist(),
                self.arrivals.tolist(),
                self.accelerator_ids.tolist(),
                self.starts.tolist(),
                self.finishes.tolist(),
                self.retries.tolist(),
            )
        ]

    @property
    def count(self) -> int:
        """Completed requests."""
        return int(self.finishes.size)

    @property
    def makespan(self) -> float:
        return float(self.finishes.max()) if self.count else 0.0

    @property
    def shed_count(self) -> int:
        return len(self.shed)

    @property
    def total_retries(self) -> int:
        return int(self.retries.sum()) + sum(s.retries for s in self.shed)

    def availability(self) -> dict[str, float]:
        """Per-accelerator up-fraction of the makespan, in ``[0, 1]``."""
        horizon = self.makespan
        if horizon <= 0:
            return {name: 1.0 for name in self.downtime}
        return {
            name: min(1.0, max(0.0, 1.0 - down / horizon))
            for name, down in self.downtime.items()
        }

    @property
    def request_availability(self) -> float:
        """Completed / offered requests (1.0 when nothing was offered)."""
        total = self.count + len(self.shed)
        if total == 0:
            return 1.0
        return self.count / total

    def fault_summary(self) -> dict:
        """The fault-accounting block the CLI and experiments print."""
        return {
            "completed": self.count,
            "shed": self.shed_count,
            "kills": self.kills,
            "retries": self.total_retries,
            "requeues": self.requeues,
            "fault_events": len(self.fault_events),
            "request_availability": self.request_availability,
            "availability": self.availability(),
        }

    @property
    def throughput_rps(self) -> float:
        if self.makespan == 0:
            return 0.0
        return self.count / self.makespan

    @cached_property
    def latencies(self) -> np.ndarray:
        """Per-row ``finish - arrival``."""
        return self.finishes - self.arrivals

    @property
    def queueing_delays(self) -> np.ndarray:
        """Per-row ``start - arrival``."""
        return self.starts - self.arrivals

    @cached_property
    def _sorted_latencies(self) -> np.ndarray:
        # the columns are frozen after construction, so the sort is
        # cached instead of being redone on every percentile
        return np.sort(self.latencies)

    def latency_percentile(self, percentile: float) -> float:
        return self.latency_percentiles([percentile])[0]

    def latency_percentiles(self, percentiles: Sequence[float]) -> list[float]:
        """Batch percentile accessor over the cached sorted latencies."""
        for percentile in percentiles:
            if not 0 < percentile <= 100:
                raise ValueError("percentile must be in (0, 100]")
        count = self.count
        if not count:
            raise ValueError("no completed requests")
        latencies = self._sorted_latencies
        return [
            float(latencies[min(count - 1, math.ceil(percentile / 100 * count) - 1)])
            for percentile in percentiles
        ]

    def mean_latency(self) -> float:
        if not self.count:
            raise ValueError("no completed requests")
        # the builtin sum over Python floats, not ndarray.sum's pairwise
        # reduction; one sum over the column's rows in order, fed a
        # chunk's list at a time so that no list of the whole column is
        # built, gives the bits of ``sum(latencies.tolist())`` on every
        # Python (3.12's compensated sum included)
        latencies = self.latencies
        chunks = (
            latencies[lo : lo + _SUM_CHUNK].tolist()
            for lo in range(0, latencies.size, _SUM_CHUNK)
        )
        return sum(chain.from_iterable(chunks)) / self.count

    def accelerator_load(self) -> dict[str, int]:
        """Completions per accelerator, keyed in first-completion order."""
        ids = self.accelerator_ids
        counts = np.bincount(ids, minlength=len(self.accelerator_names))
        used = np.flatnonzero(counts).tolist()
        first = sorted((int(np.argmax(ids == index)), index) for index in used)
        return {
            self.accelerator_names[index]: int(counts[index]) for _, index in first
        }


def _joined(pieces: Sequence[np.ndarray]) -> np.ndarray:
    """One array from ``pieces``; a single piece is returned as is."""
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]


class _ReportSink:
    """Turns any engine's arrival-ordered decisions into its report.

    Every engine hands its decisions over as ``(base, arrivals, accs,
    starts, finishes)`` stretches of rows ``[base, base + len(accs))``,
    each with its rows' arrivals: the fast path and the fault loop
    block by block as they read the trace (the fault loop leaving out
    shed rows), the scan oracle as whole columns.  The streaming
    report's running float sums and the monitor's window series depend
    on block boundaries, so the stretches are re-cut into exact
    ``chunk_size`` blocks at rows ``0, chunk_size, 2 * chunk_size,
    ...`` whatever engine produced them.  Per block, in order: a ``serve.dispatch_chunk`` span opens,
    the block's latencies and sketch bucket keys are computed once, the
    streaming report folds them and the monitor sees them — all after
    every decision in the block is final, so a monitor observes and
    never steers.  Equal decisions therefore give byte-equal reports
    and monitor series on every engine.  Exact mode keeps the stretches
    themselves as the report's columns, so a whole column is kept
    without a copy; a streaming sink keeps nothing past the current
    block, so neither does a streaming serve of a generated trace.
    """

    def __init__(
        self,
        names: Sequence[str],
        *,
        streaming: bool,
        quantile_error: float,
        chunk_size: int,
        monitor: "ServingMonitor | None",
        rows: int,
    ):
        self.names = names
        self.chunk_size = chunk_size
        self.monitor = monitor
        self.report = (
            StreamingServingReport(names, quantile_error=quantile_error)
            if streaming
            else None
        )
        # one bucket-key pass per block at the report's resolution (the
        # monitor's in exact mode), shared by the consumers at it
        self._keyer = (
            QuantileSketch(quantile_error if streaming else monitor.quantile_error)
            if streaming or monitor is not None
            else None
        )
        # exact mode: the report columns, as the engine handed them over
        self._stretches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # the block being gathered from stretches shorter than a block:
        # its first row, its rows so far, and its four columns (no
        # longer than ``rows``, the rows the engine will hand over)
        self._base = self._filled = 0
        self._capacity = min(chunk_size, rows)
        self._buffer: tuple[np.ndarray, ...] | None = None

    def add(
        self,
        base: int,
        arrivals: np.ndarray,
        accs: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
    ) -> None:
        """Take the decisions for rows ``[base, base + len(accs))``,
        whose arrivals are ``arrivals``.

        A whole block is folded straight from the stretch; rows short of
        one are copied into the block buffer, so the engine's arrays
        are free to go once this returns."""
        if self.report is None:
            self._stretches.append(
                (accs.astype(_ACC_DTYPE, copy=False), starts, finishes)
            )
        size = self.chunk_size
        stretch = (arrivals, accs, starts, finishes)
        lo, count = 0, len(accs)
        while lo < count:
            filled = self._filled
            if not filled and count - lo >= size:
                hi = lo + size
                self._block(base + lo, *(column[lo:hi] for column in stretch))
            else:
                if not filled:
                    self._base = base + lo
                if self._buffer is None:
                    capacity = self._capacity
                    self._buffer = (
                        np.empty(capacity),
                        np.empty(capacity, dtype=_ACC_DTYPE),
                        np.empty(capacity),
                        np.empty(capacity),
                    )
                hi = min(count, lo + size - filled)
                self._filled = filled + hi - lo
                for column, source in zip(self._buffer, stretch):
                    column[filled : self._filled] = source[lo:hi]
                if self._filled == size:
                    self._block(self._base, *self._buffer)
                    self._filled = 0
            lo = hi

    def _block(
        self,
        base: int,
        arrivals: np.ndarray,
        accs: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
    ) -> None:
        with span("serve.dispatch_chunk", track="serving", base=base, size=len(accs)):
            if self._keyer is None:
                return
            latencies = finishes - arrivals
            keys = self._keyer.prepare_keys(latencies)
            if self.report is not None:
                self.report.observe_batch(
                    accs, arrivals, starts, finishes, latencies, keys
                )
            if self.monitor is not None:
                if self.monitor.quantile_error != self._keyer.relative_error:
                    keys = None
                self.monitor.observe_chunk(finishes, latencies, keys)

    def finish(
        self,
        shapes: Sequence[GemmShape],
        arrivals: np.ndarray | None = None,
        class_ids: np.ndarray | None = None,
        *,
        request_ids: np.ndarray | None = None,
        retries: np.ndarray | None = None,
        total_retries: int = 0,
        **faults,
    ) -> ServingReport | StreamingServingReport:
        """Fold the last partial block and build the report, once.

        ``arrivals``, ``class_ids``, ``request_ids`` (``None``: the row
        positions) and ``retries`` (``None``: all zero) are the exact
        report's remaining columns; a streaming report needs none of
        them.  ``faults`` holds a faulted run's :class:`ServingReport`
        fault fields; a streaming report records their totals, with
        ``total_retries`` (the run's retries, sheds included).
        """
        if self._filled:
            self._block(
                self._base, *(column[: self._filled] for column in self._buffer)
            )
        if self.report is not None:
            if faults:
                shed = faults["shed"]
                self.report.record_fault_metadata(
                    shed_count=len(shed),
                    total_retries=total_retries,
                    kills=faults["kills"],
                    requeues=faults["requeues"],
                    fault_events=faults["fault_events"],
                    downtime=faults["downtime"],
                )
            return self.report
        accs, starts, finishes = (_joined(c) for c in zip(*self._stretches))
        count = int(finishes.size)
        return ServingReport(
            arrivals=arrivals,
            starts=starts,
            finishes=finishes,
            accelerator_ids=accs,
            accelerator_names=tuple(self.names),
            class_ids=class_ids,
            shapes=tuple(shapes),
            request_ids=(
                np.arange(count, dtype=np.int64) if request_ids is None else request_ids
            ),
            retries=(
                np.zeros(count, dtype=_RETRY_DTYPE) if retries is None else retries
            ),
            **faults,
        )


def _used_classes(trace: SoATrace) -> list[bool]:
    """Which of ``trace``'s shape classes some request uses, reading
    blocks only until every class has turned up (one block, on any
    sizeable trace over a small mix)."""
    used = np.zeros(len(trace.shapes), dtype=bool)
    for _, _, shape_ids in trace.blocks(TRACE_BLOCK):
        used[shape_ids] = True
        if used.all():
            break
    return used.tolist()


#: requests per block the fault loop reads from the trace: a quarter of
#: TRACE_BLOCK, so the blocks it holds while the sink folds a
#: ``chunk_size`` block stay small next to that block (a 100k C5+C3
#: chaos serve peaks 1.2-1.7 MB lower than with whole TRACE_BLOCKs)
_FAULT_BLOCK = TRACE_BLOCK // 4
#: arrivals and class ids the fault loop reads as list scalars at a
#: time: lists of a whole block leave their float objects' pools pinned
#: by the loop's long-lived heap and timeline entries (a 1M C5+C3 chaos
#: serve peaked at 130-138 MB with whole-block lists against 125 MB)
_SCALAR_WINDOW = 1024


class _FaultBlock:
    """One trace block in the fault loop: its rows' arrivals and class
    ids, and each completed row's outcome, until every row is completed
    or shed (a shed row's outcome columns stay zero)."""

    __slots__ = (
        "base",
        "size",
        "arrivals",
        "class_ids",
        "accs",
        "starts",
        "finishes",
        "retries",
        "waiting",
        "shed",
    )

    def __init__(self, base: int, arrivals: np.ndarray, class_ids: np.ndarray):
        size = arrivals.size
        self.base = base
        self.size = size
        self.arrivals = arrivals
        self.class_ids = class_ids
        self.accs = np.zeros(size, dtype=_ACC_DTYPE)
        self.starts = np.zeros(size)
        self.finishes = np.zeros(size)
        self.retries = np.zeros(size, dtype=_RETRY_DTYPE)
        #: rows waiting in the re-attempt heap
        self.waiting = 0
        #: block-local indices of the shed rows
        self.shed: list[int] = []

    def record(self, rows, accs, starts, finishes, retries) -> None:
        """Complete ``rows`` (block-local indices, a slice or one index)."""
        self.accs[rows] = accs
        self.starts[rows] = starts
        self.finishes[rows] = finishes
        self.retries[rows] = retries


class _FaultView:
    """Fast time-indexed queries over a fault schedule for one partition.

    Window lookups are bisections over per-accelerator sorted arrays;
    degraded service times are resolved once per ``(accelerator, window,
    shape class)`` and cached — ``DeviceSpec`` is unhashable, so the
    cache keys on positions, not objects.  Accelerators whose *healthy*
    device cannot serve a shape class stay infeasible for it in every
    window (degraded hardware never unlocks new shapes), which keeps the
    scalar selector's and the segment batches' candidate sets identical
    by construction.
    """

    def __init__(self, simulator, schedule, names, classes, specs):
        self.names = names
        self.classes = classes
        self.partition = simulator.partition
        width = len(names)
        # base (healthy) service per [order][class]; None = infeasible
        self.base: list[list[float | None]] = [
            [None] * len(classes) for _ in range(width)
        ]
        for cid, spec in enumerate(specs):
            for offset in range(0, len(spec), 2):
                self.base[spec[offset]][cid] = spec[offset + 1]
        self.windows = []
        self._window_starts = []
        self._window_ends = []
        self._down_starts = []
        for name in names:
            windows = schedule.for_accelerator(name)
            self.windows.append(windows)
            self._window_starts.append([w.start for w in windows])
            self._window_ends.append([w.end for w in windows])
            self._down_starts.append([w.start for w in windows if w.kind == "down"])
        self._transitions = schedule.transitions()
        self._degraded_cache: dict[tuple[int, int, int], float | None] = {}

    def window_index_at(self, order: int, time: float) -> int | None:
        index = bisect.bisect_right(self._window_starts[order], time) - 1
        if index >= 0 and time < self._window_ends[order][index]:
            return index
        return None

    def next_down_after(self, order: int, time: float) -> float | None:
        """Earliest down-window start strictly after ``time`` (kill check)."""
        starts = self._down_starts[order]
        index = bisect.bisect_right(starts, time)
        return starts[index] if index < len(starts) else None

    def next_transition_after(self, time: float) -> float | None:
        transitions = self._transitions
        index = bisect.bisect_right(transitions, time)
        return transitions[index] if index < len(transitions) else None

    def service_at(self, order: int, cid: int, time: float) -> float | None:
        """Admission-time service, or None when the accelerator is
        unusable at ``time`` (down, infeasible, or degraded-invalid)."""
        base = self.base[order][cid]
        if base is None:
            return None
        index = self.window_index_at(order, time)
        if index is None:
            return base
        window = self.windows[order][index]
        if window.kind == "down":
            return None
        return self._degraded(order, index, cid, base)

    def _degraded(
        self, order: int, index: int, cid: int, base: float
    ) -> float | None:
        key = (order, index, cid)
        if key in self._degraded_cache:
            return self._degraded_cache[key]
        window = self.windows[order][index]
        if window.factor is not None:
            value = base * window.factor
        else:
            design = self.partition.designs[self.names[order]]
            config = getattr(design, "config", None)
            if config is None:
                raise ValueError(
                    "device-degraded fault windows need partition designs "
                    "with a .config (stub partitions should use factor= "
                    "windows instead)"
                )
            from repro.core.analytical_model import AnalyticalModel
            from repro.mapping.charm import CharmDesign

            candidate = CharmDesign(config, window.device)
            if not candidate.is_valid():
                value = None  # design does not survive: down for the window
            else:
                try:
                    value = AnalyticalModel(candidate).estimate(
                        self.classes[cid]
                    ).total_seconds
                except ValueError:
                    value = None
        self._degraded_cache[key] = value
        return value

    def segment_services(
        self, signature: tuple[int | None, ...], healthy: np.ndarray
    ) -> np.ndarray:
        """The ``(width, classes)`` service matrix :meth:`service_at`
        implies while the windows in ``signature`` (the per-accelerator
        :meth:`window_index_at`) are active: a down accelerator's column
        is ``inf``, a degraded one's is its derated service (``inf``
        where that does not resolve), every other column is
        ``healthy``'s."""
        services = healthy.copy()
        for order, index in enumerate(signature):
            if index is None:
                continue
            if self.windows[order][index].kind == "down":
                services[order] = math.inf
                continue
            for cid, base in enumerate(self.base[order]):
                if base is not None:
                    value = self._degraded(order, index, cid, base)
                    services[order, cid] = math.inf if value is None else value
        return services


class _ScanFaultSelector:
    """The seed loop under faults: scan every accelerator per attempt."""

    def __init__(self, view: _FaultView, free: list[float], width: int):
        self.view = view
        self.free = free
        self.width = width

    def select(self, t: float, cid: int):
        view = self.view
        free = self.free
        best_finish = math.inf
        best_order = -1
        best_start = 0.0
        for order in range(self.width):
            current = free[order]
            start = current if current > t else t
            service = view.service_at(order, cid, start)
            if service is None:
                continue
            finish = start + service
            if finish < best_finish:
                best_finish, best_order, best_start = finish, order, start
        if best_order < 0:
            return None
        return best_order, best_start, best_finish


class _LazyDesigns(Mapping):
    """Accelerator name -> design, the partition built on first lookup.

    Iterating yields the names alone, which is all dispatch reads, so
    the analytical model, the CHARM designs and their placement check
    load only when something asks for a design.
    """

    def __init__(self, config_names: Sequence[str], device: DeviceSpec) -> None:
        self._names = tuple(config_names)
        self._device = device

    @cached_property
    def partition(self) -> AcceleratorPartition:
        from repro.core.multi_acc import AcceleratorPartition
        from repro.mapping.configs import config_by_name

        return AcceleratorPartition(
            [config_by_name(name) for name in self._names], device=self._device
        )

    def __getitem__(self, name: str):
        return self.partition.designs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


class LazyPartition:
    """A partition of Table II configs, named now and built on first need.

    A simulator whose service table arrives seeded (a shard worker, or
    a CLI serve from a stored table) resolves a design only for a
    device-degraded fault window (which re-runs the model on the
    derated device) or a service-table miss; until then it imports only
    the dispatch layer.
    """

    def __init__(self, config_names: Sequence[str], device: DeviceSpec) -> None:
        self.device = device
        self.designs = _LazyDesigns(config_names, device)

    def estimate_on(self, accelerator: str, shape: GemmShape) -> float:
        return self.designs.partition.estimate_on(accelerator, shape)


class ServingSimulator:
    """Earliest-finish dispatch of a request trace over a partition.

    Service times are memoized per ``(accelerator, shape)`` pair;
    :meth:`prewarm` fills that cache in parallel before serving starts
    so no request pays a cold model evaluation, and :attr:`stats`
    reports the hit/miss balance after a run.  Every :meth:`run`
    publishes its evaluation counters through
    :func:`~repro.perf.metrics.record_eval` into :attr:`metrics`
    (``GLOBAL_METRICS`` unless replaced), so the CLI's ``--stats``
    reflects serving end to end.

    ``partition`` is duck-typed: dispatch iterates ``designs`` for the
    accelerator names and calls ``estimate_on`` on a cache miss; only a
    device-degraded fault window reads a design (its ``.config``).  An
    :class:`~repro.core.multi_acc.AcceleratorPartition` qualifies, and
    so does a :class:`LazyPartition` that builds one on first need.
    """

    def __init__(self, partition: AcceleratorPartition | LazyPartition):
        self.partition = partition
        # per-shape service times are reused across requests
        self._service_cache: dict[tuple[str, GemmShape], float] = {}
        self._infeasible: set[tuple[str, GemmShape]] = set()
        self.stats = EvalStats()
        self.metrics: MetricsRegistry = GLOBAL_METRICS

    @classmethod
    def seeded(
        cls,
        config_names: Sequence[str],
        device: DeviceSpec,
        services: dict[tuple[str, GemmShape], float],
        infeasible: set[tuple[str, GemmShape]],
    ) -> ServingSimulator:
        """A simulator over a :class:`LazyPartition` whose service table
        is ``services`` and ``infeasible``: it dispatches exactly like
        the simulator that computed them, without running the model."""
        simulator = cls(LazyPartition(config_names, device))
        simulator._service_cache.update(services)
        simulator._infeasible.update(infeasible)
        return simulator

    def _service(self, accelerator: str, shape: GemmShape) -> float:
        key = (accelerator, shape)
        if key not in self._service_cache:
            self.stats.cache_misses += 1
            self.stats.evaluations += 1
            self._service_cache[key] = self.partition.estimate_on(accelerator, shape)
        else:
            self.stats.cache_hits += 1
        return self._service_cache[key]

    def _service_or_none(self, accelerator: str, shape: GemmShape) -> float | None:
        """Like :meth:`_service`, but resolves infeasible pairs to None
        (counted as skipped, cached so the model is never re-walked)."""
        key = (accelerator, shape)
        cached = self._service_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        if key in self._infeasible:
            self.stats.skipped += 1
            return None
        try:
            value = self.partition.estimate_on(accelerator, shape)
        except ValueError:
            self._infeasible.add(key)
            self.stats.skipped += 1
            return None
        self.stats.cache_misses += 1
        self.stats.evaluations += 1
        self._service_cache[key] = value
        return value

    def prewarm(self, shapes: Sequence[GemmShape]) -> int:
        """Precompute service times for ``shapes`` on every accelerator.

        Infeasible pairs are skipped (dispatch skips them too), and
        pairs already resolved either way are not evaluated again.
        Returns the number of pairs resolved.
        """
        pairs = [
            (name, shape)
            for shape in dict.fromkeys(shapes)
            for name in self.partition.designs
            if (name, shape) not in self._service_cache
            and (name, shape) not in self._infeasible
        ]
        warmed = 0
        with span("serve.prewarm", track="serving", pairs=len(pairs)), track(
            self.stats
        ):
            for name, shape in pairs:
                try:
                    service = self.partition.estimate_on(name, shape)
                except ValueError:
                    self._infeasible.add((name, shape))
                    continue
                self._service_cache[(name, shape)] = service
                warmed += 1
        self.stats.evaluations += warmed
        self.stats.skipped += len(pairs) - warmed
        record_eval(EvalStats(evaluations=warmed), self.metrics)
        return warmed

    # ------------------------------------------------------------------
    def run(
        self,
        trace: SoATrace,
        *,
        streaming: bool = False,
        dispatch: str = "auto",
        quantile_error: float = 0.01,
        chunk_size: int = DISPATCH_CHUNK,
        faults: FaultSchedule | None = None,
        fault_policy: FaultPolicy | None = None,
        monitor: "ServingMonitor | None" = None,
    ) -> ServingReport | StreamingServingReport:
        """Serve ``trace``; return an exact or streaming report.

        ``trace`` is a :class:`~repro.sim.streaming.SoATrace`, as
        :func:`~repro.sim.streaming.generate_trace_soa` builds it.

        ``dispatch`` selects the path: ``auto`` (the default) runs the
        vectorized fast path at every partition width — the native
        k-wide exact loop when a C compiler is present, NumPy
        speculate-and-verify rounds otherwise — and, under a fault
        schedule, batches every segment between two fault transitions
        through the native loop, whatever windows are active there
        (without a compiler, a faulted run takes every attempt through
        the scan's scalar fault loop); ``scan`` runs
        the seed loop, the ground-truth oracle.  Both make
        byte-identical dispatch decisions and hand them to one report
        sink, so either report kind is byte-identical across paths too
        (see the dispatch-path matrix in ``docs/performance.md``).
        ``auto`` rejects NaN service times, naming the accelerator and
        shape.

        ``streaming=True`` returns a :class:`StreamingServingReport`
        with ``quantile_error``-bounded percentiles, folded chunk by
        chunk: O(1) memory in the trace length on fault-free ``auto``
        runs and on faulted runs of either path, a generated trace
        included (it is generated block by block and never held
        whole).  The fault loop holds its outcome columns only for the
        blocks from the oldest unresolved request to the cursor, which
        spans more than one block only while re-attempts are pending
        from earlier blocks (see :meth:`_run_faulted`).  The fault-free
        scan oracle reads the whole trace.  The default exact mode keeps
        every completed request as report columns (see
        :class:`ServingReport`).

        ``faults`` injects a time-varying fault schedule under
        ``fault_policy`` (default :data:`~repro.sim.chaos.DEFAULT_FAULT_POLICY`)
        — see the module docstring for the exact semantics.  ``None`` or
        an empty schedule takes the fault-free paths untouched.

        ``monitor`` attaches a :class:`repro.obs.windows.ServingMonitor`
        fed at the dispatch-chunk boundaries, *after* every decision in
        a chunk is final — so an attached monitor cannot change a
        single dispatch decision (a conformance-tested byte-identity
        contract).  Sheds and kills under a fault schedule are reported
        to the monitor at their simulated decision times.
        """
        if dispatch not in _DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {_DISPATCH_MODES}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if not isinstance(trace, SoATrace):
            raise TypeError(
                f"run() serves an SoATrace, got {type(trace).__name__}; "
                "build the trace with generate_trace_soa()"
            )
        if len(trace) == 0:
            # one uniform contract across every path: an empty trace
            # has no dispatch semantics (generate_trace_soa likewise
            # rejects num_requests < 1)
            raise ValueError(
                "cannot serve an empty trace: num_requests must be positive"
            )
        faulted = faults is not None and not faults.is_empty
        make_sink = partial(
            _ReportSink,
            list(self.partition.designs),
            streaming=streaming,
            quantile_error=quantile_error,
            chunk_size=chunk_size,
            monitor=monitor,
            rows=len(trace),
        )
        before = self.stats.snapshot()
        try:
            with span(
                "serve.run",
                track="serving",
                requests=len(trace),
                dispatch=dispatch,
                streaming=streaming,
                faulted=faulted,
            ), track(self.stats):
                if faulted:
                    return self._run_faulted(
                        trace,
                        make_sink,
                        dispatch=dispatch,
                        faults=faults,
                        policy=fault_policy,
                    )
                if dispatch == "scan":
                    return self._run_scan(trace, make_sink)
                return self._run_fast(trace, make_sink)
        finally:
            record_eval(self.stats.delta_since(before), self.metrics)

    def _run_faulted(
        self,
        trace: SoATrace,
        make_sink: Callable[[], _ReportSink],
        *,
        dispatch: str,
        faults: FaultSchedule,
        policy: FaultPolicy | None,
    ) -> ServingReport | StreamingServingReport:
        """The fault-aware event loop, shared by both dispatch paths.

        Attempts run in ``(time, arrival position, retries)`` order —
        time-ordered, position-tied — so re-attempts interleave with
        later arrivals deterministically.  Fresh arrivals are read
        through a cursor over the trace's ``_FAULT_BLOCK`` blocks; only
        re-attempts (kill backoffs, requeues) live in a heap, each
        entry carrying its request's class id, and one wins a tie with
        the next arrival because its position is smaller.
        Every scalar attempt goes through one selector and the loop
        (kills, backoff, requeues, shedding) is one code path; ``auto``
        only adds native-kernel segment batches the scalar loop would
        have decided identically, which is what makes both paths' fault
        semantics identical by construction.

        Outcomes are written into their trace block's buffers; once
        every row of the oldest block is completed or shed, its
        completed rows go to the report sink, in position order.  The
        loop therefore holds the blocks from the oldest unresolved row
        to the cursor: one block, unless a re-attempt is pending from
        an earlier one.  That span grows with the trace only while
        requests wait out a window in which no accelerator can serve
        them (every arrival there is requeued to the window's end) or a
        killed request's backoff lies far ahead of the arrivals.
        """
        # the fault layer loads only for a faulted run
        from repro.sim.chaos import DEFAULT_FAULT_POLICY, FaultError

        policy = policy or DEFAULT_FAULT_POLICY
        names = list(self.partition.designs)
        unknown = set(faults.accelerators()) - set(names)
        if unknown:
            raise FaultError(
                f"fault schedule names accelerators not in the partition: "
                f"{sorted(unknown)} (partition has {names})"
            )
        classes = trace.shapes
        n = len(trace)
        specs = self._class_specs(classes, _used_classes(trace))
        self.stats.cache_hits += n
        view = _FaultView(self, faults, names, classes, specs)
        width = len(names)
        free = [0.0] * width
        select = _ScanFaultSelector(view, free, width).select

        sink = make_sink()
        exact = sink.report is None
        # exact mode: each settled block's arrivals, class ids, request
        # ids and retries, the report's remaining columns
        kept: list[tuple[np.ndarray, ...]] = []
        settled = retry_total = 0
        makespan = 0.0
        block = _FAULT_BLOCK
        source = trace.blocks(block)
        # the blocks read so far and not yet handed over, by block index
        live: dict[int, _FaultBlock] = {}
        oldest = 0

        def drain(cursor: int) -> None:
            """Hand the settled blocks at the front to the sink: those
            the cursor has passed with no row waiting to be re-attempted."""
            nonlocal oldest, settled, retry_total, makespan
            while oldest in live:
                rows = live[oldest]
                if rows.waiting or rows.base + rows.size > cursor:
                    return
                del live[oldest]
                oldest += 1
                keep = slice(None)
                if rows.shed:
                    keep = np.ones(rows.size, dtype=bool)
                    keep[rows.shed] = False
                arrivals = rows.arrivals[keep]
                finishes = rows.finishes[keep]
                retries = rows.retries[keep]
                sink.add(
                    settled, arrivals, rows.accs[keep], rows.starts[keep], finishes
                )
                settled += finishes.size
                if finishes.size:
                    makespan = max(makespan, float(finishes.max()))
                retry_total += int(retries.sum())
                if exact:
                    # request ids are arrival positions
                    request_ids = np.arange(
                        rows.base, rows.base + rows.size, dtype=np.int64
                    )[keep]
                    kept.append((arrivals, rows.class_ids[keep], request_ids, retries))

        def settle(positions, accs, starts, finishes, tries) -> None:
            """Record completed rows at ``positions`` in their blocks."""
            first = int(positions.min()) // block
            final = int(positions.max()) // block
            for index in range(first, final + 1):
                rows = live[index]
                if first == final:
                    rows.record(positions - rows.base, accs, starts, finishes, tries)
                    continue
                picked = (positions >= rows.base) & (positions < rows.base + block)
                rows.record(
                    positions[picked] - rows.base,
                    accs[picked],
                    starts[picked],
                    finishes[picked],
                    tries[picked],
                )

        # the cursor's block, and lists of up to _SCALAR_WINDOW of its
        # arrivals and class ids from ``window_lo`` on (list-speed
        # scalars); ``upcoming`` is the arrival at the cursor, inf once
        # every arrival is in
        cursor = current_base = current_end = 0
        window_lo = window_hi = 0
        # ``(time, position, retries, class id)``
        retry_heap: list[tuple[float, int, int, int]] = []
        shed_records: list[tuple[int, int, str, float, int, float]] = []
        # kill/requeue decision log, ``(time, kind, position, retries)``:
        # the exact report keeps it, a streaming run only its kill times
        timeline: list[tuple[float, str, int, int]] = []
        kills = 0
        requeues = 0
        backoff = policy.backoff
        max_retries = policy.max_retries
        # with the native kernel, the fast path batches every segment
        # [t0, next transition) — the set of active windows is constant
        # there — on the service matrix of that window state (a down
        # accelerator is an inf column); the scalar loop below keeps
        # sole ownership of kills, requeues and shedding, so anything
        # the kernel cannot prove safe (a start reaching the next
        # transition, a finish crossing a down onset, a row no
        # accelerator can serve) is simply handed back to it.  Without
        # the kernel every attempt takes the scalar loop, as on scan
        if dispatch == "auto":
            healthy = self._service_matrix(names, specs)
            self._require_finite_services(names, healthy, classes)
        use_batch = dispatch == "auto" and dispatch_batch.native_available()
        if use_batch:
            kernel = dispatch_batch._native_dispatch
            # active-window signature -> that segment's service matrix
            matrices: dict[tuple[int | None, ...], np.ndarray] = {}
        min_batch = 64
        batch_paused = False
        no_batch_before = -math.inf
        batched = scalar = segments = 0
        loop_span = span("serve.fault_loop", track="serving", requests=n)
        with loop_span:
            while cursor < n or retry_heap:
                if cursor >= window_hi:
                    if cursor == n:
                        window_lo, window_hi, window_arrivals = n, n + 1, [math.inf]
                    else:
                        if cursor == current_end:
                            # hand over what the cursor has settled
                            # before the next block is read
                            drain(cursor)
                            base, arrivals, shape_ids = next(source)
                            current = _FaultBlock(base, arrivals, shape_ids)
                            live[base // block] = current
                            current_base, current_end = base, base + current.size
                        window_lo = cursor
                        window_hi = min(cursor + _SCALAR_WINDOW, current_end)
                        lo, hi = cursor - current_base, window_hi - current_base
                        window_arrivals = current.arrivals[lo:hi].tolist()
                        window_ids = current.class_ids[lo:hi].tolist()
                upcoming = window_arrivals[cursor - window_lo]
                if (
                    use_batch
                    and not batch_paused
                    and n - cursor + len(retry_heap) >= min_batch
                ):
                    t0 = upcoming
                    if retry_heap and retry_heap[0][0] <= t0:
                        t0 = retry_heap[0][0]
                    if t0 >= no_batch_before:
                        nxt = view.next_transition_after(t0)
                        limit = math.inf if nxt is None else nxt
                        # a batch takes at most the rest of the cursor's
                        # block: the attempts before ``limit`` that also
                        # come before the block's last row in (time,
                        # position) order, a prefix of the scalar order
                        offset = cursor - current_base
                        rest = current.arrivals[offset:]
                        fresh_rows = int(np.searchsorted(rest, limit))
                        last = float(rest[-1]) if cursor < n else math.inf
                        due: list[tuple[float, int, int, int]] = []
                        while (
                            retry_heap
                            and retry_heap[0][0] < limit
                            and retry_heap[0][0] <= last
                        ):
                            if len(due) == block:
                                # at most a block of re-attempts too: the
                                # batch ends before the next one
                                fresh_rows = min(
                                    fresh_rows,
                                    int(np.searchsorted(rest, retry_heap[0][0])),
                                )
                                break
                            due.append(heapq.heappop(retry_heap))
                        times = rest[:fresh_rows]
                        cids = current.class_ids[offset : offset + fresh_rows]
                        if fresh_rows + len(due) < min_batch:
                            # the scalar loop takes the few attempts up
                            # to the segment's or the block's end
                            for item in due:
                                heapq.heappush(retry_heap, item)
                            no_batch_before = (
                                limit if limit <= last else math.nextafter(last, limit)
                            )
                        else:
                            signature = tuple(
                                view.window_index_at(order, t0)
                                for order in range(width)
                            )
                            services = matrices.get(signature)
                            if services is None:
                                services = matrices[signature] = (
                                    view.segment_services(signature, healthy)
                                )
                            if due:
                                # re-attempts first, so the stable sort
                                # breaks equal times toward their smaller
                                # positions
                                due_times, due_positions, due_tries, due_cids = zip(
                                    *due
                                )
                                times = np.concatenate((due_times, times))
                                cids = np.concatenate((due_cids, cids))
                                fresh_positions = np.arange(cursor, cursor + fresh_rows)
                                positions = np.concatenate(
                                    (due_positions, fresh_positions)
                                )
                                tries = np.concatenate(
                                    (due_tries, np.zeros_like(fresh_positions))
                                )
                                ordered = np.argsort(times, kind="stable")
                                times = times[ordered]
                                cids = cids[ordered]
                                positions = positions[ordered]
                                tries = tries[ordered]
                            next_downs = tuple(
                                nd if (nd := view.next_down_after(order, t0))
                                is not None
                                else math.inf
                                for order in range(width)
                            )
                            accepted, accs, starts, fins = kernel(
                                times, cids, services, free, limit, next_downs
                            )
                            segments += 1
                            batched += accepted
                            if not due:
                                # fresh rows only: one stretch of the
                                # cursor's block
                                fresh = accepted
                                current.record(
                                    slice(offset, offset + accepted),
                                    accs,
                                    starts,
                                    fins,
                                    0,
                                )
                            else:
                                # re-attempts sit below the cursor; what
                                # is left of both sources goes back to them
                                placed = positions[:accepted]
                                fresh = int(np.count_nonzero(placed >= cursor))
                                if accepted:
                                    settle(placed, accs, starts, fins, tries[:accepted])
                                for item in due[: accepted - fresh]:
                                    live[item[1] // block].waiting -= 1
                            for item in due[accepted - fresh :]:
                                heapq.heappush(retry_heap, item)
                            cursor += fresh
                            if accepted == 0:
                                # boundary-blocked segment: the scalar
                                # loop finishes it without re-draining
                                no_batch_before = limit
                            elif accepted < len(times):
                                batch_paused = True
                            continue
                if retry_heap and retry_heap[0][0] <= upcoming:
                    t, pos, retries, cid = heapq.heappop(retry_heap)
                    live[pos // block].waiting -= 1
                else:
                    t = upcoming
                    pos, retries = cursor, 0
                    cid = window_ids[cursor - window_lo]
                    cursor += 1
                scalar += 1
                batch_paused = False
                best = select(t, cid)
                if best is None:
                    nxt = view.next_transition_after(t)
                    if nxt is None:
                        rows = live[pos // block]
                        rows.shed.append(pos - rows.base)
                        shed_records.append(
                            (
                                pos,
                                retries,
                                "no_feasible_accelerator",
                                t,
                                cid,
                                rows.arrivals.item(pos - rows.base),
                            )
                        )
                        continue
                    requeues += 1
                    if exact:
                        timeline.append((nxt, "requeue", pos, retries))
                    heapq.heappush(retry_heap, (nxt, pos, retries, cid))
                    live[pos // block].waiting += 1
                    continue
                order, start, finish = best
                next_down = view.next_down_after(order, start)
                if next_down is not None and next_down < finish:
                    # killed: the down window opened mid-execution
                    kills += 1
                    timeline.append((next_down, "kill", pos, retries + 1))
                    free[order] = next_down
                    rows = live[pos // block]
                    if retries + 1 > max_retries:
                        rows.shed.append(pos - rows.base)
                        shed_records.append(
                            (
                                pos,
                                retries + 1,
                                "retry_budget_exhausted",
                                next_down,
                                cid,
                                rows.arrivals.item(pos - rows.base),
                            )
                        )
                        continue
                    heapq.heappush(
                        retry_heap,
                        (next_down + backoff(retries + 1), pos, retries + 1, cid),
                    )
                    rows.waiting += 1
                    continue
                free[order] = finish
                # _FaultBlock.record's writes, inline: the method call
                # made 100k C5+C3 chaos serves ~9% slower
                rows = live[pos // block]
                row = pos - rows.base
                rows.accs[row] = order
                rows.starts[row] = start
                rows.finishes[row] = finish
                rows.retries[row] = retries
            drain(n)
            loop_span.set(
                kills=kills,
                requeues=requeues,
                shed=len(shed_records),
                batched=batched,
                scalar=scalar,
                segments=segments,
            )

        shed_records.sort()
        total_retries = retry_total + sum(record[1] for record in shed_records)
        downtime = {name: 0.0 for name in names}
        downtime.update(faults.downtime(makespan))
        record_faults(
            FaultStats(
                windows=len(faults),
                kills=kills,
                retries=total_retries,
                requeues=requeues,
                shed=len(shed_records),
                completed=settled,
            ),
            self.metrics,
        )
        columns = (
            dict(
                zip(
                    ("arrivals", "class_ids", "request_ids", "retries"),
                    (_joined(column) for column in zip(*kept)),
                )
            )
            if exact
            else {}
        )
        report = sink.finish(
            classes,
            **columns,
            total_retries=total_retries,
            shed=[
                ShedRequest(
                    request=Request(
                        request_id=pos, shape=classes[cid], arrival=arrival
                    ),
                    retries=retries,
                    reason=reason,
                    time=when,
                )
                for pos, retries, reason, when, cid, arrival in shed_records
            ],
            fault_events=faults.events(),
            downtime=downtime,
            kills=kills,
            requeues=requeues,
            fault_timeline=sorted(timeline),
        )
        monitor = sink.monitor
        if monitor is not None:
            if shed_records:
                monitor.observe_sheds(
                    np.asarray([record[3] for record in shed_records])
                )
            kill_times = [when for when, kind, _, _ in timeline if kind == "kill"]
            if kill_times:
                monitor.observe_kills(np.asarray(kill_times))
        return report

    def _run_scan(
        self, trace: SoATrace, make_sink: Callable[[], _ReportSink]
    ) -> ServingReport | StreamingServingReport:
        """The seed dispatch loop: linear scan over every accelerator."""
        classes = trace.shapes
        free_at = {name: 0.0 for name in self.partition.designs}
        order_of = {name: order for order, name in enumerate(free_at)}
        accs, starts, finishes = [], [], []
        for arrival, cid in zip(trace.arrivals.tolist(), trace.shape_ids.tolist()):
            shape = classes[cid]
            best_name, best_finish, best_start = None, float("inf"), 0.0
            for name in free_at:
                try:
                    service = self._service(name, shape)
                except ValueError:
                    continue
                start = max(arrival, free_at[name])
                finish = start + service
                if finish < best_finish:
                    best_name, best_finish, best_start = name, finish, start
            if best_name is None:
                raise ValueError(f"no accelerator can serve {shape}")
            free_at[best_name] = best_finish
            accs.append(order_of[best_name])
            starts.append(best_start)
            finishes.append(best_finish)
        sink = make_sink()
        sink.add(
            0,
            trace.arrivals,
            np.asarray(accs, dtype=_ACC_DTYPE),
            np.asarray(starts, dtype=np.float64),
            np.asarray(finishes, dtype=np.float64),
        )
        return sink.finish(classes, trace.arrivals, trace.shape_ids)

    def _class_specs(
        self, classes: Sequence[GemmShape], used: Sequence[bool]
    ) -> list[tuple]:
        """Flat ``(acc, service, ...)`` dispatch spec per shape class
        (empty for a class no request uses, as ``used`` says)."""
        names = list(self.partition.designs)
        specs: list[tuple] = []
        for class_id, shape in enumerate(classes):
            if not used[class_id]:
                specs.append(())
                continue
            flat: list = []
            for order, name in enumerate(names):
                service = self._service_or_none(name, shape)
                if service is not None:
                    flat.append(order)
                    flat.append(service)
            if not flat:
                raise ValueError(f"no accelerator can serve {shape}")
            specs.append(tuple(flat))
        return specs

    @staticmethod
    def _service_matrix(names: Sequence[str], specs: Sequence[tuple]) -> np.ndarray:
        """Dense ``(width, classes)`` service matrix; ``inf`` = infeasible."""
        services = np.full((len(names), len(specs)), np.inf)
        for cid, spec in enumerate(specs):
            for offset in range(0, len(spec), 2):
                services[spec[offset], cid] = spec[offset + 1]
        return services

    @staticmethod
    def _require_finite_services(
        names: Sequence[str], services: np.ndarray, classes: Sequence[GemmShape]
    ) -> None:
        """Reject NaN service entries on every ``auto`` run.

        ``inf`` legitimately marks infeasible pairs (it can never win a
        strict-less earliest-finish comparison), but NaN poisons every
        comparison and would silently desynchronize the fast path from
        the scan oracle — so the run fails loudly, naming the offending
        accelerator and shape class.
        """
        bad = np.argwhere(np.isnan(services))
        if bad.size:
            order, cid = (int(value) for value in bad[0])
            raise ValueError(
                f"accelerator {names[order]!r} reports a NaN service time "
                f"for shape {classes[cid]}; dispatch needs finite service "
                f"times"
            )

    def _run_fast(
        self, trace: SoATrace, make_sink: Callable[[], _ReportSink]
    ) -> ServingReport | StreamingServingReport:
        names = list(self.partition.designs)
        sink = make_sink()
        # the exact report keeps the whole trace as columns, so it reads
        # it once; a streaming fold takes a generated trace block by
        # block and never holds it
        columns = (trace.arrivals, trace.shape_ids) if sink.report is None else ()
        specs = self._class_specs(trace.shapes, _used_classes(trace))
        services = self._service_matrix(names, specs)
        self._require_finite_services(names, services, trace.shapes)
        # dispatched service lookups are cache hits by construction
        self.stats.cache_hits += len(trace)
        dispatch_vectorized(
            trace.blocks(sink.chunk_size),
            services,
            [0.0] * len(names),
            sink.add,
            sink.chunk_size,
        )
        return sink.finish(trace.shapes, *columns)


@dataclass(frozen=True)
class LoadSweepPoint:
    """One offered-load measurement on the throughput/latency curve."""

    offered_rps: float
    achieved_rps: float
    p50: float
    p99: float
    mean_latency: float
    num_requests: int
    #: SLO verdict for this point (None when the sweep ran without one)
    slo_ok: bool | None = None
    #: burn-rate alerts fired while serving this point
    slo_alerts: int = 0

    @property
    def saturation(self) -> float:
        """Achieved / offered throughput (1.0 = keeping up)."""
        if self.offered_rps == 0:
            return 0.0
        return self.achieved_rps / self.offered_rps


@dataclass
class LoadSweepResult:
    """An offered-load sweep: points, saturation knee, plateau exit."""

    points: list[LoadSweepPoint]
    #: first offered load the partition could not keep up with
    knee_rps: float | None
    #: throughput ceiling observed when the sweep exited early
    plateau_rps: float | None
    early_exit: bool
    #: first offered load that breached the SLO (None without a spec,
    #: or when every point stayed within budget)
    slo_breach_rps: float | None = None

    def rows(self) -> list[dict]:
        rows = []
        for point in self.points:
            row = {
                "offered_rps": round(point.offered_rps, 1),
                "achieved_rps": round(point.achieved_rps, 1),
                "saturation": round(point.saturation, 3),
                "p50_ms": round(point.p50 * 1e3, 3),
                "p99_ms": round(point.p99 * 1e3, 3),
                "mean_ms": round(point.mean_latency * 1e3, 3),
            }
            if point.slo_ok is not None:
                row["slo"] = "ok" if point.slo_ok else f"BREACH({point.slo_alerts})"
            rows.append(row)
        return rows


def default_load_ramp(
    simulator: ServingSimulator, shapes: Sequence[GemmShape], points: int = 10
) -> list[float]:
    """A geometric offered-load ramp bracketing the partition's capacity.

    Capacity is approximated as every accelerator draining its mean
    feasible service time concurrently; the ramp spans 0.1x to ~3x of
    it so the saturation knee lands inside the sweep.
    """
    capacity = 0.0
    for name in simulator.partition.designs:
        services = [
            service
            for shape in dict.fromkeys(shapes)
            if (service := simulator._service_or_none(name, shape)) is not None
        ]
        if services:
            capacity += len(services) / sum(services)
    if capacity <= 0:
        raise ValueError("no accelerator can serve any of the shapes")
    factor = (3.0 / 0.1) ** (1.0 / max(points - 1, 1))
    return [0.1 * capacity * factor**index for index in range(points)]


def load_sweep(
    simulator: ServingSimulator,
    shapes: Sequence[GemmShape],
    offered_loads: Sequence[float] | None = None,
    *,
    num_requests: int = 2000,
    seed: int = 0,
    streaming: bool = True,
    quantile_error: float = 0.01,
    knee_tol: float = 0.05,
    plateau_rtol: float = 0.02,
    jobs: int = 1,
    shards: int = 1,
    start_method: str | None = None,
    faults: FaultSchedule | None = None,
    fault_policy: FaultPolicy | None = None,
    slo: "SloSpec | str | None" = None,
    slo_windows: int = 50,
) -> LoadSweepResult:
    """Sweep offered load, collecting throughput and tail-latency curves.

    For each offered load (requests/sec) a fresh SoA trace is generated
    and served (``streaming=True`` keeps the sweep O(1) in memory).
    Every point draws its trace from :func:`~repro.sim.streaming.derive_seed`
    ``(seed, point index)``, so the points are decorrelated yet fully
    determined by ``seed`` alone.  The *saturation knee* is the first
    load whose achieved throughput falls below ``offered * (1 -
    knee_tol)``; once achieved throughput stops growing by more than
    ``plateau_rtol`` between consecutive points the sweep exits early —
    past saturation every extra point costs a full simulation and
    reports the same ceiling.

    ``jobs > 1`` evaluates points in waves of ``jobs`` through
    :func:`~repro.perf.parallel.parallel_map` — thread-based, so the
    simulator's SoA traces and service tables are shared, never pickled
    — while the knee/plateau fold still walks the results in offered-
    load order and truncates at the same point, making the returned
    sweep byte-equal to a ``jobs=1`` run (``jobs=0`` uses every core).

    ``faults`` applies the same fault schedule to every point of the
    sweep (the schedule is in absolute trace time), so the curve shows
    degraded-capacity behaviour; latency percentiles cover completed
    requests only, with shedding reflected in achieved throughput.

    ``shards > 1`` serves each point through a shared
    :class:`~repro.sim.cluster_serving.ShardedServingCluster` (one
    process pool reused across points, ``start_method`` selecting
    fork/spawn/forkserver/inline): every point's trace is partitioned
    into ``shards`` replicas whose per-shard dispatch is byte-identical
    to unsharded runs over the same sub-traces.  Points then evaluate
    sequentially — the parallelism budget lives in the shard pool, so
    ``jobs`` bounds the pool's worker processes instead of sweep
    threads.  Sharded points imply ``streaming=True``.

    ``slo`` (a spec string like ``"p99<50ms,avail>0.999"`` or a
    compiled :class:`repro.obs.slo.SloSpec`) attaches a windowed
    :class:`~repro.obs.windows.ServingMonitor` to every point — each
    point's horizon cut into ``slo_windows`` windows — and stamps the
    point with its burn-rate verdict, so the saturation knee carries an
    SLO-breach annotation (``slo_breach_rps`` is the first offered load
    whose point fired an alert).
    """
    if offered_loads is None:
        offered_loads = default_load_ramp(simulator, shapes)
    offered_loads = list(offered_loads)
    if not offered_loads:
        raise ValueError("need at least one offered load")
    if any(load <= 0 for load in offered_loads):
        raise ValueError("offered loads must be positive")
    if shards < 1:
        raise ValueError("need at least one shard")

    cluster = None
    if shards > 1:
        from repro.sim.cluster_serving import ShardedServingCluster

        cluster = ShardedServingCluster(
            simulator,
            shapes,
            shards=shards,
            quantile_error=quantile_error,
            start_method=start_method,
            max_workers=resolve_jobs(jobs) if jobs != 1 else None,
            faults=faults,
            fault_policy=fault_policy,
        )

    slo_spec = None
    if slo is not None:
        from repro.obs.slo import SloSpec

        slo_spec = SloSpec.parse(slo) if isinstance(slo, str) else slo

    def evaluate(task: tuple[int, float]) -> LoadSweepPoint:
        index, offered = task
        monitor = None
        if slo_spec is not None:
            from repro.obs.windows import ServingMonitor

            # each point's trace spans ~num_requests/offered seconds of
            # simulated time; cut that horizon into slo_windows windows
            monitor = ServingMonitor.for_horizon(
                num_requests / offered,
                slo_windows,
                quantile_error=quantile_error,
            )
        if cluster is not None:
            fleet = cluster.serve(
                num_requests,
                1.0 / offered,
                seed=derive_seed(seed, index),
                monitor_window=(
                    monitor.window_seconds if monitor is not None else None
                ),
            )
            report = fleet.report
            if monitor is not None:
                monitor = fleet.monitor
        else:
            trace = generate_trace_soa(
                shapes, num_requests, 1.0 / offered, seed=derive_seed(seed, index)
            )
            report = simulator.run(
                trace,
                streaming=streaming,
                quantile_error=quantile_error,
                faults=faults,
                fault_policy=fault_policy,
                monitor=monitor,
            )
        p50, p99 = report.latency_percentiles([50, 99])
        slo_ok = None
        slo_alerts = 0
        if monitor is not None:
            from repro.obs.slo import evaluate_slo

            verdict = evaluate_slo(monitor, slo_spec)
            slo_ok = verdict.ok
            slo_alerts = len(verdict.alerts)
        return LoadSweepPoint(
            offered_rps=offered,
            achieved_rps=report.throughput_rps,
            p50=p50,
            p99=p99,
            mean_latency=report.mean_latency(),
            num_requests=num_requests,
            slo_ok=slo_ok,
            slo_alerts=slo_alerts,
        )

    # one pool submission pipeline at a time: sharded sweeps keep their
    # parallelism inside the cluster, so points go through in order
    wave = 1 if cluster is not None else resolve_jobs(jobs)
    points: list[LoadSweepPoint] = []
    knee_rps: float | None = None
    plateau_rps: float | None = None
    slo_breach_rps: float | None = None
    early_exit = False
    position = 0
    try:
        while position < len(offered_loads) and not early_exit:
            tasks = [
                (index, offered_loads[index])
                for index in range(position, min(position + wave, len(offered_loads)))
            ]
            position += len(tasks)
            for point in parallel_map(evaluate, tasks, jobs=wave):
                points.append(point)
                if knee_rps is None and point.saturation < 1.0 - knee_tol:
                    knee_rps = point.offered_rps
                if slo_breach_rps is None and point.slo_ok is False:
                    slo_breach_rps = point.offered_rps
                if len(points) >= 2 and knee_rps is not None:
                    previous = points[-2].achieved_rps
                    if (
                        previous > 0
                        and abs(point.achieved_rps - previous)
                        <= plateau_rtol * previous
                    ):
                        plateau_rps = point.achieved_rps
                        early_exit = True
                        break
    finally:
        if cluster is not None:
            cluster.close()
    return LoadSweepResult(
        points=points,
        knee_rps=knee_rps,
        plateau_rps=plateau_rps,
        early_exit=early_exit,
        slo_breach_rps=slo_breach_rps,
    )
