"""Serving simulation: GEMM request streams over a partition.

A deployed Versal board serves a *stream* of inference requests, not one
workload; what matters operationally is tail latency versus offered
load.  This module generates deterministic pseudo-random request traces
(exponential-ish inter-arrivals from a hash-based LCG — no global RNG,
fully reproducible), dispatches each request to the partition
accelerator that finishes it earliest, and reports throughput and
latency percentiles.

Two dispatch paths produce **byte-identical** decisions:

* the seed scan (``dispatch="scan"``) — the original O(requests x
  accelerators) loop, kept as the ground-truth oracle (exact mode only);
* the fast path (``dispatch="auto"``, the default) — the vectorized
  engine of :mod:`repro.sim.dispatch_batch` over the SoA trace, at every
  partition width: the native k-wide exact loop when a C compiler is
  present, NumPy speculate-and-verify rounds otherwise.

``run(..., streaming=True)`` feeds dispatched chunks straight into a
:class:`~repro.sim.streaming.StreamingServingReport` — O(1) memory in
the trace length, with the sketch's documented percentile error bound —
and :func:`load_sweep` drives the offered-load -> tail-latency curve
the paper's serving discussion is about, with saturation-knee detection
and an early exit once throughput plateaus.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from repro.core.multi_acc import AcceleratorPartition
from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry
from repro.obs.spans import GLOBAL_TRACER, span
from repro.perf.metrics import (
    EvalStats,
    FaultStats,
    record_eval,
    record_faults,
    track,
)
from repro.perf.parallel import parallel_map, resolve_jobs
from repro.sim.chaos import (
    DEFAULT_FAULT_POLICY,
    FaultError,
    FaultPolicy,
    FaultSchedule,
)
from repro.sim.dispatch_batch import dispatch_segment, dispatch_vectorized
from repro.sim.streaming import (
    SoATrace,
    StreamingServingReport,
    derive_seed,
    generate_trace_soa,
)
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.slo import SloSpec
    from repro.obs.windows import ServingMonitor

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


def _feed_monitor(
    monitor: "ServingMonitor",
    arrivals: np.ndarray,
    starts: np.ndarray,
    finishes: np.ndarray,
    chunk_size: int,
) -> None:
    """Feed already-final completion columns to a monitor.

    Used by the scan oracle and the fault loop, which have no flush
    hook: the arrival-ordered ``chunk_size`` blocks match the boundaries
    the fast path flushes at, so the folded series are chunk-for-chunk
    the same.
    """
    for lo in range(0, int(arrivals.size), chunk_size):
        hi = lo + chunk_size
        monitor.observe_chunk(arrivals[lo:hi], starts[lo:hi], finishes[lo:hi])


def _request_ids(request_ids: np.ndarray | None, count: int) -> np.ndarray:
    """The request-id column; ``None`` means ids are arrival positions."""
    if request_ids is None:
        return np.arange(count, dtype=np.int64)
    return request_ids


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
        # reduction: the mean keeps the exact bits of summing the rows
        # one by one
        return sum(self.latencies.tolist()) / self.count

    def accelerator_load(self) -> dict[str, int]:
        """Completions per accelerator, keyed in first-completion order."""
        ids = self.accelerator_ids
        counts = np.bincount(ids, minlength=len(self.accelerator_names))
        used = np.flatnonzero(counts).tolist()
        first = sorted((int(np.argmax(ids == index)), index) for index in used)
        return {
            self.accelerator_names[index]: int(counts[index]) for _, index in first
        }


def _lcg_uniform(seed: int, index: int) -> float:
    """Deterministic uniform in (0, 1) from a splitmix-style hash."""
    x = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 31
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return ((x & 0xFFFFFFFF) + 1) / (2**32 + 2)


def generate_trace(
    shapes: Sequence[GemmShape],
    num_requests: int,
    mean_interarrival: float,
    seed: int = 0,
) -> list[Request]:
    """An exponential-interarrival request trace over a shape mix.

    The scalar reference: :func:`~repro.sim.streaming.generate_trace_soa`
    produces the same trace bit-identically as a structure-of-arrays
    (the log is evaluated through ``np.log`` here precisely so both
    paths share one float64 log implementation).
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if mean_interarrival <= 0:
        raise ValueError("mean inter-arrival must be positive")
    if not shapes:
        raise ValueError("need at least one shape")
    requests = []
    clock = 0.0
    for index in range(num_requests):
        clock += -mean_interarrival * float(np.log(_lcg_uniform(seed, 2 * index)))
        shape = shapes[int(_lcg_uniform(seed, 2 * index + 1) * len(shapes))]
        requests.append(Request(request_id=index, shape=shape, arrival=clock))
    return requests


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
    """

    def __init__(self, partition: AcceleratorPartition):
        self.partition = partition
        # per-shape service times are reused across requests
        self._service_cache: dict[tuple[str, GemmShape], float] = {}
        self._infeasible: set[tuple[str, GemmShape]] = set()
        self.stats = EvalStats()
        self.metrics: MetricsRegistry = GLOBAL_METRICS

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

    def perturbed(
        self, factor: Callable[[str, GemmShape], float]
    ) -> "ServingSimulator":
        """A new simulator whose cached service times are scaled.

        The noise hook for repeated-run benchmarking
        (``repro.bench``): ``factor(accelerator, shape)`` returns a
        finite positive multiplier per cached service time.  The
        perturbed table is materialised up front from this simulator's
        cache, so the copy serves noisy services through both
        dispatch paths — and through ``ShardedServingCluster``, whose
        worker payload ships the cache — byte-identically, with no
        per-request draw.  Requires a resolved cache
        (:meth:`prewarm` first); infeasible pairs stay infeasible.
        """
        if not self._service_cache:
            raise ValueError(
                "perturbed() requires resolved service times; call "
                "prewarm(shapes) before perturbing"
            )
        clone = ServingSimulator(self.partition)
        for (name, shape), service in self._service_cache.items():
            scale = factor(name, shape)
            if not math.isfinite(scale) or scale <= 0:
                raise ValueError(
                    f"service factor for ({name}, {shape}) must be a finite "
                    f"positive number, got {scale}"
                )
            clone._service_cache[(name, shape)] = service * scale
        clone._infeasible = set(self._infeasible)
        return clone

    def prewarm(
        self, shapes: Sequence[GemmShape], jobs: int = 1, vectorize: bool = False
    ) -> int:
        """Precompute service times for ``shapes`` on every accelerator.

        Infeasible pairs are skipped (dispatch skips them too).  Returns
        the number of pairs resolved; with ``jobs > 1`` the model
        evaluations run concurrently.  ``vectorize`` resolves all pairs
        through one batch evaluation per (precision, kernel style)
        family instead of per-pair model walks; the cached service times
        are bit-identical either way.
        """

        def resolve(pair: tuple[str, GemmShape]) -> tuple[tuple[str, GemmShape], float] | None:
            name, shape = pair
            try:
                return pair, self.partition.estimate_on(name, shape)
            except ValueError:
                return None

        pairs = [
            (name, shape)
            for shape in dict.fromkeys(shapes)
            for name in self.partition.designs
            if (name, shape) not in self._service_cache
        ]
        with span(
            "serve.prewarm",
            track="serving",
            pairs=len(pairs),
            jobs=jobs,
            vectorize=vectorize,
        ), track(self.stats):
            if vectorize and pairs:
                warmed = self._prewarm_vectorized(pairs)
            else:
                resolved = parallel_map(resolve, pairs, jobs=jobs)
                warmed = [entry for entry in resolved if entry is not None]
        for key, service in warmed:
            self._service_cache[key] = service
        warmed_keys = {key for key, _ in warmed}
        self._infeasible.update(pair for pair in pairs if pair not in warmed_keys)
        self.stats.evaluations += len(warmed)
        self.stats.skipped += len(pairs) - len(warmed)
        record_eval(EvalStats(evaluations=len(warmed), jobs=jobs), self.metrics)
        return len(warmed)

    def _prewarm_vectorized(
        self, pairs: Sequence[tuple[str, GemmShape]]
    ) -> list[tuple[tuple[str, GemmShape], float]]:
        """Resolve pairs through the batch evaluation kernel.

        A grid evaluates one (precision, kernel style) family at a time,
        so mixed partitions are grouped; within a group every pair
        carries its own workload shape.
        """
        from repro.perf.vectorized import batch_estimate_designs

        groups: dict[tuple, list[tuple[str, GemmShape]]] = {}
        for pair in pairs:
            design = self.partition.designs[pair[0]]
            groups.setdefault((design.precision, design.kernel_style), []).append(pair)
        warmed = []
        for group in groups.values():
            designs = [self.partition.designs[name] for name, _ in group]
            shapes = [shape for _, shape in group]
            batch = batch_estimate_designs(designs, shapes)
            for index, pair in enumerate(group):
                if batch.feasible[index]:
                    warmed.append((pair, float(batch.total_seconds[index])))
        return warmed

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Union[Sequence[Request], SoATrace],
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

        ``dispatch`` selects the path: ``auto`` (the default) runs the
        vectorized fast path at every partition width — the native
        k-wide exact loop when a C compiler is present, NumPy
        speculate-and-verify rounds otherwise — and, under a fault
        schedule, batches every segment between two fault transitions
        through it, whatever windows are active there; ``scan`` runs
        the seed loop, the ground-truth oracle
        (exact mode only).  Both make byte-identical dispatch decisions
        (see the dispatch-path matrix in ``docs/performance.md``).
        The fast path rejects NaN service times, naming the accelerator
        and shape.

        ``streaming=True`` returns a :class:`StreamingServingReport`
        with O(1) memory and ``quantile_error``-bounded percentiles;
        the default exact mode keeps every completed request as report
        columns (see :class:`ServingReport`).

        ``faults`` injects a time-varying fault schedule under
        ``fault_policy`` (default :data:`~repro.sim.chaos.DEFAULT_FAULT_POLICY`)
        — see the module docstring for the exact semantics.  ``None`` or
        an empty schedule takes the fault-free paths untouched.

        ``monitor`` attaches a :class:`repro.obs.windows.ServingMonitor`
        fed at the existing dispatch-chunk boundaries, *after* every
        decision in a chunk is final — so an attached monitor cannot
        change a single dispatch decision (a conformance-tested
        byte-identity contract).  Sheds and kills under a fault schedule
        are reported to the monitor at their simulated decision times.
        """
        if dispatch not in _DISPATCH_MODES:
            raise ValueError(f"dispatch must be one of {_DISPATCH_MODES}")
        if streaming and dispatch == "scan":
            raise ValueError(
                "streaming mode requires dispatch='auto'; the scan oracle "
                "is exact-mode only"
            )
        if len(trace) == 0:
            # one uniform contract across both paths: an empty
            # trace has no dispatch semantics (generate_trace* likewise
            # reject num_requests < 1)
            raise ValueError(
                "cannot serve an empty trace: num_requests must be positive"
            )
        before = self.stats.snapshot()
        try:
            with span(
                "serve.run",
                track="serving",
                requests=len(trace),
                dispatch=dispatch,
                streaming=streaming,
                faulted=faults is not None and not faults.is_empty,
            ), track(self.stats):
                if faults is not None and not faults.is_empty:
                    return self._run_faulted(
                        trace,
                        streaming=streaming,
                        dispatch=dispatch,
                        quantile_error=quantile_error,
                        chunk_size=chunk_size,
                        faults=faults,
                        policy=fault_policy or DEFAULT_FAULT_POLICY,
                        monitor=monitor,
                    )
                if dispatch == "scan":
                    report = self._run_scan(trace)
                    if monitor is not None:
                        # scan has no flush hook; feed the monitor
                        # post-hoc in the same arrival-ordered
                        # chunk_size blocks the fast path flushes
                        _feed_monitor(
                            monitor,
                            report.arrivals,
                            report.starts,
                            report.finishes,
                            chunk_size,
                        )
                    return report
                return self._run_fast(
                    trace,
                    streaming=streaming,
                    quantile_error=quantile_error,
                    chunk_size=chunk_size,
                    monitor=monitor,
                )
        finally:
            record_eval(self.stats.delta_since(before), self.metrics)

    def _run_faulted(
        self,
        trace: Union[Sequence[Request], SoATrace],
        *,
        streaming: bool,
        dispatch: str,
        quantile_error: float,
        chunk_size: int,
        faults: FaultSchedule,
        policy: FaultPolicy,
        monitor: "ServingMonitor | None" = None,
    ) -> ServingReport | StreamingServingReport:
        """The fault-aware event loop, shared by both dispatch paths.

        Attempts run in ``(time, arrival position, retries)`` order —
        time-ordered, position-tied — so re-attempts interleave with
        later arrivals deterministically.  Fresh arrivals are read
        through a cursor over the sorted arrival column; only
        re-attempts (kill backoffs, requeues) live in a heap, and one
        wins a tie with the next arrival because its position is
        smaller.  Every scalar attempt goes through one selector and
        the loop (kills, backoff, requeues, shedding) is one code path;
        ``auto`` only adds segment batches the scalar loop would have
        decided identically, which is what makes both paths' fault
        semantics identical by construction.  Outcomes are written into
        preallocated per-position report columns plus a done mask.
        """
        names = list(self.partition.designs)
        unknown = set(faults.accelerators()) - set(names)
        if unknown:
            raise FaultError(
                f"fault schedule names accelerators not in the partition: "
                f"{sorted(unknown)} (partition has {names})"
            )
        arrivals, class_ids, classes, request_ids = self._normalize(trace)
        n = len(arrivals)
        if streaming:
            report = StreamingServingReport(names, quantile_error=quantile_error)
        specs = self._class_specs(classes, set(class_ids))
        self.stats.cache_hits += len(class_ids)
        view = _FaultView(self, faults, names, classes, specs)
        width = len(names)
        free = [0.0] * width
        select = _ScanFaultSelector(view, free, width).select

        arrival_list = arrivals.tolist()
        cursor = 0
        retry_heap: list[tuple[float, int, int]] = []
        acc_col = np.zeros(n, dtype=_ACC_DTYPE)
        start_col = np.zeros(n)
        finish_col = np.zeros(n)
        retry_col = np.zeros(n, dtype=_RETRY_DTYPE)
        done = np.zeros(n, dtype=bool)
        shed_records: list[tuple[int, int, str, float]] = []
        # decision log for the trace exporter; streaming mode keeps its
        # O(1)-memory promise by not collecting one
        timeline: list[tuple[float, str, int, int]] | None = (
            None if streaming else []
        )
        kills = 0
        requeues = 0
        # kill timestamps are only retained when a monitor wants them
        kill_times: list[float] | None = [] if monitor is not None else None
        backoff = policy.backoff
        max_retries = policy.max_retries
        # the fast path batches every segment [t0, next transition) — the
        # set of active windows is constant there — through the
        # vectorized engine, on the service matrix of that window state
        # (a down accelerator is an inf column); the scalar loop below
        # keeps sole ownership of kills, requeues and shedding, so
        # anything the batch cannot prove safe (a start reaching the
        # next transition, a finish crossing a down onset, a row no
        # accelerator can serve) is simply handed back to it
        use_batch = dispatch == "auto"
        if use_batch:
            healthy = self._service_matrix(names, specs)
            self._require_finite_services(names, healthy, classes)
            cid_col = np.asarray(class_ids, dtype=np.int64)
            # active-window signature -> that segment's service matrix
            matrices: dict[tuple[int | None, ...], np.ndarray] = {}
        min_batch = 64
        batch_paused = False
        no_batch_before = -math.inf
        batched = scalar = segments = 0
        loop_span = span("serve.fault_loop", track="serving", requests=n)
        with loop_span:
            while cursor < n or retry_heap:
                if (
                    use_batch
                    and not batch_paused
                    and n - cursor + len(retry_heap) >= min_batch
                ):
                    t0 = arrival_list[cursor] if cursor < n else math.inf
                    if retry_heap and retry_heap[0][0] <= t0:
                        t0 = retry_heap[0][0]
                    if t0 >= no_batch_before:
                        nxt = view.next_transition_after(t0)
                        limit = math.inf if nxt is None else nxt
                        hi = bisect.bisect_left(arrival_list, limit, cursor)
                        due: list[tuple[float, int, int]] = []
                        while retry_heap and retry_heap[0][0] < limit:
                            due.append(heapq.heappop(retry_heap))
                        if hi - cursor + len(due) < min_batch:
                            for item in due:
                                heapq.heappush(retry_heap, item)
                            no_batch_before = limit
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
                            times = arrivals[cursor:hi]
                            positions = np.arange(cursor, hi)
                            tries = np.zeros(hi - cursor, dtype=_RETRY_DTYPE)
                            if due:
                                # re-attempts first, so the stable sort
                                # breaks equal times toward their smaller
                                # positions
                                due_times, due_positions, due_tries = zip(*due)
                                times = np.concatenate((due_times, times))
                                positions = np.concatenate((due_positions, positions))
                                tries = np.concatenate((due_tries, tries))
                                ordered = np.argsort(times, kind="stable")
                                times = times[ordered]
                                positions = positions[ordered]
                                tries = tries[ordered]
                            next_downs = tuple(
                                nd if (nd := view.next_down_after(order, t0))
                                is not None
                                else math.inf
                                for order in range(width)
                            )
                            accepted, runs = dispatch_segment(
                                times,
                                cid_col[positions],
                                services,
                                free,
                                limit,
                                next_downs,
                            )
                            segments += 1
                            batched += accepted
                            for base, accs, starts, fins in runs:
                                rows = positions[base : base + len(accs)]
                                acc_col[rows] = accs
                                start_col[rows] = starts
                                finish_col[rows] = fins
                                retry_col[rows] = tries[base : base + len(accs)]
                                done[rows] = True
                            # re-attempts sit below the cursor; what is
                            # left of both sources goes back to them
                            fresh = int(
                                np.count_nonzero(positions[:accepted] >= cursor)
                            )
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
                if retry_heap and (
                    cursor == n or retry_heap[0][0] <= arrival_list[cursor]
                ):
                    t, pos, retries = heapq.heappop(retry_heap)
                else:
                    t, pos, retries = arrival_list[cursor], cursor, 0
                    cursor += 1
                scalar += 1
                batch_paused = False
                best = select(t, class_ids[pos])
                if best is None:
                    nxt = view.next_transition_after(t)
                    if nxt is None:
                        shed_records.append(
                            (pos, retries, "no_feasible_accelerator", t)
                        )
                        continue
                    requeues += 1
                    if timeline is not None:
                        timeline.append((nxt, "requeue", pos, retries))
                    heapq.heappush(retry_heap, (nxt, pos, retries))
                    continue
                order, start, finish = best
                next_down = view.next_down_after(order, start)
                if next_down is not None and next_down < finish:
                    # killed: the down window opened mid-execution
                    kills += 1
                    if kill_times is not None:
                        kill_times.append(next_down)
                    if timeline is not None:
                        timeline.append((next_down, "kill", pos, retries + 1))
                    free[order] = next_down
                    if retries + 1 > max_retries:
                        shed_records.append(
                            (pos, retries + 1, "retry_budget_exhausted", next_down)
                        )
                        continue
                    heapq.heappush(
                        retry_heap,
                        (next_down + backoff(retries + 1), pos, retries + 1),
                    )
                    continue
                free[order] = finish
                acc_col[pos] = order
                start_col[pos] = start
                finish_col[pos] = finish
                retry_col[pos] = retries
                done[pos] = True
            loop_span.set(
                kills=kills,
                requeues=requeues,
                shed=len(shed_records),
                batched=batched,
                scalar=scalar,
                segments=segments,
            )

        shed_records.sort()
        completed = int(np.count_nonzero(done))
        # keep every column whole (a view, no copy) when nothing was shed
        keep = slice(None) if completed == n else done
        acc_col = acc_col[keep]
        start_col = start_col[keep]
        finish_col = finish_col[keep]
        retry_col = retry_col[keep]
        done_arrivals = arrivals[keep]
        makespan = float(finish_col.max()) if completed else 0.0
        downtime = {name: 0.0 for name in names}
        downtime.update(faults.downtime(makespan))
        total_retries = int(retry_col.sum()) + sum(
            record[1] for record in shed_records
        )
        record_faults(
            FaultStats(
                windows=len(faults),
                kills=kills,
                retries=total_retries,
                requeues=requeues,
                shed=len(shed_records),
                completed=completed,
            ),
            self.metrics,
        )

        if monitor is not None:
            # the fault loop has no flush hook; feed the monitor the
            # final outcomes in the same arrival-ordered chunk_size
            # blocks the streaming report consumes below
            _feed_monitor(monitor, done_arrivals, start_col, finish_col, chunk_size)
            if shed_records:
                monitor.observe_sheds(
                    np.asarray([record[3] for record in shed_records])
                )
            if kill_times:
                monitor.observe_kills(np.asarray(kill_times))
        if streaming:
            for lo in range(0, completed, chunk_size):
                hi = lo + chunk_size
                report.observe_batch(
                    acc_col[lo:hi],
                    done_arrivals[lo:hi],
                    start_col[lo:hi],
                    finish_col[lo:hi],
                )
            report.record_fault_metadata(
                shed_count=len(shed_records),
                total_retries=total_retries,
                kills=kills,
                requeues=requeues,
                fault_events=faults.events(),
                downtime=downtime,
            )
            return report

        request_ids = _request_ids(request_ids, n)
        shed = [
            ShedRequest(
                request=Request(
                    request_id=int(request_ids[pos]),
                    shape=classes[class_ids[pos]],
                    arrival=float(arrivals[pos]),
                ),
                retries=r,
                reason=reason,
                time=when,
            )
            for pos, r, reason, when in shed_records
        ]
        fault_timeline = sorted(
            (when, kind, int(request_ids[pos]), retries)
            for when, kind, pos, retries in (timeline or [])
        )
        return ServingReport(
            arrivals=done_arrivals,
            starts=start_col,
            finishes=finish_col,
            accelerator_ids=acc_col,
            accelerator_names=tuple(names),
            class_ids=np.asarray(class_ids, dtype=np.int64)[keep],
            shapes=tuple(classes),
            request_ids=request_ids[keep],
            retries=retry_col,
            shed=shed,
            fault_events=faults.events(),
            downtime=downtime,
            kills=kills,
            requeues=requeues,
            fault_timeline=fault_timeline,
        )

    def _run_scan(self, trace: Union[Sequence[Request], SoATrace]) -> ServingReport:
        """The seed dispatch loop: linear scan over every accelerator."""
        arrivals, class_ids, classes, request_ids = self._normalize(trace)
        free_at = {name: 0.0 for name in self.partition.designs}
        order_of = {name: order for order, name in enumerate(free_at)}
        accs, starts, finishes = [], [], []
        for arrival, cid in zip(arrivals.tolist(), class_ids):
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
        return ServingReport(
            arrivals=arrivals,
            starts=np.asarray(starts, dtype=np.float64),
            finishes=np.asarray(finishes, dtype=np.float64),
            accelerator_ids=np.asarray(accs, dtype=_ACC_DTYPE),
            accelerator_names=tuple(free_at),
            class_ids=np.asarray(class_ids, dtype=np.int64),
            shapes=tuple(classes),
            request_ids=_request_ids(request_ids, len(accs)),
            retries=np.zeros(len(accs), dtype=_RETRY_DTYPE),
        )

    def _normalize(
        self,
        trace: Union[Sequence[Request], SoATrace],
        as_arrays: bool = False,
    ) -> tuple[np.ndarray, Sequence[int], list[GemmShape], np.ndarray | None]:
        """Arrival-sorted SoA view of ``trace``: ``(arrivals, class_ids,
        classes, request_ids)``.

        ``request_ids`` is None for an ``SoATrace``, whose request ids
        are the arrival positions (:func:`_request_ids` expands them
        when a report needs the column).

        ``as_arrays=True`` keeps the class ids as an int64 array (the
        vectorized engine's native form — an ``SoATrace`` passes through
        without a single element being boxed); the default returns the
        list the scalar loops index fastest.
        """
        if isinstance(trace, SoATrace):
            class_ids = trace.shape_ids if as_arrays else trace.shape_ids.tolist()
            return trace.arrivals, class_ids, list(trace.shapes), None
        ordered = sorted(trace, key=lambda r: r.arrival)
        class_index: dict[GemmShape, int] = {}
        class_ids = [
            class_index.setdefault(request.shape, len(class_index))
            for request in ordered
        ]
        arrivals = np.asarray([request.arrival for request in ordered])
        request_ids = np.asarray(
            [request.request_id for request in ordered], dtype=np.int64
        )
        if as_arrays:
            class_ids = np.asarray(class_ids, dtype=np.int64)
        return arrivals, class_ids, list(class_index), request_ids

    def _class_specs(
        self, classes: Sequence[GemmShape], used: set[int]
    ) -> list[tuple]:
        """Flat ``(acc, service, ...)`` dispatch spec per shape class."""
        names = list(self.partition.designs)
        specs: list[tuple] = []
        for class_id, shape in enumerate(classes):
            if class_id not in used:
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
        """Reject NaN service entries on every fast-path run.

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
        self,
        trace: Union[Sequence[Request], SoATrace],
        *,
        streaming: bool,
        quantile_error: float,
        chunk_size: int,
        monitor: "ServingMonitor | None" = None,
    ) -> ServingReport | StreamingServingReport:
        names = list(self.partition.designs)
        arrivals, class_ids, classes, request_ids = self._normalize(
            trace, as_arrays=True
        )
        if streaming:
            report = StreamingServingReport(names, quantile_error=quantile_error)
        # bincount instead of np.unique: no million-element sort
        used = set(
            np.flatnonzero(np.bincount(class_ids, minlength=len(classes))).tolist()
        )
        specs = self._class_specs(classes, used)
        services = self._service_matrix(names, specs)
        self._require_finite_services(names, services, classes)
        # dispatched service lookups are cache hits by construction
        self.stats.cache_hits += len(class_ids)
        free = [0.0] * len(names)

        if streaming:
            def flush(base, accs, starts, finishes) -> None:
                report.observe_batch(
                    accs, arrivals[base : base + len(accs)], starts, finishes
                )
        else:
            # the chunks' columns, concatenated once after dispatch
            chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

            def flush(base, accs, starts, finishes) -> None:
                chunks.append((accs.astype(_ACC_DTYPE), starts, finishes))

        if GLOBAL_TRACER.enabled:
            # wrap only when tracing: the disabled path keeps the raw
            # flush callback with zero indirection
            inner_flush = flush

            def flush(base, accs, starts, finishes) -> None:
                with span(
                    "serve.dispatch_chunk",
                    track="serving",
                    base=base,
                    size=len(accs),
                ):
                    inner_flush(base, accs, starts, finishes)

        if monitor is not None:
            # outermost wrap: the monitor reads the chunk's final
            # decisions after the report consumed them — it can observe,
            # never influence (byte-identity is conformance-gated)
            pre_monitor_flush = flush

            def flush(base, accs, starts, finishes) -> None:
                pre_monitor_flush(base, accs, starts, finishes)
                monitor.observe_chunk(
                    arrivals[base : base + len(accs)], starts, finishes
                )

        # The streaming report's running float sums and the monitor's
        # chunk series depend on flush boundaries, so the variable-length
        # stretches the engine dispatches are buffered and re-emitted as
        # exact ``chunk_size`` blocks — the boundaries the scan oracle
        # and the fault loop use — keeping every report bit-identical
        # whether the native loop or the NumPy rounds dispatched.
        pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        pending_base = pending_count = 0

        def collect(base, accs, starts, finishes) -> None:
            nonlocal pending_base, pending_count
            if not pending:
                pending_base = base
            pending.append((accs, starts, finishes))
            pending_count += len(accs)
            if pending_count < chunk_size:
                return
            columns = [
                np.concatenate(column) if len(column) > 1 else column[0]
                for column in zip(*pending)
            ]
            pending.clear()
            lo = 0
            while pending_count - lo >= chunk_size:
                flush(pending_base + lo, *(c[lo : lo + chunk_size] for c in columns))
                lo += chunk_size
            if lo < pending_count:
                pending.append(tuple(c[lo:] for c in columns))
            pending_base += lo
            pending_count -= lo

        dispatch_vectorized(arrivals, class_ids, services, free, collect, chunk_size)
        if pending:
            flush(pending_base, *(np.concatenate(c) for c in zip(*pending)))
        if streaming:
            return report
        accs, starts, finishes = (
            np.concatenate(column) if len(column) > 1 else column[0]
            for column in zip(*chunks)
        )
        return ServingReport(
            arrivals=arrivals,
            starts=starts,
            finishes=finishes,
            accelerator_ids=accs,
            accelerator_names=tuple(names),
            class_ids=class_ids,
            shapes=tuple(classes),
            request_ids=_request_ids(request_ids, len(arrivals)),
            retries=np.zeros(len(arrivals), dtype=_RETRY_DTYPE),
        )


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
            for point in parallel_map(evaluate, tasks, jobs=wave, chunksize=1):
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
