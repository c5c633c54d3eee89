"""Cluster-scale sharded serving: process-parallel shard simulators.

A single :class:`~repro.sim.serving.ServingSimulator` tops out at one
core; the vectorized engine moves ~8.6M requests/sec through it, so a
100M-request fleet experiment is still double-digit seconds of wall
clock.  This module shards the *trace* instead of the engine: the
request stream is cut into contiguous slices, each slice is served by an
independent replica of the partition in its own worker process, and the
per-shard streaming reports merge into one fleet report.

The determinism story is exact, not approximate:

* **Sub-trace generation is byte-identical.**  Request ``i`` draws its
  randomness from index-addressable :func:`~repro.sim.streaming.splitmix_uniforms`
  streams, so a worker regenerates its slice ``[lo, hi)`` locally —
  O(shard) memory, nothing pickled — and
  :func:`~repro.sim.streaming.generate_trace_shard` guarantees the
  arrays equal ``generate_trace_soa(...)``'s slice bitwise, including
  the arrival clock (the sequential cumsum carry crosses shard
  boundaries through :func:`~repro.sim.streaming.shard_arrival_offsets`).
* **Per-shard dispatch is byte-identical to an unsharded run over the
  same sub-trace.**  Each worker runs the configured dispatch path
  (``auto`` or the ``scan`` oracle, which stream byte-identical
  reports) on a stock simulator whose service-time cache is a copy of
  the parent's, so its ``StreamingServingReport.as_dict()`` equals an
  in-process ``simulator.run(sub_trace, streaming=True)`` exactly.
* **Merged percentiles keep the sketch bound.**  Sketch merges add
  bucket counts exactly, so a merged quantile is within the documented
  relative error of the exact ranked value of the *union* of the
  per-shard latency streams — independent of shard count or merge
  order (shards always merge in shard order anyway).

Semantically a ``shards=k`` run models *k replicas of the partition*,
each serving its slice of the arrival window with fresh queues: queue
state does not carry across shard boundaries, which is exactly what a
load balancer spraying an arrival-time-partitioned stream over k
identical serving cells would do.  It is **not** bit-equal to one
partition serving the whole trace — that contract belongs to the
engines, not the fleet.

A pool starts ``min(shards, max_workers or usable CPUs)`` workers,
where usable CPUs follows the process's affinity mask
(:func:`~repro.perf.parallel.usable_cpus`): under a one-CPU pin a
single worker drains every shard task in order, instead of several
interpreters taking turns on one core.  A worker imports only the
dispatch layer: its partition builds the analytical model, the CHARM
designs and their placement on first need (a service-table miss),
and :mod:`repro.obs.windows` loads only for a monitor.  Under
``spawn`` each worker is a fresh interpreter, so both rules are
start-up time saved.

A worker's ``GLOBAL_METRICS`` registry is invisible to the parent, so
each task resets it, runs, and ships one ``dump()`` home (the inline
path serves on a replica whose private registry plays that part).  The
parent folds the shard dumps into one fleet registry, reads
``FleetReport.stats`` / ``fault_stats`` from its ``repro_eval_*`` /
``repro_fault_*`` counters, and merges it into its own registry once,
so ``--stats`` / ``--metrics-out`` reflect the whole fleet.
"""

from __future__ import annotations

import atexit
import copy
import gc
import io
import multiprocessing
import pickle
import types
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.metrics import GLOBAL_METRICS, MetricsRegistry
from repro.perf.metrics import EvalStats, FaultStats, read_totals
from repro.perf.parallel import usable_cpus
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import (
    BLOCK_ROWS,
    StreamingServingReport,
    generate_trace_shard,
    shard_arrival_offsets,
    shard_bounds,
)
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.windows import ServingMonitor

__all__ = [
    "FleetReport",
    "ShardedServingCluster",
    "serve_sharded",
    "resolve_start_method",
]

#: start methods accepted by :class:`ShardedServingCluster`; ``inline``
#: runs every shard in-process (no pool) — the degenerate but fully
#: deterministic reference mode tests compare the pools against
START_METHODS = ("fork", "spawn", "forkserver", "inline")

#: plans (arrival-offset lists) memoized per cluster; serving the same
#: trace repeatedly (benchmark rounds, sweep retries) pays the serial
#: boundary pass once
_PLAN_CACHE_MAX = 16


def resolve_start_method(start_method: str | None) -> str:
    """``None`` picks ``fork`` where available (Linux), else ``spawn``."""
    if start_method is None:
        available = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in available else "spawn"
    if start_method not in START_METHODS:
        raise ValueError(f"start_method must be one of {START_METHODS}")
    return start_method


def _restore_mapping_proxy(data: dict) -> types.MappingProxyType:
    """Unpickle target for proxies (the type itself has no pickle name)."""
    return types.MappingProxyType(data)


class _CachePickler(pickle.Pickler):
    """Pickler that round-trips ``MappingProxyType`` faithfully.

    Cached estimates reference their design, and designs carry the
    device's read-only MACs/cycle table as a mapping proxy — which the
    stock pickler rejects.  Reducing it through
    :func:`_restore_mapping_proxy` reconstructs an equal proxy on load.
    """

    def reducer_override(self, obj):
        if isinstance(obj, types.MappingProxyType):
            return _restore_mapping_proxy, (dict(obj),)
        return NotImplemented


def _dumps(payload: Any) -> bytes:
    """Pickle through the MappingProxyType-aware cache pickler.

    Device-degraded fault windows and fleet payloads reference
    ``DeviceSpec``'s read-only tables (mapping proxies the stock pickler
    rejects); the cache pickler reduces them faithfully.
    """
    buffer = io.BytesIO()
    _CachePickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(payload)
    return buffer.getvalue()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
# One simulator per worker process, built once by the pool initializer
# and reused across every task the worker drains.  Module-level so both
# fork and spawn pools can reference the functions by qualified name
# (spawn re-imports this module in the child).

_WORKER_STATE: dict[str, Any] | None = None


def _build_worker_simulator(payload: dict[str, Any]) -> ServingSimulator:
    """A stock simulator seeded with the parent's service table.

    Its :class:`~repro.sim.serving.LazyPartition` is reconstructed from
    config *names* (configs carry no state beyond their registry entry)
    on the payload's device, on first need only; the parent's
    service-time table, infeasibility set and degraded services (every
    one the payload's fault schedule can ask for) are copied in, so the
    worker never pays a cold model evaluation and dispatches exactly
    like the parent would.
    """
    return ServingSimulator.seeded(
        payload["config_names"],
        payload["device"],
        payload["service_table"],
        payload["infeasible"],
        payload["degraded"],
    )


def _worker_init(payload_bytes: bytes) -> None:
    """Pool initializer: build this worker's simulator once.

    A spawn worker exits through interpreter shutdown, so it freezes its
    heap at exit as the CLI does (``repro.cli``) and skips the final
    collection; fork and forkserver workers leave through ``os._exit``.
    """
    global _WORKER_STATE
    atexit.register(gc.freeze)
    payload = pickle.loads(payload_bytes)
    _WORKER_STATE = {
        "payload": payload,
        "simulator": _build_worker_simulator(payload),
    }


def _serve_shard(
    simulator: ServingSimulator, payload: dict[str, Any], task: tuple
) -> tuple[StreamingServingReport, ServingMonitor | None]:
    """Regenerate one shard's sub-trace and serve it on ``simulator``."""
    num_requests, mean_interarrival, seed, lo, hi, offset, monitor_window = task
    trace = generate_trace_shard(
        payload["shapes"],
        num_requests,
        mean_interarrival,
        seed,
        lo=lo,
        hi=hi,
        arrival_offset=offset,
    )
    monitor = None
    if monitor_window is not None:
        from repro.obs.windows import ServingMonitor

        monitor = ServingMonitor(
            monitor_window, quantile_error=payload["quantile_error"]
        )
    report = simulator.run(
        trace,
        streaming=True,
        dispatch=payload["dispatch"],
        quantile_error=payload["quantile_error"],
        chunk_size=payload["chunk_size"],
        faults=payload["faults"],
        fault_policy=payload["fault_policy"],
        monitor=monitor,
    )
    return report, monitor


def _run_shard_task(task: tuple) -> bytes:
    """Serve one shard in a pool worker; return the pickled result.

    The process-local metrics registry is reset at task start so the
    shipped dump is exactly this shard's contribution — under ``fork``
    the child inherits whatever the parent had accumulated, and without
    the reset those counters would be re-merged (double-counted) at home.
    """
    state = _WORKER_STATE
    GLOBAL_METRICS.reset()
    report, monitor = _serve_shard(state["simulator"], state["payload"], task)
    return _dumps(
        {"report": report, "metrics": GLOBAL_METRICS.dump(), "monitor": monitor}
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class FleetReport:
    """The merged outcome of one sharded serve.

    ``report`` is the fleet-wide :class:`StreamingServingReport` (counts,
    loads and sums exact; percentiles within the sketch bound of the
    union of the shard streams; ``replicas`` set to the shard count).
    ``stats`` / ``fault_stats`` total the shards' evaluation and fault
    counters — the same numbers the parent registry received.
    ``shard_reports`` is populated only when the serve kept them.
    ``monitor`` is the fleet-wide windowed-telemetry series (per-shard
    monitors merged in shard order), present only when the serve
    attached one via ``monitor_window``.
    """

    report: StreamingServingReport
    shards: int
    start_method: str
    bounds: list[tuple[int, int]]
    stats: EvalStats
    fault_stats: FaultStats
    shard_reports: list[StreamingServingReport] | None = None
    monitor: ServingMonitor | None = None

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "shards": self.shards,
            "start_method": self.start_method,
            "bounds": [list(pair) for pair in self.bounds],
            "fleet": self.report.as_dict(),
            "stats": self.stats.as_dict(),
            "fault_stats": self.fault_stats.as_dict(),
        }
        if self.shard_reports is not None:
            out["per_shard"] = [shard.as_dict() for shard in self.shard_reports]
        if self.monitor is not None:
            out["monitor"] = self.monitor.as_dict()
        return out


class ShardedServingCluster:
    """A reusable fleet of shard workers bound to one partition + mix.

    Construction captures everything static — config names, device,
    shape mix, dispatch settings, fault schedule, and the (prewarmed)
    service-time table — into one payload; worker processes build their
    simulator from it once, in the pool initializer, and then drain
    shard tasks with nothing but seven scalars crossing the pipe per
    task.
    :meth:`serve` can therefore be called repeatedly (benchmark rounds,
    sweep points) against a warm pool.

    ``start_method='inline'`` serves every shard in-process on a
    dedicated replica simulator — same code path minus the pool — which
    is what the pooled modes are tested byte-identical against.
    """

    def __init__(
        self,
        simulator: ServingSimulator,
        shapes: Sequence[GemmShape],
        *,
        shards: int,
        dispatch: str = "auto",
        quantile_error: float = 0.01,
        chunk_size: int = BLOCK_ROWS,
        start_method: str | None = None,
        max_workers: int | None = None,
        faults=None,
        fault_policy=None,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        if not shapes:
            raise ValueError("need at least one shape")
        self.shards = shards
        self.start_method = resolve_start_method(start_method)
        self.max_workers = max_workers
        self._simulator = simulator
        # the table must be complete before it is frozen into the
        # payload; prewarm is idempotent and skips cached pairs, and so
        # is resolving the fault schedule's degraded services
        simulator.prewarm(shapes)
        if faults is not None:
            simulator.resolve_degraded(faults, shapes)
        self._payload: dict[str, Any] = {
            "config_names": list(simulator.partition.designs),
            "device": simulator.partition.device,
            "shapes": tuple(shapes),
            "dispatch": dispatch,
            "quantile_error": quantile_error,
            "chunk_size": chunk_size,
            "faults": faults,
            "fault_policy": fault_policy,
            "service_table": dict(simulator._service_cache),
            "infeasible": set(simulator._infeasible),
            "degraded": dict(simulator._degraded),
        }
        self._payload_bytes = _dumps(self._payload)
        self._pool: ProcessPoolExecutor | None = None
        self._plan_cache: dict[tuple, list[float]] = {}

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "ShardedServingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    @property
    def pool_size(self) -> int:
        """Worker processes a pooled serve starts: one per shard, capped
        by ``max_workers`` or else by the CPUs this process may run on.
        Merging is by shard, so the fleet report does not depend on it."""
        return max(1, min(self.shards, self.max_workers or usable_cpus()))

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.pool_size,
                mp_context=context,
                initializer=_worker_init,
                initargs=(self._payload_bytes,),
            )
        return self._pool

    # -- planning -------------------------------------------------------
    def plan(
        self, num_requests: int, mean_interarrival: float, seed: int
    ) -> tuple[list[tuple[int, int]], list[float]]:
        """Shard bounds + arrival carries for one trace (memoized).

        The offsets pass is the only serial work in a sharded serve;
        memoizing it per ``(num_requests, mean_interarrival, seed)``
        makes repeat serves of the same trace embarrassingly parallel.
        """
        bounds = shard_bounds(num_requests, self.shards)
        key = (num_requests, mean_interarrival, seed, len(bounds))
        offsets = self._plan_cache.get(key)
        if offsets is None:
            offsets = shard_arrival_offsets(
                num_requests, mean_interarrival, seed, bounds
            )
            if len(self._plan_cache) >= _PLAN_CACHE_MAX:
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[key] = offsets
        return bounds, offsets

    def warm(self, num_requests: int, mean_interarrival: float, seed: int = 0) -> None:
        """Precompute the plan and spin the pool up outside a timed region."""
        self.plan(num_requests, mean_interarrival, seed)
        if self.start_method != "inline":
            self._ensure_pool()

    # -- serving --------------------------------------------------------
    def serve(
        self,
        num_requests: int,
        mean_interarrival: float,
        seed: int = 0,
        *,
        keep_shard_reports: bool = False,
        monitor_window: float | None = None,
    ) -> FleetReport:
        """Partition, serve every shard, and merge one fleet report.

        Results always merge in shard order, so the merged report is a
        deterministic function of ``(num_requests, mean_interarrival,
        seed, shards)`` regardless of worker scheduling.

        ``monitor_window`` attaches a fresh
        :class:`~repro.obs.windows.ServingMonitor` with that window
        width to every shard worker; the per-shard series merge in
        shard order into ``FleetReport.monitor``, equal to the series an
        inline single-process serve of the same tasks would produce.
        """
        bounds, offsets = self.plan(num_requests, mean_interarrival, seed)
        tasks = [
            (
                num_requests,
                mean_interarrival,
                seed,
                lo,
                hi,
                offsets[index],
                monitor_window,
            )
            for index, (lo, hi) in enumerate(bounds)
        ]
        # one accounting path for every start method: the shards'
        # counters arrive as registry dumps and fold into a fleet
        # registry, which the parent registry takes in one merge
        if self.start_method == "inline":
            reports, monitors, dumps = self._serve_inline(tasks)
        else:
            reports, monitors, dumps = self._serve_pool(tasks)
        fleet_metrics = MetricsRegistry()
        for dump in dumps:
            fleet_metrics.merge_dump(dump)
        GLOBAL_METRICS.merge_dump(fleet_metrics.dump())
        totals = read_totals(fleet_metrics)
        merged = copy.deepcopy(reports[0]) if keep_shard_reports else reports[0]
        for shard_report in reports[1:]:
            merged.merge(shard_report)
        fleet_monitor = None
        if monitor_window is not None:
            fleet_monitor = monitors[0]
            for shard_monitor in monitors[1:]:
                fleet_monitor.merge(shard_monitor)
        return FleetReport(
            report=merged,
            shards=len(bounds),
            start_method=self.start_method,
            bounds=bounds,
            stats=totals.evals,
            fault_stats=totals.faults,
            shard_reports=list(reports) if keep_shard_reports else None,
            monitor=fleet_monitor,
        )

    def _serve_pool(self, tasks: list[tuple]) -> tuple[list, list, list]:
        """Reports, monitors and metrics dumps from the worker pool."""
        pool = self._ensure_pool()
        # Executor.map preserves task order regardless of completion order
        results = [pickle.loads(blob) for blob in pool.map(_run_shard_task, tasks)]
        return (
            [result["report"] for result in results],
            [result["monitor"] for result in results],
            [result["metrics"] for result in results],
        )

    def _serve_inline(self, tasks: list[tuple]) -> tuple[list, list, list]:
        """The no-pool reference path: every shard served in-process.

        Runs on a dedicated replica simulator built exactly like a
        worker's (same payload), so dispatch and cache behaviour match
        the pooled modes; its counters go to a private registry whose
        dump stands in for the workers'.
        """
        payload = self._payload
        simulator = _build_worker_simulator(payload)
        simulator.metrics = MetricsRegistry()
        served = [_serve_shard(simulator, payload, task) for task in tasks]
        return (
            [report for report, _ in served],
            [monitor for _, monitor in served],
            [simulator.metrics.dump()],
        )


def serve_sharded(
    simulator: ServingSimulator,
    shapes: Sequence[GemmShape],
    num_requests: int,
    mean_interarrival: float,
    *,
    shards: int,
    seed: int = 0,
    dispatch: str = "auto",
    quantile_error: float = 0.01,
    chunk_size: int = BLOCK_ROWS,
    start_method: str | None = None,
    max_workers: int | None = None,
    faults=None,
    fault_policy=None,
    keep_shard_reports: bool = False,
    monitor_window: float | None = None,
) -> FleetReport:
    """One-shot sharded serve: build a cluster, serve, tear it down."""
    with ShardedServingCluster(
        simulator,
        shapes,
        shards=shards,
        dispatch=dispatch,
        quantile_error=quantile_error,
        chunk_size=chunk_size,
        start_method=start_method,
        max_workers=max_workers,
        faults=faults,
        fault_policy=fault_policy,
    ) as cluster:
        return cluster.serve(
            num_requests,
            mean_interarrival,
            seed,
            keep_shard_reports=keep_shard_reports,
            monitor_window=monitor_window,
        )
