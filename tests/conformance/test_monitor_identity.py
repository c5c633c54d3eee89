"""Monitor-attachment identity: telemetry must never steer dispatch.

Two contracts from the windowed-telemetry layer:

* attaching a :class:`~repro.obs.windows.ServingMonitor` to either
  dispatch path (the scan oracle or the ``auto`` fast path), with or
  without a fault schedule, leaves the dispatch decisions byte-identical
  to the monitor-off run — the monitor only reads chunks after every
  decision in them is final — and so does enabling the tracer;
* a sharded fleet's merged window series (per-shard monitors folded in
  shard order) equals the inline single-process reference, across pool
  start methods and shard counts, and equals a hand-merged fold of
  unsharded per-shard runs.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.spans import GLOBAL_TRACER
from repro.obs.windows import ServingMonitor
from repro.sim.chaos import FaultPolicy, FaultSchedule
from repro.sim.cluster_serving import serve_sharded
from repro.sim.serving import ServingSimulator
from repro.sim.streaming import (
    generate_trace_shard,
    generate_trace_soa,
    shard_arrival_offsets,
)
from repro.workloads.gemm import GemmShape

from .harness import (
    SHAPES,
    dispatch_rows,
    fast_variants,
    make_partition,
    shed_rows,
)

WIDTHS = [1, 2, 3, 7]
ENGINES = ("scan", "auto")

REAL_SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
)
MEAN_INTERARRIVAL = 5e-4

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def _trace(num_requests=160, mean_interarrival=2e-3, seed=17):
    return generate_trace_soa(SHAPES, num_requests, mean_interarrival, seed=seed)


def _schedule_for(width):
    windows = FaultSchedule.down("acc0", 0.02, 0.08)
    if width >= 2:
        windows = windows + FaultSchedule.degraded(
            "acc1", 0.01, 0.12, factor=2.5
        )
    return windows


def _window_width(trace):
    horizon = float(trace.arrivals[-1]) or 1.0
    return horizon / 20


@pytest.fixture(scope="module")
def simulator():
    partition = AcceleratorPartition(
        [config_by_name("C5"), config_by_name("C3")]
    )
    sim = ServingSimulator(partition)
    sim.prewarm(REAL_SHAPES)
    return sim


class TestMonitorDispatchIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_fault_free(self, engine, width):
        partition = make_partition(width)
        trace = _trace()
        baseline = ServingSimulator(partition).run(trace, dispatch=engine)
        monitor = ServingMonitor(_window_width(trace))
        monitored = ServingSimulator(partition).run(
            trace, dispatch=engine, monitor=monitor
        )
        assert dispatch_rows(monitored) == dispatch_rows(baseline), (
            f"{engine} dispatch changed when a monitor was attached"
        )
        # the monitor really watched the run, it just didn't steer it
        assert sum(s.completed for s in monitor.timeline()) == baseline.count

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_under_faults(self, engine, width):
        partition = make_partition(width)
        trace = _trace()
        faults = _schedule_for(width)
        policy = FaultPolicy(max_retries=2)
        baseline = ServingSimulator(partition).run(
            trace, dispatch=engine, faults=faults, fault_policy=policy
        )
        monitor = ServingMonitor(_window_width(trace))
        monitored = ServingSimulator(partition).run(
            trace, dispatch=engine, faults=faults, fault_policy=policy,
            monitor=monitor,
        )
        assert dispatch_rows(monitored) == dispatch_rows(baseline)
        assert shed_rows(monitored) == shed_rows(baseline)
        assert monitored.fault_summary() == baseline.fault_summary()
        assert sum(s.completed for s in monitor.timeline()) == baseline.count
        assert sum(s.shed for s in monitor.timeline()) == len(baseline.shed)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_tracer_enabled(self, engine, width):
        """An enabled tracer records spans and steers nothing either."""
        partition = make_partition(width)
        trace = _trace()
        baseline = ServingSimulator(partition).run(trace, dispatch=engine)
        was_enabled = GLOBAL_TRACER.enabled
        GLOBAL_TRACER.enable(clear=True)
        try:
            traced = ServingSimulator(partition).run(trace, dispatch=engine)
            spans = GLOBAL_TRACER.drain()
        finally:
            if not was_enabled:
                GLOBAL_TRACER.disable()
        assert dispatch_rows(traced) == dispatch_rows(baseline), (
            f"{engine} dispatch changed with the tracer enabled"
        )
        assert any(recorded.name == "serve.run" for recorded in spans)

    @pytest.mark.parametrize(
        "context", [pytest.param(c, id=label) for label, c in fast_variants()]
    )
    def test_streaming_summary_unchanged(self, context):
        partition = make_partition(3)
        trace = _trace()
        with context():
            baseline = ServingSimulator(partition).run(trace, streaming=True)
            monitored = ServingSimulator(partition).run(
                trace, streaming=True,
                monitor=ServingMonitor(_window_width(trace)),
            )
        assert monitored.as_dict() == baseline.as_dict()

    def test_monitor_series_identical_across_engines(self):
        """Same decisions + same chunking => same telemetry, bit for bit."""
        partition = make_partition(3)
        trace = _trace()

        def series(dispatch):
            monitor = ServingMonitor(_window_width(trace))
            ServingSimulator(partition).run(
                trace, dispatch=dispatch, monitor=monitor
            )
            return monitor.as_dict()

        reference = series("scan")
        for label, context in fast_variants():
            with context():
                assert series("auto") == reference, f"{label} telemetry diverged"


class TestShardedMonitorMerge:
    NUM_REQUESTS = 6000
    WINDOW = NUM_REQUESTS * MEAN_INTERARRIVAL / 25

    def _serve(self, simulator, shards, start_method, **kwargs):
        return serve_sharded(
            simulator, REAL_SHAPES, self.NUM_REQUESTS, MEAN_INTERARRIVAL,
            shards=shards, seed=7, start_method=start_method,
            monitor_window=self.WINDOW, **kwargs,
        )

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_inline_merge_equals_hand_merged_shard_runs(
        self, simulator, shards
    ):
        fleet = self._serve(simulator, shards, "inline")
        assert fleet.monitor is not None
        offsets = shard_arrival_offsets(
            self.NUM_REQUESTS, MEAN_INTERARRIVAL, 7, fleet.bounds
        )
        merged = None
        for index, (lo, hi) in enumerate(fleet.bounds):
            sub = generate_trace_shard(
                REAL_SHAPES, self.NUM_REQUESTS, MEAN_INTERARRIVAL, 7,
                lo=lo, hi=hi, arrival_offset=offsets[index],
            )
            monitor = ServingMonitor(self.WINDOW)
            simulator.run(sub, streaming=True, monitor=monitor)
            merged = monitor if merged is None else merged.merge(monitor)
        assert fleet.monitor.as_dict() == merged.as_dict()

    @pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_fork_pool_merge_equals_inline(self, simulator, shards):
        fork = self._serve(simulator, shards, "fork", max_workers=2)
        inline = self._serve(simulator, shards, "inline")
        assert fork.monitor.as_dict() == inline.monitor.as_dict()

    def test_spawn_pool_merge_equals_inline(self, simulator):
        spawn = self._serve(simulator, 2, "spawn", max_workers=2)
        inline = self._serve(simulator, 2, "inline")
        assert spawn.monitor.as_dict() == inline.monitor.as_dict()

    def test_faulted_fleet_merge_equals_inline(self, simulator):
        if not FORK_AVAILABLE:
            pytest.skip("fork unavailable")
        kwargs = dict(
            faults=FaultSchedule.down("C5", 0.3, 0.9),
            fault_policy=FaultPolicy(max_retries=1),
        )
        fork = self._serve(simulator, 3, "fork", max_workers=2, **kwargs)
        inline = self._serve(simulator, 3, "inline", **kwargs)
        assert fork.monitor.as_dict() == inline.monitor.as_dict()
        # the merged series saw every outcome the fleet report counted
        assert sum(s.completed for s in fork.monitor.timeline()) == fork.report.count
        assert sum(s.shed for s in fork.monitor.timeline()) == fork.report.shed_count

    def test_single_shard_monitor_matches_unsharded_run(self, simulator):
        fleet = self._serve(simulator, 1, "inline")
        monitor = ServingMonitor(self.WINDOW)
        simulator.run(
            generate_trace_soa(
                REAL_SHAPES, self.NUM_REQUESTS, MEAN_INTERARRIVAL, seed=7
            ),
            streaming=True,
            monitor=monitor,
        )
        assert fleet.monitor.as_dict() == monitor.as_dict()

    def test_monitor_absent_unless_requested(self, simulator):
        fleet = serve_sharded(
            simulator, REAL_SHAPES, 200, MEAN_INTERARRIVAL,
            shards=2, seed=7, start_method="inline",
        )
        assert fleet.monitor is None
        assert "monitor" not in fleet.as_dict()
