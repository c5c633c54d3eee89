"""Serving-simulation tests: request streams, queueing, tail latency."""

import numpy as np
import pytest

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.obs.metrics import GLOBAL_METRICS
from repro.perf.metrics import read_totals
from repro.sim.chaos import FaultError, FaultPolicy, FaultSchedule
from repro.sim.serving import (
    _SUM_CHUNK,
    ServingReport,
    ServingSimulator,
    load_sweep,
)
from repro.sim.streaming import SoATrace, generate_trace_soa
from repro.workloads.gemm import GemmShape

from ..conformance.harness import fast_variants

SHAPES = [GemmShape(1024, 1024, 1024), GemmShape(512, 2048, 512)]


class FakePartition:
    """A stub partition: hand-authored service times, ValueError = infeasible.

    Lets the dispatch tests cover wide partitions and infeasible
    (accelerator, shape) pairs, which the paper's real C5/C3
    partitions never produce for reasonable shapes.
    """

    def __init__(self, services):
        # services: {name: {shape: seconds | None}}
        self.designs = {name: None for name in services}
        self._services = services

    def estimate_on(self, accelerator, shape):
        service = self._services[accelerator].get(shape)
        if service is None:
            raise ValueError(f"{accelerator} cannot serve {shape}")
        return service


def _wide_fake_partition(num_accelerators=9):
    """A 9-wide partition with one shape infeasible on some
    accelerators and varied service times."""
    services = {}
    for index in range(num_accelerators):
        per_shape = {
            SHAPES[0]: 0.001 * (1 + (index * 7) % 5),
            SHAPES[1]: 0.002 * (1 + (index * 3) % 4),
        }
        if index % 3 == 0:
            per_shape[SHAPES[1]] = None  # infeasible on every third acc
        services[f"acc{index}"] = per_shape
    return FakePartition(services)


def _empty_trace():
    return SoATrace(SHAPES, np.empty(0, dtype=np.int64), np.empty(0))


def _decisions(report):
    return [(c.accelerator, c.start, c.finish) for c in report.completed]


def _assert_fast_path_matches_scan(simulator, trace):
    """``auto`` (native kernel and NumPy rounds alike) agrees with scan."""
    expected = _decisions(simulator.run(trace, dispatch="scan"))
    for label, context in fast_variants():
        with context():
            got = _decisions(simulator.run(trace, dispatch="auto"))
        assert got == expected, label


@pytest.fixture(scope="module")
def partition():
    return AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])


@pytest.fixture(scope="module")
def simulator(partition):
    return ServingSimulator(partition)


class TestTraceGeneration:
    def test_deterministic(self):
        a = generate_trace_soa(SHAPES, 20, 1e-3, seed=7)
        b = generate_trace_soa(SHAPES, 20, 1e-3, seed=7)
        assert a.arrivals.tobytes() == b.arrivals.tobytes()
        assert a.shape_ids.tolist() == b.shape_ids.tolist()

    def test_seed_changes_trace(self):
        a = generate_trace_soa(SHAPES, 20, 1e-3, seed=1)
        b = generate_trace_soa(SHAPES, 20, 1e-3, seed=2)
        assert a.arrivals.tolist() != b.arrivals.tolist()

    def test_arrivals_increase(self):
        trace = generate_trace_soa(SHAPES, 50, 1e-3, seed=0)
        assert (np.diff(trace.arrivals) > 0).all()

    def test_mean_interarrival_approximate(self):
        trace = generate_trace_soa(SHAPES, 2000, 1e-3, seed=3)
        mean = trace.arrivals[-1] / len(trace)
        assert mean == pytest.approx(1e-3, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace_soa(SHAPES, 0, 1e-3)
        with pytest.raises(ValueError):
            generate_trace_soa(SHAPES, 5, 0)
        with pytest.raises(ValueError):
            generate_trace_soa([], 5, 1e-3)


class TestServing:
    def test_all_requests_complete(self, simulator):
        trace = generate_trace_soa(SHAPES, 30, 5e-3, seed=0)
        report = simulator.run(trace)
        assert len(report.completed) == 30

    def test_latency_at_least_service_time(self, simulator, partition):
        trace = generate_trace_soa(SHAPES, 10, 1.0, seed=0)  # no queueing
        report = simulator.run(trace)
        for completed in report.completed:
            _, best = partition.best_accelerator(completed.request.shape)
            assert completed.latency >= best * 0.99
            assert completed.queueing_delay == pytest.approx(0.0, abs=1e-9)

    def test_overload_builds_queueing_delay(self, simulator):
        light = simulator.run(generate_trace_soa(SHAPES, 40, 1.0, seed=0))
        heavy = simulator.run(generate_trace_soa(SHAPES, 40, 1e-4, seed=0))
        assert heavy.latency_percentile(95) > 3 * light.latency_percentile(95)

    def test_percentiles_ordered(self, simulator):
        report = simulator.run(generate_trace_soa(SHAPES, 60, 1e-3, seed=1))
        p50 = report.latency_percentile(50)
        p95 = report.latency_percentile(95)
        p99 = report.latency_percentile(99)
        assert p50 <= p95 <= p99

    def test_load_spreads_across_accelerators(self, simulator):
        report = simulator.run(generate_trace_soa(SHAPES, 60, 1e-4, seed=2))
        load = report.accelerator_load()
        assert len(load) == 2  # both accelerators pick up work under load

    def test_throughput_positive(self, simulator):
        report = simulator.run(generate_trace_soa(SHAPES, 30, 1e-3, seed=0))
        assert report.throughput_rps > 0

    def test_percentile_validation(self, simulator):
        report = simulator.run(generate_trace_soa(SHAPES, 5, 1e-3, seed=0))
        with pytest.raises(ValueError):
            report.latency_percentile(0)


class TestDispatchEngines:
    """Both dispatch paths must make byte-identical decisions (same
    accelerator, same float start/finish) — the serving core contract."""

    def test_fast_path_matches_scan(self, simulator):
        trace = generate_trace_soa(SHAPES, 400, 0.3e-3, seed=5)
        _assert_fast_path_matches_scan(simulator, trace)

    def test_wide_partition_with_infeasible_pairs(self):
        simulator = ServingSimulator(_wide_fake_partition())
        trace = generate_trace_soa(SHAPES, 500, 0.5e-3, seed=3)
        _assert_fast_path_matches_scan(simulator, trace)

    def test_single_accelerator_partition(self):
        fake = FakePartition({"only": {SHAPES[0]: 0.002, SHAPES[1]: 0.003}})
        trace = generate_trace_soa(SHAPES, 120, 1e-3, seed=1)
        _assert_fast_path_matches_scan(ServingSimulator(fake), trace)

    def test_small_chunks_do_not_change_decisions(self, simulator):
        trace = generate_trace_soa(SHAPES, 150, 1e-3, seed=2)
        expected = _decisions(simulator.run(trace, dispatch="scan"))
        assert _decisions(simulator.run(trace, chunk_size=7)) == expected

    def test_unserveable_shape_raises(self):
        fake = FakePartition({"a": {SHAPES[0]: 0.001, SHAPES[1]: None}})
        simulator = ServingSimulator(fake)
        trace = generate_trace_soa(SHAPES, 50, 1e-3, seed=0)
        with pytest.raises(ValueError, match="no accelerator can serve"):
            simulator.run(trace)
        with pytest.raises(ValueError, match="no accelerator can serve"):
            simulator.run(trace, dispatch="scan")

    def test_empty_trace_rejected(self, simulator):
        with pytest.raises(ValueError, match="empty trace"):
            simulator.run(_empty_trace())
        with pytest.raises(ValueError, match="empty trace"):
            simulator.run(_empty_trace(), streaming=True)

    @pytest.mark.parametrize("trace", [[], (), None, "trace"])
    def test_non_soa_trace_rejected(self, simulator, trace):
        with pytest.raises(TypeError, match=type(trace).__name__) as error:
            simulator.run(trace)
        assert "generate_trace_soa" in str(error.value)

    def test_kwargs_validation(self, simulator):
        trace = generate_trace_soa(SHAPES, 5, 1e-3, seed=0)
        with pytest.raises(ValueError, match="dispatch"):
            simulator.run(trace, dispatch="warp")
        # scan streams like every other engine, to the same report
        assert (
            simulator.run(trace, streaming=True, dispatch="scan").as_dict()
            == simulator.run(trace, streaming=True).as_dict()
        )

    @pytest.mark.parametrize("dispatch", ["auto", "scan"])
    @pytest.mark.parametrize("chunk_size", [0, -3])
    def test_chunk_size_must_be_positive(self, simulator, dispatch, chunk_size):
        # a block of no requests would never advance the report sink
        trace = generate_trace_soa(SHAPES, 5, 1e-3, seed=0)
        with pytest.raises(ValueError, match="chunk_size must be positive"):
            simulator.run(trace, dispatch=dispatch, chunk_size=chunk_size)


class TestStreamingRun:
    def test_streaming_aggregates_match_exact(self, simulator):
        trace = generate_trace_soa(SHAPES, 600, 0.5e-3, seed=4)
        exact = simulator.run(trace)
        streaming = simulator.run(trace, streaming=True)
        assert streaming.count == len(exact.completed)
        assert streaming.makespan == exact.makespan
        assert streaming.throughput_rps == exact.throughput_rps
        assert streaming.accelerator_load() == exact.accelerator_load()
        assert streaming.mean_latency() == pytest.approx(
            exact.mean_latency(), rel=1e-12
        )

    def test_streaming_percentiles_within_documented_bound(self, simulator):
        """Property: sketched percentiles within quantile_error of exact."""
        for seed in (0, 1, 2):
            trace = generate_trace_soa(SHAPES, 800, 0.4e-3, seed=seed)
            exact = simulator.run(trace)
            for error in (0.01, 0.05):
                streaming = simulator.run(
                    trace, streaming=True, quantile_error=error
                )
                for p in (50, 90, 95, 99):
                    reference = exact.latency_percentile(p)
                    estimate = streaming.latency_percentile(p)
                    assert abs(estimate - reference) <= error * reference + 1e-12

    def test_streaming_constant_memory_chunks(self, simulator):
        trace = generate_trace_soa(SHAPES, 300, 1e-3, seed=6)
        small = simulator.run(trace, streaming=True, chunk_size=11)
        large = simulator.run(trace, streaming=True)
        small_summary = small.as_dict()
        large_summary = large.as_dict()
        # chunked summation reorders the float adds; everything else is exact
        for summary in (small_summary, large_summary):
            summary["mean_latency"] = round(summary["mean_latency"], 12)
            summary["mean_queueing_delay"] = round(
                summary["mean_queueing_delay"], 12
            )
        assert small_summary == large_summary


class TestReportSatellites:
    def _report(self, simulator):
        return simulator.run(generate_trace_soa(SHAPES, 80, 1e-3, seed=1))

    def test_batch_percentiles_match_singles(self, simulator):
        report = self._report(simulator)
        assert report.latency_percentiles([50, 95, 99]) == [
            report.latency_percentile(p) for p in (50, 95, 99)
        ]

    def test_sorted_latencies_cached(self, simulator):
        report = self._report(simulator)
        report.latency_percentile(50)
        first = report._sorted_latencies
        report.latency_percentile(99)
        assert report._sorted_latencies is first  # one sort, ever

    def test_empty_report_mean_latency_raises_value_error(self):
        empty = np.empty(0)
        report = ServingReport(
            arrivals=empty,
            starts=empty,
            finishes=empty,
            accelerator_ids=empty.astype(np.int16),
            accelerator_names=(),
            class_ids=empty.astype(np.int64),
            shapes=(),
            request_ids=empty.astype(np.int64),
            retries=empty.astype(np.int32),
        )
        with pytest.raises(ValueError, match="no completed requests"):
            report.mean_latency()
        with pytest.raises(ValueError, match="no completed requests"):
            report.latency_percentile(50)
        with pytest.raises(ValueError, match="no completed requests"):
            report.latency_percentiles([50, 99])

    @pytest.mark.parametrize(
        "rows", [_SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 7]
    )
    def test_mean_latency_sums_across_list_chunks(self, rows):
        def report_of(arrivals, finishes):
            ids = np.zeros(rows, dtype=np.int64)
            return ServingReport(
                arrivals=arrivals,
                starts=arrivals,
                finishes=finishes,
                accelerator_ids=ids.astype(np.int16),
                accelerator_names=("a",),
                class_ids=ids,
                shapes=(SHAPES[0],),
                request_ids=ids,
                retries=ids.astype(np.int32),
            )

        rng = np.random.default_rng(rows)
        # dyadic latencies add exactly in any order: every row counts once
        ticks = rng.integers(0, 1024, rows)
        dyadic = report_of(np.zeros(rows), ticks / 1024)
        assert dyadic.mean_latency() == int(ticks.sum()) / 1024 / rows
        # inexact adds keep the bits of one sum over the whole column
        arrivals = np.sort(rng.uniform(0.0, 100.0, rows))
        report = report_of(arrivals, arrivals + rng.exponential(0.01, rows))
        assert report.mean_latency() == sum(report.latencies.tolist()) / rows

    def test_percentile_validation_in_batch(self, simulator):
        report = self._report(simulator)
        with pytest.raises(ValueError):
            report.latency_percentiles([50, 0])


class TestReportColumns:
    """The exact report is NumPy columns; per-request objects are opt-in."""

    @staticmethod
    def _trace(num_requests):
        return generate_trace_soa(SHAPES, num_requests, 1e-3, seed=5)

    def test_columns_hold_at_most_50_bytes_per_request(self, simulator):
        report = simulator.run(self._trace(100_000))
        columns = (
            report.arrivals,
            report.starts,
            report.finishes,
            report.accelerator_ids,
            report.class_ids,
            report.request_ids,
            report.retries,
        )
        assert all(column.size == report.count == 100_000 for column in columns)
        assert sum(column.nbytes for column in columns) / report.count <= 50

    @pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
    def test_fast_path_builds_no_request_objects(self, monkeypatch, faulted):
        from repro.obs.export import ChromeTraceBuilder
        from repro.sim.serving import CompletedRequest

        def forbidden(*args, **kwargs):
            raise AssertionError("per-request object built on the exact path")

        simulator = ServingSimulator(_wide_fake_partition(4))
        faults = (
            FaultSchedule.down("acc1", 0.05, 0.2)
            + FaultSchedule.degraded("acc2", 0.1, 0.3, factor=2.0)
            if faulted
            else None
        )
        trace = self._trace(2000)
        monkeypatch.setattr(CompletedRequest, "__init__", forbidden)
        report = simulator.run(trace, faults=faults)
        assert report.count + report.shed_count == 2000
        if faulted:
            assert report.kills > 0
        report.latency_percentiles([50, 95, 99])
        report.mean_latency()
        report.accelerator_load()
        report.fault_summary()
        assert report.throughput_rps > 0
        ChromeTraceBuilder().add_serving_report(report).build()

    @pytest.mark.parametrize("dispatch", ["auto", "scan"])
    def test_properties_match_row_by_row_reference(self, simulator, dispatch):
        import math

        report = simulator.run(self._trace(3000), dispatch=dispatch)
        rows = report.completed
        latencies = [c.latency for c in rows]
        ordered = sorted(latencies)
        for percentile in (1, 50, 95, 99, 100):
            rank = min(len(ordered), math.ceil(percentile / 100 * len(ordered)))
            assert report.latency_percentile(percentile) == ordered[rank - 1]
        assert report.mean_latency() == sum(latencies) / len(rows)
        assert report.makespan == max(c.finish for c in rows)
        load = {}
        for c in rows:
            load[c.accelerator] = load.get(c.accelerator, 0) + 1
        assert list(report.accelerator_load().items()) == list(load.items())


class TestRunRecordsStats:
    def test_run_publishes_to_global_stats(self):
        fake = FakePartition({"a": {SHAPES[0]: 0.001, SHAPES[1]: 0.002}})
        simulator = ServingSimulator(fake)
        trace = generate_trace_soa(SHAPES, 40, 1e-3, seed=0)
        GLOBAL_METRICS.reset()
        simulator.run(trace)
        totals = read_totals()
        assert totals.batches == 1
        assert totals.evals.cache_hits > 0
        assert totals.evals.wall_seconds > 0

    def test_prewarm_then_run_all_hits_with_infeasible(self):
        fake = _wide_fake_partition()
        simulator = ServingSimulator(fake)
        simulator.prewarm(SHAPES)
        misses_before = simulator.stats.cache_misses
        simulator.run(generate_trace_soa(SHAPES, 60, 1e-3, seed=0))
        assert simulator.stats.cache_misses == misses_before

    def test_prewarm_mixed_precision_partition(self):
        """Every (accelerator, shape) pair of a mixed fp32/int8 fleet is
        cached at exactly the model's estimate."""
        partition = AcceleratorPartition([config_by_name("C1"), config_by_name("C7")])
        shapes = [GemmShape(1024, 1024, 1024), GemmShape(64, 64, 64),
                  GemmShape(333, 100, 70)]
        simulator = ServingSimulator(partition)
        assert simulator.prewarm(shapes) == len(shapes) * len(partition.designs)
        for (name, shape), service in simulator._service_cache.items():
            assert service == partition.estimate_on(name, shape)

    def test_wall_seconds_accumulates(self, simulator):
        before = simulator.stats.wall_seconds
        simulator.run(generate_trace_soa(SHAPES, 30, 1e-3, seed=0))
        assert simulator.stats.wall_seconds > before


class TestLoadSweep:
    def _simulator(self):
        return ServingSimulator(
            FakePartition(
                {
                    "a": {SHAPES[0]: 0.004, SHAPES[1]: 0.006},
                    "b": {SHAPES[0]: 0.008, SHAPES[1]: 0.012},
                }
            )
        )

    def test_finds_knee_and_exits_early(self):
        result = load_sweep(self._simulator(), SHAPES, num_requests=400, seed=1)
        assert result.knee_rps is not None
        assert result.early_exit
        assert result.plateau_rps is not None
        # the knee is where achieved stops tracking offered
        knee_point = next(
            p for p in result.points if p.offered_rps == result.knee_rps
        )
        assert knee_point.saturation < 0.95

    def test_explicit_loads_below_capacity_have_no_knee(self):
        result = load_sweep(
            self._simulator(), SHAPES, [5.0, 10.0], num_requests=200, seed=0
        )
        assert result.knee_rps is None
        assert not result.early_exit
        assert len(result.points) == 2

    def test_latency_grows_past_the_knee(self):
        result = load_sweep(self._simulator(), SHAPES, num_requests=400, seed=1)
        assert result.points[-1].p99 > result.points[0].p99

    def test_exact_mode_sweep(self):
        streaming = load_sweep(
            self._simulator(), SHAPES, [50.0], num_requests=200, streaming=True
        )
        exact = load_sweep(
            self._simulator(), SHAPES, [50.0], num_requests=200, streaming=False
        )
        assert exact.points[0].achieved_rps == streaming.points[0].achieved_rps

    def test_rows_shape(self):
        result = load_sweep(self._simulator(), SHAPES, [50.0], num_requests=100)
        (row,) = result.rows()
        assert set(row) == {
            "offered_rps", "achieved_rps", "saturation", "p50_ms", "p99_ms",
            "mean_ms",
        }

    def test_plateau_detected_once_and_skips_remaining_points(self):
        loads = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0]
        result = load_sweep(
            self._simulator(), SHAPES, loads, num_requests=400, seed=1
        )
        assert result.early_exit
        assert len(result.points) < len(loads)  # tail skipped
        # the evaluated points are a strict prefix of the ramp, in order
        assert [p.offered_rps for p in result.points] == loads[: len(result.points)]
        # the knee is exactly the first saturating point
        saturating = [
            p.offered_rps for p in result.points if p.saturation < 1.0 - 0.05
        ]
        assert result.knee_rps == saturating[0]
        # the plateau is the last evaluated point's ceiling
        assert result.plateau_rps == result.points[-1].achieved_rps

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_jobs_byte_equal_to_serial(self, jobs):
        loads = [20.0, 40.0, 80.0, 160.0, 320.0, 640.0]
        serial = load_sweep(
            self._simulator(), SHAPES, loads, num_requests=300, seed=4, jobs=1
        )
        threaded = load_sweep(
            self._simulator(), SHAPES, loads, num_requests=300, seed=4, jobs=jobs
        )
        assert threaded == serial  # dataclass equality: exact floats

    def test_validation(self):
        simulator = self._simulator()
        with pytest.raises(ValueError):
            load_sweep(simulator, SHAPES, [])
        with pytest.raises(ValueError):
            load_sweep(simulator, SHAPES, [-5.0])
        unserveable = ServingSimulator(
            FakePartition({"a": {SHAPES[0]: None, SHAPES[1]: None}})
        )
        with pytest.raises(ValueError, match="no accelerator"):
            load_sweep(unserveable, SHAPES)


class TestFaultInjection:
    """Fault-schedule semantics: kills, retries, failover, shedding."""

    def _single(self, service=0.001):
        return FakePartition({"solo": {SHAPES[0]: service}})

    def _trace(self):
        """One request for ``SHAPES[0]``, arriving at 0."""
        return SoATrace((SHAPES[0],), [0], [0.0])

    def test_down_window_kills_retries_and_completes(self):
        # execution starts at 0, the window at 0.0005 kills it; the retry
        # lands inside the window (requeued to its end) and completes
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.down("solo", 0.0005, 0.002)
        report = simulator.run(self._trace(), faults=faults)
        assert len(report.completed) == 1
        completed = report.completed[0]
        assert completed.retries == 1
        assert completed.start == pytest.approx(0.002)
        assert completed.finish == pytest.approx(0.003)
        assert report.kills == 1
        assert report.requeues == 1
        assert report.total_retries == 1
        assert report.shed == []

    def test_retry_budget_exhausted_sheds_with_accounting(self):
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.down("solo", 0.0005, 0.002)
        policy = FaultPolicy(max_retries=0)
        report = simulator.run(self._trace(), faults=faults, fault_policy=policy)
        assert report.completed == []
        assert len(report.shed) == 1
        shed = report.shed[0]
        assert shed.reason == "retry_budget_exhausted"
        assert shed.retries == 1
        assert shed.time == pytest.approx(0.0005)
        assert report.request_availability == 0.0
        assert report.fault_summary()["shed"] == 1

    def test_killed_request_fails_over_to_survivor(self):
        partition = FakePartition(
            {"fast": {SHAPES[0]: 0.001}, "slow": {SHAPES[0]: 0.005}}
        )
        simulator = ServingSimulator(partition)
        faults = FaultSchedule.down("fast", 0.0005, 0.1)
        report = simulator.run(self._trace(), faults=faults)
        completed = report.completed[0]
        assert completed.accelerator == "slow"
        assert completed.retries == 1

    def test_service_resolved_at_admission(self):
        # the degraded window fixes the service time at admission even
        # though the window ends mid-execution
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.degraded("solo", 0.0, 0.0015, factor=10.0)
        report = simulator.run(self._trace(), faults=faults)
        assert report.completed[0].finish == pytest.approx(0.01)

    def test_degraded_window_slows_service(self):
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.degraded("solo", 0.0, 10.0, factor=3.0)
        report = simulator.run(self._trace(), faults=faults)
        assert report.completed[0].finish == pytest.approx(0.003)
        assert report.kills == 0

    def test_device_window_needs_real_designs(self):
        from repro.hw.specs import VCK5000

        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.degraded("solo", 0.0, 1.0, device=VCK5000)
        with pytest.raises(ValueError, match="factor="):
            simulator.run(self._trace(), faults=faults)

    def test_unknown_accelerator_in_schedule_rejected(self):
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.down("ghost", 0.0, 1.0)
        with pytest.raises(FaultError, match="ghost"):
            simulator.run(self._trace(), faults=faults)

    def test_downtime_and_availability_reported(self):
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.down("solo", 0.0005, 0.002)
        report = simulator.run(self._trace(), faults=faults)
        assert report.downtime["solo"] == pytest.approx(0.0015)
        availability = report.availability()
        assert availability["solo"] == pytest.approx(1 - 0.0015 / 0.003)
        assert report.request_availability == 1.0

    def test_fault_events_attached_in_time_order(self):
        simulator = ServingSimulator(self._single())
        faults = FaultSchedule.down("solo", 0.0005, 0.002)
        report = simulator.run(self._trace(), faults=faults)
        assert [e.time for e in report.fault_events] == [0.0005, 0.002]

    def test_fault_summary_keys(self):
        simulator = ServingSimulator(self._single())
        report = simulator.run(
            self._trace(), faults=FaultSchedule.down("solo", 5.0, 6.0)
        )
        assert set(report.fault_summary()) == {
            "completed", "shed", "kills", "retries", "requeues",
            "fault_events", "request_availability", "availability",
        }

    def test_streaming_run_carries_fault_metadata(self):
        partition = _wide_fake_partition(4)
        trace = generate_trace_soa(SHAPES, 200, 1e-3, seed=2)
        faults = FaultSchedule.down("acc1", 0.01, 0.05)
        exact = ServingSimulator(partition).run(trace, faults=faults)
        stream = ServingSimulator(partition).run(
            trace, streaming=True, faults=faults
        )
        assert stream.fault_summary() == exact.fault_summary()
        assert "faults" in stream.as_dict()

    def test_streaming_fault_free_dict_has_no_faults_key(self):
        partition = _wide_fake_partition(4)
        trace = generate_trace_soa(SHAPES, 50, 1e-3, seed=2)
        stream = ServingSimulator(partition).run(trace, streaming=True)
        assert "faults" not in stream.as_dict()

    def test_load_sweep_accepts_faults(self):
        partition = _wide_fake_partition(4)
        simulator = ServingSimulator(partition)
        faults = FaultSchedule.down("acc1", 0.0, 0.02)
        result = load_sweep(
            simulator,
            SHAPES,
            [1000.0],
            num_requests=100,
            faults=faults,
            fault_policy=FaultPolicy(max_retries=2),
        )
        assert len(result.points) == 1

    def test_zero_requests_with_faults_rejected(self):
        simulator = ServingSimulator(self._single())
        with pytest.raises(ValueError, match="empty trace"):
            simulator.run(
                _empty_trace(), faults=FaultSchedule.down("solo", 0.0, 1.0)
            )

    @pytest.mark.parametrize(
        "dispatch, kernel",
        [
            pytest.param("auto", True, id="auto"),
            pytest.param("scan", True, id="scan"),
            pytest.param("auto", False, id="auto-no-kernel"),
        ],
    )
    def test_fault_loop_span_counts_every_attempt(self, dispatch, kernel, monkeypatch):
        from repro.obs.spans import GLOBAL_TRACER
        from repro.sim import dispatch_batch

        if not kernel:
            monkeypatch.setattr(dispatch_batch, "_native_dispatch", None)
        partition = _wide_fake_partition(4)
        trace = generate_trace_soa(SHAPES, 3000, 4e-3, seed=4)
        faults = (
            FaultSchedule.down("acc1", 2.4, 4.8)
            + FaultSchedule.degraded("acc2", 3.6, 8.4, factor=2.0)
            + FaultSchedule.down("acc0", 6.0, 6.6)
        )
        GLOBAL_TRACER.enable()
        try:
            report = ServingSimulator(partition).run(
                trace, dispatch=dispatch, faults=faults
            )
            (loop,) = [s for s in GLOBAL_TRACER.spans() if s.name == "serve.fault_loop"]
        finally:
            GLOBAL_TRACER.disable()
            GLOBAL_TRACER.clear()
        attrs = loop.attrs
        budget_sheds = sum(s.reason == "retry_budget_exhausted" for s in report.shed)
        # every attempt is either batched or scalar: one per request, plus
        # one per requeue and per kill that was retried
        assert attrs["batched"] + attrs["scalar"] == (
            len(trace) + report.requeues + report.kills - budget_sheds
        )
        if dispatch == "scan" or not dispatch_batch.native_available():
            # only the native kernel batches fault segments: without it
            # auto takes every attempt through scan's scalar loop
            assert attrs["batched"] == attrs["segments"] == 0
        else:
            # windows are active for half the trace, and the fast path
            # batches through them
            assert attrs["segments"] >= 4
            assert attrs["batched"] >= 0.9 * len(trace)
        if not kernel:
            streams = [
                ServingSimulator(partition)
                .run(trace, dispatch=engine, faults=faults, streaming=True)
                .as_dict()
                for engine in ("auto", "scan")
            ]
            assert streams[0] == streams[1]
