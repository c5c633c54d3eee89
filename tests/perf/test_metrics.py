"""EvalStats / FaultStats values and their publication as metrics."""

import sys
import threading

from repro.obs.metrics import MetricsRegistry
from repro.perf.metrics import (
    EvalStats,
    FaultStats,
    read_totals,
    record_eval,
    record_faults,
    track,
)


class TestEvalStats:
    def test_defaults(self):
        stats = EvalStats()
        assert stats.evaluations == 0
        assert stats.hit_rate == 0.0
        assert stats.evals_per_second == 0.0

    def test_hit_rate(self):
        stats = EvalStats(cache_hits=3, cache_misses=1)
        assert stats.hit_rate == 0.75

    def test_attempted(self):
        assert EvalStats(evaluations=5, skipped=2).attempted == 7

    def test_merge(self):
        total = EvalStats(evaluations=1, cache_hits=2, wall_seconds=0.5)
        total.merge(EvalStats(evaluations=3, cache_misses=4, skipped=1))
        assert total.evaluations == 4
        assert total.cache_hits == 2
        assert total.cache_misses == 4
        assert total.skipped == 1
        assert total.wall_seconds == 0.5

    def test_snapshot_and_delta(self):
        stats = EvalStats(evaluations=2, cache_hits=5, wall_seconds=0.25)
        before = stats.snapshot()
        stats.evaluations += 3
        stats.cache_hits += 1
        stats.cache_misses += 4
        stats.skipped += 2
        stats.wall_seconds += 0.5
        delta = stats.delta_since(before)
        assert delta.evaluations == 3
        assert delta.cache_hits == 1
        assert delta.cache_misses == 4
        assert delta.skipped == 2
        assert delta.wall_seconds == 0.5
        # the snapshot is an independent copy, not a view
        assert before.evaluations == 2

    def test_delta_of_unchanged_stats_is_zero(self):
        stats = EvalStats(evaluations=7, cache_hits=9, wall_seconds=1.0)
        delta = stats.delta_since(stats.snapshot())
        assert delta.evaluations == 0
        assert delta.cache_hits == 0
        assert delta.wall_seconds == 0.0

    def test_track_accumulates_wall_time(self):
        stats = EvalStats()
        with track(stats):
            pass
        first = stats.wall_seconds
        assert first >= 0
        with track(stats):
            sum(range(1000))
        assert stats.wall_seconds >= first

    def test_evals_per_second(self):
        stats = EvalStats(evaluations=10, wall_seconds=2.0)
        assert stats.evals_per_second == 5.0

    def test_summary_mentions_counts(self):
        text = EvalStats(evaluations=7, skipped=2, cache_hits=3).summary()
        assert "7 evaluations" in text
        assert "2 skipped" in text
        assert "cache 3 hits" in text

    def test_as_dict_round_trip(self):
        stats = EvalStats(evaluations=2, cache_hits=1, cache_misses=1)
        payload = stats.as_dict()
        assert payload["evaluations"] == 2
        assert payload["hit_rate"] == 0.5


class TestRecordAndTotals:
    def test_record_and_reset(self):
        registry = MetricsRegistry()
        record_eval(EvalStats(evaluations=2), registry)
        record_eval(EvalStats(evaluations=3, skipped=1), registry)
        totals = read_totals(registry)
        assert totals.evals.evaluations == 5
        assert totals.evals.skipped == 1
        assert totals.batches == 2
        registry.reset()
        totals = read_totals(registry)
        assert totals.evals.evaluations == 0
        assert totals.batches == 0

    def test_record_publishes_to_metrics_registry(self):
        registry = MetricsRegistry()
        record_eval(EvalStats(evaluations=4, cache_hits=2), registry)
        record_faults(FaultStats(windows=2, kills=1, completed=5), registry)
        snapshot = registry.snapshot()
        assert (
            snapshot["repro_eval_evaluations_total"]["values"][0]["value"] == 4
        )
        assert snapshot["repro_eval_batches_total"]["values"][0]["value"] == 1
        assert snapshot["repro_fault_kills_total"]["values"][0]["value"] == 1
        registry.reset("repro_eval_")
        registry.reset("repro_fault_")
        assert registry.families() == []

    def test_totals_are_ints_and_default_to_zero(self):
        registry = MetricsRegistry()
        empty = read_totals(registry)
        assert empty.evals == EvalStats()
        assert (empty.batches, empty.fault_runs) == (0, 0)
        record_eval(EvalStats(evaluations=4, wall_seconds=0.5), registry)
        record_faults(FaultStats(windows=8, kills=1), registry)
        totals = read_totals(registry)
        assert "4 evaluations" in totals.evals.summary()
        assert type(totals.evals.evaluations) is int
        assert type(totals.faults.windows) is int
        assert totals.evals.wall_seconds == 0.5
        assert totals.faults.summary().startswith("8 fault windows: 1 kills")

    def test_reading_totals_registers_nothing(self):
        registry = MetricsRegistry()
        read_totals(registry)
        assert registry.families() == []
        assert registry.to_prometheus() == ""


def _run_threads(threads, timeout=30.0):
    """Start and join ``threads`` under a short switch interval."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force frequent preemption
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


class TestThreadSafety:
    def test_threaded_record_hammer_loses_no_updates(self):
        """Parallel publishers must not lose updates.

        Each batch increments several counters; concurrent
        ``record_eval``/``record_faults`` calls must land every one.
        """
        registry = MetricsRegistry()
        workers, rounds = 8, 300
        barrier = threading.Barrier(workers)

        def hammer():
            barrier.wait()  # maximize interleaving
            for _ in range(rounds):
                record_eval(
                    EvalStats(evaluations=1, cache_hits=1, skipped=1),
                    registry,
                )
                record_faults(FaultStats(windows=1, kills=1), registry)

        _run_threads([threading.Thread(target=hammer) for _ in range(workers)])
        expected = workers * rounds
        totals = read_totals(registry)
        assert totals.evals.evaluations == expected
        assert totals.evals.cache_hits == expected
        assert totals.evals.skipped == expected
        assert totals.batches == expected
        assert totals.faults.windows == expected
        assert totals.faults.kills == expected
        assert totals.fault_runs == expected

    def test_threaded_reset_record_race_stays_consistent(self):
        """reset() racing record_eval() must never expose a torn batch."""
        registry = MetricsRegistry()
        stop = threading.Event()
        torn: list = []

        def recorder():
            while not stop.is_set():
                record_eval(EvalStats(evaluations=1, cache_hits=1), registry)

        def resetter():
            try:
                for _ in range(50):
                    registry.reset()
                    totals = read_totals(registry)
                    if not (
                        totals.evals.evaluations
                        == totals.evals.cache_hits
                        == totals.batches
                    ):
                        torn.append(totals)
            finally:
                stop.set()

        threads = [threading.Thread(target=recorder) for _ in range(4)]
        _run_threads(threads + [threading.Thread(target=resetter)])
        # invariant under any interleaving: the counters of one batch
        # move together under the registry lock, so reads never disagree
        totals = read_totals(registry)
        evals = totals.evals
        assert evals.evaluations == evals.cache_hits == totals.batches
        assert torn == []


class TestTotalsAcrossDumps:
    """Cross-process shipping of eval/fault counters as registry dumps."""

    def _populated(self):
        registry = MetricsRegistry()
        record_eval(EvalStats(evaluations=2, cache_hits=5), registry)
        record_eval(EvalStats(evaluations=1, cache_misses=3), registry)
        record_faults(
            FaultStats(windows=2, kills=1, shed=1, completed=9), registry
        )
        return registry

    def test_dump_round_trips_through_pickle(self):
        import pickle

        source = self._populated()
        blob = pickle.dumps(source.dump(), protocol=pickle.HIGHEST_PROTOCOL)
        target = MetricsRegistry()
        target.merge_dump(pickle.loads(blob))
        assert read_totals(target) == read_totals(source)

    def test_merge_dump_folds_counters(self):
        parent = self._populated()
        worker = self._populated()
        parent.merge_dump(worker.dump())
        totals = read_totals(parent)
        assert totals.evals.evaluations == 6
        assert totals.evals.cache_hits == 10
        assert totals.batches == 4
        assert totals.faults.windows == 4
        assert totals.fault_runs == 2

    def test_dump_is_a_snapshot_not_a_view(self):
        registry = self._populated()
        dump = registry.dump()
        record_eval(EvalStats(evaluations=100), registry)
        target = MetricsRegistry()
        target.merge_dump(dump)
        assert read_totals(target).evals.evaluations == 3
        assert read_totals(target).batches == 2

    def test_merged_dump_counts_each_series_once(self):
        """A worker's batch reaches the parent exactly once, via its dump."""
        worker = MetricsRegistry()
        record_eval(EvalStats(evaluations=4, cache_hits=7), worker)
        parent = MetricsRegistry()
        parent.merge_dump(worker.dump())
        snapshot = parent.snapshot()
        hits = snapshot["repro_eval_cache_hits_total"]["values"][0]["value"]
        assert hits == 7
        assert read_totals(parent).evals.cache_hits == 7
