"""parallel_map: order, error propagation and jobs resolution."""

import os
import threading

import pytest

from repro.perf.parallel import parallel_map, resolve_jobs, usable_cpus


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_one_is_serial(self):
        assert resolve_jobs(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_none_means_cpu_count(self):
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_zero_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {2, 5}, raising=False
        )
        assert usable_cpus() == 2
        assert resolve_jobs(0) == 2

    def test_cpu_count_without_affinity_support(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(None) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(lambda x: x * 2, range(10), jobs=1) == [
            x * 2 for x in range(10)
        ]

    def test_parallel_matches_serial_order(self):
        items = list(range(97))
        assert parallel_map(lambda x: x**2, items, jobs=4) == [x**2 for x in items]

    def test_empty_input(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []

    def test_single_item_skips_pool(self):
        assert parallel_map(lambda x: x + 1, [41], jobs=8) == [42]

    def test_uses_multiple_workers(self):
        seen = set()
        lock = threading.Lock()

        def record(x):
            with lock:
                seen.add(threading.current_thread().name)
            return x

        parallel_map(record, range(64), jobs=4)
        assert len(seen) >= 1  # at least dispatched through the pool

    def test_deterministic_error_propagates_like_serial(self):
        def bad(x):
            if x in (5, 13):
                raise ValueError(f"item {x} fails")
            return x

        # the serial loop's error: the earliest failing item's
        with pytest.raises(ValueError, match="item 5 fails"):
            parallel_map(bad, range(20), jobs=1)
        with pytest.raises(ValueError, match="item 5 fails"):
            parallel_map(bad, range(20), jobs=4)
