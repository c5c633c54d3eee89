"""EvalCache: fingerprints, hit/miss counters, clear(), model wiring."""

import dataclasses

import pytest

from repro.core.analytical_model import AnalyticalModel
from repro.hw.dram import DramPorts
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.perf.cache import EvalCache, NullCache, design_fingerprint
from repro.workloads.gemm import GemmShape


@pytest.fixture
def design():
    return CharmDesign(config_by_name("C6"))


@pytest.fixture
def workload():
    return GemmShape(2048, 2048, 2048)


class TestFingerprint:
    def test_hashable(self, design):
        hash(design_fingerprint(design))

    def test_equal_designs_equal_fingerprints(self, design):
        other = CharmDesign(config_by_name("C6"))
        assert design_fingerprint(design) == design_fingerprint(other)

    def test_port_change_changes_fingerprint(self, design):
        assert design_fingerprint(design) != design_fingerprint(
            design.with_ports(DramPorts(2, 1))
        )

    def test_buffering_change_changes_fingerprint(self, design):
        assert design_fingerprint(design) != design_fingerprint(
            design.with_single_buffering()
        )

    def test_device_perturbation_changes_fingerprint(self, design):
        derated = dataclasses.replace(
            design, device=dataclasses.replace(design.device, aie_freq_hz=1e9)
        )
        assert design_fingerprint(design) != design_fingerprint(derated)

    def test_different_configs_differ(self, design):
        other = CharmDesign(config_by_name("C1"))
        assert design_fingerprint(design) != design_fingerprint(other)


class TestEvalCache:
    def test_miss_then_hit(self):
        cache = EvalCache()
        calls = []
        assert cache.get_or_compute("estimate", "k", lambda: calls.append(1) or 7) == 7
        assert cache.get_or_compute("estimate", "k", lambda: calls.append(1) or 7) == 7
        assert calls == [1]
        assert cache.hits == 1
        assert cache.misses == 1

    def test_counters_per_table(self):
        cache = EvalCache()
        cache.get_or_compute("aie_level", "a", lambda: 1)
        cache.get_or_compute("aie_level", "a", lambda: 1)
        cache.get_or_compute("dram_level", "d", lambda: 2)
        counters = cache.counters()
        assert counters["aie_level"] == {"hits": 1, "misses": 1, "entries": 1}
        assert counters["dram_level"] == {"hits": 0, "misses": 1, "entries": 1}
        assert counters["estimate"]["entries"] == 0

    def test_clear_resets_everything(self):
        cache = EvalCache()
        cache.get_or_compute("estimate", "k", lambda: 7)
        cache.get_or_compute("estimate", "k", lambda: 7)
        cache.clear()
        assert cache.hits == 0
        assert cache.misses == 0
        assert cache.entries == 0

    @pytest.mark.parametrize("max_entries", [1, 2, 3, 8])
    def test_eviction_bounds_entries(self, max_entries):
        cache = EvalCache(max_entries=max_entries)
        for i in range(50):
            cache.get_or_compute("estimate", i, lambda i=i: i)
        assert 1 <= len(cache._tables["estimate"]) <= max_entries
        # the newest entry always survives its own insertion
        assert cache.get_or_compute("estimate", 49, lambda: -1) == 49

    def test_reset_counters_keeps_entries(self):
        cache = EvalCache()
        cache.get_or_compute("estimate", "k", lambda: 7)
        cache.get_or_compute("estimate", "k", lambda: 7)
        cache.reset_counters()
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.entries == 1

    def test_null_cache_never_retains(self):
        cache = NullCache()
        calls = []
        for _ in range(3):
            cache.get_or_compute("estimate", "k", lambda: calls.append(1) or 7)
        assert len(calls) == 3
        assert cache.hits == 0
        assert cache.entries == 0


class TestModelCaching:
    def test_second_estimate_is_a_hit(self, design, workload):
        cache = EvalCache()
        AnalyticalModel(design, cache=cache).estimate(workload)
        assert cache.counters()["estimate"] == {"hits": 0, "misses": 1, "entries": 1}
        AnalyticalModel(design, cache=cache).estimate(workload)
        assert cache.counters()["estimate"]["hits"] == 1

    def test_cached_equals_uncached(self, design, workload):
        cached = AnalyticalModel(design, cache=EvalCache()).estimate(workload)
        uncached = AnalyticalModel(design, cache=NullCache()).estimate(workload)
        assert cached == uncached
        assert repr(cached.total_seconds) == repr(uncached.total_seconds)

    def test_aie_level_computed_once_per_estimate(self, design, workload, monkeypatch):
        """The estimate path derives Eq. 1 inputs exactly once."""
        model = AnalyticalModel(design, cache=NullCache())
        calls = []
        original = AnalyticalModel._compute_aie_level_times

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(AnalyticalModel, "_compute_aie_level_times", counting)
        model.estimate(workload)
        assert len(calls) == 1

    def test_instance_memo_avoids_repeat_lookups(self, design):
        cache = EvalCache()
        model = AnalyticalModel(design, cache=cache)
        first = model.aie_level_times()
        lookups = cache.hits + cache.misses
        assert model.aie_level_times() is first
        assert cache.hits + cache.misses == lookups

    def test_distinct_workloads_do_not_collide(self, design):
        cache = EvalCache()
        model = AnalyticalModel(design, cache=cache)
        small = model.estimate(GemmShape(512, 512, 512))
        large = model.estimate(GemmShape(4096, 4096, 4096))
        assert small.total_seconds != large.total_seconds
