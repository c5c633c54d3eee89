"""Keyed memoization for the analytical-model evaluation path.

The model is a pure function of ``(design, workload, plan)``, yet the
batch drivers (DSE, sweeps, sensitivity, serving) historically re-derived
identical sub-results thousands of times.  :class:`EvalCache` memoizes
the three levels of the computation:

* design fingerprint            -> :class:`~repro.core.analytical_model.AieLevelTimes`
* (fingerprint, plan)           -> :class:`~repro.core.analytical_model.DramLevelTimes`
* (fingerprint, workload, plan) -> :class:`~repro.core.analytical_model.Estimate`

Designs are frozen dataclasses but hold a :class:`types.MappingProxyType`
(the device's MACs/cycle table), so they are not directly hashable;
:func:`design_fingerprint` canonicalises a design into a hashable tuple.

Thread-safe: batch evaluators share one cache across worker threads.

The cache can also persist across processes: :meth:`EvalCache.load_disk`
and :meth:`EvalCache.save_disk` read/write a versioned snapshot under a
cache directory, so a library caller can warm-start instead of
re-deriving every estimate.  The snapshot is written atomically (temp
file + ``os.replace``) and stamped with
:data:`CACHE_SCHEMA_VERSION`; a missing, corrupt, or version-mismatched
file silently degrades to a cold start — persistence is an optimization,
never a correctness dependency.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import pickle
import tempfile
import threading
import types
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.mapping.charm import CharmDesign

T = TypeVar("T")

#: entries per table before the oldest half is evicted (FIFO); bounds
#: memory during long serving runs without LRU bookkeeping on the hot path
DEFAULT_MAX_ENTRIES = 65536

#: bump whenever the fingerprint scheme or a cached value type changes
#: shape — old snapshots then cold-start instead of poisoning the cache
CACHE_SCHEMA_VERSION = 1

#: snapshot file name inside a cache directory; the version is part of
#: the name so a schema bump never even opens an old snapshot
DISK_BASENAME = f"evalcache-v{CACHE_SCHEMA_VERSION}.pkl"


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


def _freeze(value: Any) -> Hashable:
    """Recursively convert a value into a hashable canonical form."""
    if isinstance(value, enum.Enum):
        return (type(value).__qualname__, value.name)
    if isinstance(value, Mapping):
        return tuple(
            sorted(((_freeze(k), _freeze(v)) for k, v in value.items()), key=repr)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_freeze(v) for v in value), key=repr))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__qualname__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    return value


def design_fingerprint(design: "CharmDesign") -> Hashable:
    """A hashable key capturing everything the model reads from a design.

    Two designs with equal fingerprints produce bit-identical estimates
    for any workload: the fingerprint covers the hardware configuration,
    the full device spec (sensitivity studies perturb frequency, PL
    memory fraction, DRAM bandwidth...), and the design-level switches
    (kernel style, comm scheme, buffering).
    """
    return _freeze(design)


class EvalCache:
    """Hit/miss-counted memo tables for the three evaluation levels."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self._tables: dict[str, dict[Hashable, Any]] = {
            "aie_level": {},
            "dram_level": {},
            "estimate": {},
        }
        self._hits: dict[str, int] = {name: 0 for name in self._tables}
        self._misses: dict[str, int] = {name: 0 for name in self._tables}
        self._disk: dict[str, int] = {"loaded": 0, "saved": 0, "cold_starts": 0}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def get_or_compute(
        self, table: str, key: Hashable, compute: Callable[[], T]
    ) -> T:
        """Return the memoized value for ``key``, computing it on a miss.

        ``compute`` runs outside the lock; concurrent misses on the same
        key may both compute, but the model is pure so either result is
        correct and only one is retained.
        """
        entries = self._tables[table]
        with self._lock:
            if key in entries:
                self._hits[table] += 1
                return entries[key]
            self._misses[table] += 1
        value = compute()
        with self._lock:
            if len(entries) >= self.max_entries:
                # FIFO eviction of the oldest half (dicts preserve order)
                for stale in list(entries)[: self.max_entries // 2]:
                    del entries[stale]
            entries.setdefault(key, value)
            return entries[key]

    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(self._hits.values())

    @property
    def misses(self) -> int:
        return sum(self._misses.values())

    @property
    def entries(self) -> int:
        return sum(len(t) for t in self._tables.values())

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-table hit/miss/size counters (a snapshot)."""
        with self._lock:
            return {
                name: {
                    "hits": self._hits[name],
                    "misses": self._misses[name],
                    "entries": len(table),
                }
                for name, table in self._tables.items()
            }

    def disk_stats(self) -> dict[str, int]:
        """Entries loaded from / saved to disk and silent cold starts."""
        with self._lock:
            return dict(self._disk)

    # ------------------------------------------------------------------
    def load_disk(self, directory: str) -> int:
        """Warm-start from a snapshot under ``directory``.

        Returns the number of entries loaded.  A missing, corrupt,
        truncated, or schema-mismatched snapshot is a silent cold start
        (returns 0): the cache must never make a run worse than running
        cold.  Loaded entries never evict fresher in-memory ones and
        respect ``max_entries`` per table.
        """
        path = os.path.join(directory, DISK_BASENAME)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:
            with self._lock:
                self._disk["cold_starts"] += 1
            return 0
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_SCHEMA_VERSION
            or not isinstance(payload.get("tables"), dict)
        ):
            with self._lock:
                self._disk["cold_starts"] += 1
            return 0
        loaded = 0
        with self._lock:
            for name, entries in payload["tables"].items():
                table = self._tables.get(name)
                if table is None or not isinstance(entries, dict):
                    continue
                budget = self.max_entries - len(table)
                for key, value in entries.items():
                    if budget <= 0:
                        break
                    if key not in table:
                        table[key] = value
                        loaded += 1
                        budget -= 1
            self._disk["loaded"] += loaded
        return loaded

    def save_disk(self, directory: str) -> int:
        """Atomically snapshot every table under ``directory``.

        Returns the number of entries written, or 0 when the snapshot
        could not be written (read-only filesystem, unpicklable entry) —
        persistence failures never propagate into the run.
        """
        with self._lock:
            snapshot = {name: dict(table) for name, table in self._tables.items()}
        payload = {"version": CACHE_SCHEMA_VERSION, "tables": snapshot}
        count = sum(len(table) for table in snapshot.values())
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=DISK_BASENAME + ".", dir=directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    _CachePickler(
                        handle, protocol=pickle.HIGHEST_PROTOCOL
                    ).dump(payload)
                os.replace(tmp_path, os.path.join(directory, DISK_BASENAME))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except Exception:
            return 0
        with self._lock:
            self._disk["saved"] += count
        return count

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping any entries.

        The CLI calls this at the start of every invocation so ``--stats``
        reports per-run numbers even when ``main`` runs repeatedly in one
        process (tests, notebooks) against the warm process-wide cache.
        """
        with self._lock:
            for name in self._hits:
                self._hits[name] = 0
                self._misses[name] = 0
            for name in self._disk:
                self._disk[name] = 0

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            for table in self._tables.values():
                table.clear()
            for name in self._hits:
                self._hits[name] = 0
                self._misses[name] = 0
            for name in self._disk:
                self._disk[name] = 0


class NullCache(EvalCache):
    """A cache that never retains anything — the uncached baseline.

    Used by benchmarks to measure the seed serial path, and available to
    callers that must bound memory at exactly zero.
    """

    def __init__(self):
        super().__init__(max_entries=0)

    def get_or_compute(
        self, table: str, key: Hashable, compute: Callable[[], T]
    ) -> T:
        with self._lock:
            self._misses[table] += 1
        return compute()


#: process-wide default shared by every model instance unless overridden
DEFAULT_CACHE = EvalCache()

#: singleton uncached baseline
NULL_CACHE = NullCache()


def get_cache() -> EvalCache:
    """The process-wide evaluation cache."""
    return DEFAULT_CACHE


def clear_cache() -> None:
    """Reset the process-wide cache (tests, benchmarks)."""
    DEFAULT_CACHE.clear()
