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
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from typing import TYPE_CHECKING, Any, Callable, Hashable, Mapping, TypeVar

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.mapping.charm import CharmDesign

T = TypeVar("T")

#: entries per table before the oldest half is evicted (FIFO); bounds
#: memory during long serving runs without LRU bookkeeping on the hot path
DEFAULT_MAX_ENTRIES = 65536


#: leaf types returned as they are, before any ABC ``isinstance`` check;
#: exact types only, so enum members and other subclasses take their
#: own branch below
_LEAF_TYPES = frozenset({int, float, str, bool, type(None)})

#: dataclass type -> its field names, filled the first time an instance
#: reaches the dataclass branch (so a cached type is known to be none of
#: the container kinds checked before it)
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def _freeze(value: Any) -> Hashable:
    """Recursively convert a value into a hashable canonical form."""
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    names = _FIELD_NAMES.get(cls)
    if names is not None:
        return (
            cls.__qualname__,
            tuple((name, _freeze(getattr(value, name))) for name in names),
        )
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
        _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(value))
        return _freeze(value)
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
                # FIFO eviction of the oldest half, at least one entry
                # (dicts preserve order)
                for stale in list(entries)[: max(1, self.max_entries // 2)]:
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

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            for table in self._tables.values():
                table.clear()
            for name in self._hits:
                self._hits[name] = 0
                self._misses[name] = 0


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
