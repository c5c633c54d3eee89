"""Time-windowed telemetry over simulated time.

End-of-run reports say *what* a serve did; this module says *when*.
Simulated time is cut into fixed-width windows and three ring-buffer
series accumulate per-window state:

* :class:`WindowedCounter` — per-window event counts (requests, sheds,
  kills);
* :class:`WindowedGauge` — per-window running maxima (peak latency);
* :class:`WindowedHistogram` — one
  :class:`repro.sim.streaming.QuantileSketch` per window, so every
  window answers p50/p99 queries under the sketch's documented
  relative-error bound.

:class:`ServingMonitor` bundles the series behind the hook the serving
engines call: ``observe_chunk(finishes, latencies, keys)`` with each
block the streaming report folds (the engines' sink computes its
latencies and sketch bucket keys once for both), plus
``observe_sheds`` / ``observe_kills`` from the fault loop.  The monitor
only *reads* the already-decided dispatch results, so attaching one
cannot perturb dispatch decisions — byte-identity of monitored vs.
unmonitored runs is a conformance-tested contract.

Mergeability mirrors :meth:`repro.sim.streaming.StreamingServingReport.merge`:
counters add, gauges keep the maximum, window sketches merge
bucket-exactly, and shard workers ship their monitor home for the
parent to fold **in shard order** — so a pooled fleet's merged series
equals the inline reference bit for bit.

Ring-buffer semantics: each series retains at most ``capacity`` windows
ending at the newest window seen; producing past capacity evicts the
oldest windows deterministically (merge re-evicts against the merged
maximum, so equal producers merge to equal series).

This module keeps the package's layering rule: no module-level imports
from ``repro.sim`` — the sketch class is imported lazily, exactly like
:class:`repro.obs.metrics.Histogram` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim -> obs)
    from repro.sim.streaming import QuantileSketch

__all__ = [
    "DEFAULT_WINDOW_CAPACITY",
    "ServingMonitor",
    "WindowStats",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
]

#: windows retained per series before the ring evicts the oldest; far
#: above the CLI's default ``--windows 100`` so eviction only triggers
#: on pathologically fine windows
DEFAULT_WINDOW_CAPACITY = 4096

#: per-chunk dense scatter budget (windows x sketch-key range); chunks
#: that would exceed it fall back to sorted grouping
_DENSE_SCATTER_LIMIT = 4_000_000


def _make_sketch(quantile_error: float) -> "QuantileSketch":
    # imported lazily: repro.sim.__init__ pulls in the serving stack,
    # which imports repro.perf.metrics, which imports repro.obs
    from repro.sim.streaming import QuantileSketch

    return QuantileSketch(quantile_error)


class _WindowedSeries:
    """Shared window-index math + ring eviction for the three series."""

    def __init__(self, window_seconds: float, capacity: int):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if capacity < 1:
            raise ValueError("capacity must be at least one window")
        self.window_seconds = float(window_seconds)
        self.capacity = int(capacity)
        self._max_index = -1

    def index_of(self, time: float) -> int:
        """The window holding simulated ``time`` (clamped at window 0)."""
        return max(int(math.floor(time / self.window_seconds)), 0)

    def indices_of(self, times: np.ndarray) -> np.ndarray:
        # astype truncation equals floor for nonnegative quotients, and
        # the clamp makes the negative cases agree too — measurably
        # cheaper than np.floor_divide on dispatch-sized chunks
        idx = (
            np.asarray(times, dtype=np.float64) / self.window_seconds
        ).astype(np.int64)
        return np.maximum(idx, 0, out=idx)

    def bounds(self, index: int) -> tuple[float, float]:
        return index * self.window_seconds, (index + 1) * self.window_seconds

    def _check_mergeable(self, other: "_WindowedSeries") -> None:
        if other.window_seconds != self.window_seconds:
            raise ValueError(
                "can only merge series with identical window widths "
                f"({self.window_seconds} != {other.window_seconds})"
            )

    def _evict(self, store: dict[int, Any], newest: int) -> None:
        if newest > self._max_index:
            self._max_index = newest
        floor = self._max_index - self.capacity + 1
        if floor > 0:
            for index in [key for key in store if key < floor]:
                del store[index]


class WindowedCounter(_WindowedSeries):
    """Per-window event counts (exact; floats so weights are allowed)."""

    def __init__(
        self, window_seconds: float, capacity: int = DEFAULT_WINDOW_CAPACITY
    ):
        super().__init__(window_seconds, capacity)
        self._values: dict[int, float] = {}

    def add(self, time: float, amount: float = 1.0) -> None:
        index = self.index_of(time)
        self._values[index] = self._values.get(index, 0.0) + amount
        self._evict(self._values, index)

    def add_times(self, times: np.ndarray) -> None:
        """Count one event per entry of ``times`` (vectorized)."""
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        idx = self.indices_of(times)
        base = int(idx.min())
        self.add_counts(base, np.bincount(idx - base))

    def add_counts(self, base: int, counts: np.ndarray) -> None:
        """Count ``counts[i]`` events in window ``base + i``."""
        store = self._values
        for offset in np.flatnonzero(counts).tolist():
            index = base + int(offset)
            store[index] = store.get(index, 0.0) + float(counts[offset])
        self._evict(store, base + len(counts) - 1)

    def value(self, index: int) -> float:
        return self._values.get(index, 0.0)

    def total(self) -> float:
        return sum(self._values.values())

    def indices(self) -> list[int]:
        return sorted(self._values)

    def series(self) -> list[tuple[int, float]]:
        return [(index, self._values[index]) for index in sorted(self._values)]

    def merge(self, other: "WindowedCounter") -> "WindowedCounter":
        self._check_mergeable(other)
        for index, amount in other._values.items():
            self._values[index] = self._values.get(index, 0.0) + amount
        self._evict(self._values, other._max_index)
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "window_seconds": self.window_seconds,
            "capacity": self.capacity,
            "values": {str(index): value for index, value in self.series()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WindowedCounter":
        series = cls(data["window_seconds"], data.get("capacity", DEFAULT_WINDOW_CAPACITY))
        for index, value in data.get("values", {}).items():
            series._values[int(index)] = float(value)
        if series._values:
            series._evict(series._values, max(series._values))
        return series


class WindowedGauge(_WindowedSeries):
    """Per-window running maximum (peak latency, peak depth, ...)."""

    def __init__(
        self, window_seconds: float, capacity: int = DEFAULT_WINDOW_CAPACITY
    ):
        super().__init__(window_seconds, capacity)
        self._values: dict[int, float] = {}

    def observe(self, time: float, value: float) -> None:
        index = self.index_of(time)
        current = self._values.get(index)
        if current is None or value > current:
            self._values[index] = float(value)
        self._evict(self._values, index)

    def observe_max(self, index: int, value: float) -> None:
        """Fold a precomputed per-window maximum at ``index``."""
        current = self._values.get(index)
        if current is None or value > current:
            self._values[index] = float(value)
        self._evict(self._values, index)

    def value(self, index: int) -> float | None:
        return self._values.get(index)

    def indices(self) -> list[int]:
        return sorted(self._values)

    def series(self) -> list[tuple[int, float]]:
        return [(index, self._values[index]) for index in sorted(self._values)]

    def merge(self, other: "WindowedGauge") -> "WindowedGauge":
        self._check_mergeable(other)
        for index, value in other._values.items():
            current = self._values.get(index)
            if current is None or value > current:
                self._values[index] = value
        self._evict(self._values, other._max_index)
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "window_seconds": self.window_seconds,
            "capacity": self.capacity,
            "values": {str(index): value for index, value in self.series()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WindowedGauge":
        series = cls(data["window_seconds"], data.get("capacity", DEFAULT_WINDOW_CAPACITY))
        for index, value in data.get("values", {}).items():
            series._values[int(index)] = float(value)
        if series._values:
            series._evict(series._values, max(series._values))
        return series


class WindowedHistogram(_WindowedSeries):
    """One :class:`QuantileSketch` per window.

    Counts and sums per window are exact; quantiles carry the sketch's
    relative-error bound.  ``observe_values`` folds a whole chunk in
    O(n) via a dense (window, bucket) scatter — no per-value Python —
    and window min/max are tracked at bucket-representative resolution
    so merged series are independent of fold order within a window.
    """

    def __init__(
        self,
        window_seconds: float,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
        quantile_error: float = 0.01,
    ):
        super().__init__(window_seconds, capacity)
        self.quantile_error = float(quantile_error)
        self._sketches: dict[int, "QuantileSketch"] = {}

    def _sketch_for(self, index: int) -> "QuantileSketch":
        sketch = self._sketches.get(index)
        if sketch is None:
            sketch = self._sketches[index] = _make_sketch(self.quantile_error)
        return sketch

    def observe(self, time: float, value: float) -> None:
        index = self.index_of(time)
        self._sketch_for(index).add(value)
        self._evict(self._sketches, index)

    def observe_values(
        self,
        times: np.ndarray,
        values: np.ndarray,
        indices: np.ndarray | None = None,
        keys: np.ndarray | None = None,
        counter: WindowedCounter | None = None,
    ) -> list[int]:
        """Fold ``values[i]`` into the window holding ``times[i]``.

        ``indices`` (``indices_of(times)``) and ``keys`` (the values'
        bucket keys from a same-resolution ``prepare_keys``) are work
        the caller shares with its other consumers; ``counter`` is
        credited with each window's value count from the same pass.
        Returns the sorted list of window indices the chunk touched.
        """
        values = np.asarray(values, dtype=np.float64)
        if indices is None:
            times = np.asarray(times, dtype=np.float64)
            if times.size == 0:
                return []
            if times.shape != values.shape:
                raise ValueError("times and values must align")
            idx = self.indices_of(times)
        else:
            idx = indices
            if idx.size == 0:
                return []
            if idx.shape != values.shape:
                raise ValueError("indices and values must align")
        base = int(idx.min())
        span = int(idx.max()) - base + 1
        probe = self._sketch_for(base)
        if keys is None:
            keys = probe.prepare_keys(values)
        krange = _key_span(keys) if keys is not None else 0
        if keys is None or span * krange > _DENSE_SCATTER_LIMIT:
            # underflow values or a pathologically wide scatter: group
            # by window through one stable sort and take the exact path
            if counter is not None:
                counter.add_counts(base, np.bincount(idx - base))
            order = np.argsort(idx, kind="stable")
            sorted_idx = idx[order]
            sorted_values = values[order]
            cuts = np.flatnonzero(np.diff(sorted_idx)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [sorted_idx.size]))
            touched = []
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                index = int(sorted_idx[lo])
                self._sketch_for(index).add_many(sorted_values[lo:hi])
                touched.append(index)
            self._evict(self._sketches, base + span - 1)
            return touched
        kmin = int(keys.min())
        offsets = idx - base
        combo = offsets * krange
        combo += keys
        combo -= kmin
        scattered = np.bincount(combo, minlength=span * krange).reshape(
            span, krange
        )
        counts = scattered.sum(axis=1)
        if counter is not None:
            counter.add_counts(base, counts)
        sums = np.bincount(offsets, weights=values, minlength=span)
        gamma = probe._gamma
        touched = []
        for offset in np.flatnonzero(counts).tolist():
            index = base + offset
            touched.append(index)
            sketch = self._sketch_for(index)
            row = scattered[offset]
            occupied = np.flatnonzero(row)
            first, last = int(occupied[0]), int(occupied[-1])
            sketch.add_bucket_counts(kmin + first, row[first : last + 1])
            lo_key, hi_key = kmin + first, kmin + last
            sketch.count += int(counts[offset])
            sketch._sum += float(sums[offset])
            # bucket-representative extremes: deterministic under any
            # fold order / chunking of the same per-window value set
            sketch._min = min(sketch._min, 2.0 * gamma**lo_key / (gamma + 1.0))
            sketch._max = max(sketch._max, 2.0 * gamma**hi_key / (gamma + 1.0))
        self._evict(self._sketches, base + span - 1)
        return touched

    def sketch(self, index: int) -> "QuantileSketch | None":
        return self._sketches.get(index)

    def indices(self) -> list[int]:
        return sorted(self._sketches)

    def merge(self, other: "WindowedHistogram") -> "WindowedHistogram":
        self._check_mergeable(other)
        if other.quantile_error != self.quantile_error:
            raise ValueError("can only merge histograms with equal error bounds")
        for index, sketch in other._sketches.items():
            mine = self._sketches.get(index)
            if mine is None:
                self._sketches[index] = _copy_sketch(sketch)
            else:
                mine.merge(sketch)
        self._evict(self._sketches, other._max_index)
        return self

    def as_dict(self) -> dict[str, Any]:
        windows = {}
        for index in sorted(self._sketches):
            sketch = self._sketches[index]
            windows[str(index)] = {
                "count": sketch.count,
                "sum": sketch.sum,
                "min": sketch.min,
                "max": sketch.max,
                "underflow": sketch._underflow,
                "buckets": {str(key): num for key, num in sorted(sketch._counts.items())},
            }
        return {
            "window_seconds": self.window_seconds,
            "capacity": self.capacity,
            "quantile_error": self.quantile_error,
            "windows": windows,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "WindowedHistogram":
        series = cls(
            data["window_seconds"],
            data.get("capacity", DEFAULT_WINDOW_CAPACITY),
            data.get("quantile_error", 0.01),
        )
        for index, state in data.get("windows", {}).items():
            sketch = _make_sketch(series.quantile_error)
            sketch.count = int(state["count"])
            sketch._sum = float(state["sum"])
            sketch._min = float(state["min"])
            sketch._max = float(state["max"])
            sketch._underflow = int(state.get("underflow", 0))
            buckets = state.get("buckets", {})
            if buckets:
                keys = np.array([int(key) for key in buckets], dtype=np.int64)
                kmin = int(keys.min())
                counts = np.zeros(int(keys.max()) - kmin + 1, dtype=np.int64)
                counts[keys - kmin] = [int(num) for num in buckets.values()]
                sketch.add_bucket_counts(kmin, counts)
            series._sketches[int(index)] = sketch
        if series._sketches:
            series._evict(series._sketches, max(series._sketches))
        return series


def _key_span(keys: np.ndarray) -> int:
    return int(keys.max()) - int(keys.min()) + 1


def _copy_sketch(sketch: "QuantileSketch") -> "QuantileSketch":
    clone = _make_sketch(sketch.relative_error)
    clone.merge(sketch)
    return clone


@dataclass(frozen=True)
class WindowStats:
    """One rendered row of a monitor's timeline."""

    index: int
    start: float
    end: float
    completed: int
    shed: int
    kills: int
    p50: float | None
    p99: float | None
    mean_latency: float | None
    peak_latency: float | None

    @property
    def rps(self) -> float:
        return self.completed / (self.end - self.start)

    @property
    def availability(self) -> float:
        """Fraction of this window's outcomes that were completions."""
        outcomes = self.completed + self.shed
        if outcomes == 0:
            return 1.0
        return self.completed / outcomes

    @property
    def shed_rate(self) -> float:
        outcomes = self.completed + self.shed
        if outcomes == 0:
            return 0.0
        return self.shed / outcomes

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "completed": self.completed,
            "shed": self.shed,
            "kills": self.kills,
            "rps": self.rps,
            "p50": self.p50,
            "p99": self.p99,
            "mean_latency": self.mean_latency,
            "peak_latency": self.peak_latency,
            "availability": self.availability,
        }


class ServingMonitor:
    """The windowed-telemetry hook the serving engines feed.

    One monitor watches one serve (or one shard of one): the engines
    call :meth:`observe_chunk` with each flushed chunk's finish times
    and latencies — the *same* chunk boundaries the streaming report
    consumes, after dispatch decisions are final — and the fault
    loop reports sheds and kills by their simulated timestamps.
    Completions land in the window of their **finish** time (telemetry
    reports events when they happen, not when they were requested);
    sheds and kills land at their decision times.

    Monitors merge like streaming reports: always in shard order, counts
    adding and sketches folding bucket-exactly, so a fleet's merged
    timeline is a deterministic function of the shard series.
    """

    def __init__(
        self,
        window_seconds: float,
        *,
        quantile_error: float = 0.01,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
    ):
        self.window_seconds = float(window_seconds)
        self.quantile_error = float(quantile_error)
        self.capacity = int(capacity)
        self.requests = WindowedCounter(window_seconds, capacity)
        self.sheds = WindowedCounter(window_seconds, capacity)
        self.kills = WindowedCounter(window_seconds, capacity)
        self.latency = WindowedHistogram(window_seconds, capacity, quantile_error)
        self.peak_latency = WindowedGauge(window_seconds, capacity)
        self.chunks = 0

    # -- feed ----------------------------------------------------------
    def observe_chunk(
        self,
        finishes: np.ndarray,
        latencies: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> None:
        """Fold one flushed dispatch chunk (arrays align by request);
        the latencies' bucket ``keys`` are derived when absent."""
        finishes = np.asarray(finishes, dtype=np.float64)
        if finishes.size == 0:
            return
        latencies = np.asarray(latencies, dtype=np.float64)
        self.chunks += 1
        # one window-index pass shared by every series of the monitor,
        # and one scatter counting the requests and folding the latencies
        indices = self.requests.indices_of(finishes)
        touched = self.latency.observe_values(
            finishes, latencies, indices=indices, keys=keys, counter=self.requests
        )
        # peak per window from the freshly folded sketches keeps the
        # gauge consistent with the histogram under any chunking
        for index in touched:
            sketch = self.latency.sketch(index)
            if sketch is not None and sketch.count:
                self.peak_latency.observe_max(index, sketch.max)

    def observe_sheds(self, times: np.ndarray) -> None:
        self.sheds.add_times(times)

    def observe_kills(self, times: np.ndarray) -> None:
        self.kills.add_times(times)

    # -- merge ---------------------------------------------------------
    def merge(self, other: "ServingMonitor") -> "ServingMonitor":
        """Fold another shard's monitor into this one (shard order)."""
        if other.window_seconds != self.window_seconds:
            raise ValueError(
                "can only merge monitors with identical window widths"
            )
        if other.quantile_error != self.quantile_error:
            raise ValueError(
                "can only merge monitors with identical quantile errors"
            )
        self.requests.merge(other.requests)
        self.sheds.merge(other.sheds)
        self.kills.merge(other.kills)
        self.latency.merge(other.latency)
        self.peak_latency.merge(other.peak_latency)
        self.chunks += other.chunks
        return self

    # -- read ----------------------------------------------------------
    def window_indices(self) -> list[int]:
        indices = set(self.requests.indices())
        indices.update(self.sheds.indices())
        indices.update(self.kills.indices())
        return sorted(indices)

    def window_stats(self, index: int) -> WindowStats:
        start, end = self.requests.bounds(index)
        sketch = self.latency.sketch(index)
        p50 = p99 = mean = None
        if sketch is not None and sketch.count:
            p50, p99 = sketch.quantiles([50, 99])
            mean = sketch.mean()
        return WindowStats(
            index=index,
            start=start,
            end=end,
            completed=int(self.requests.value(index)),
            shed=int(self.sheds.value(index)),
            kills=int(self.kills.value(index)),
            p50=p50,
            p99=p99,
            mean_latency=mean,
            peak_latency=self.peak_latency.value(index),
        )

    def timeline(self) -> list[WindowStats]:
        """Every populated window, oldest first."""
        return [self.window_stats(index) for index in self.window_indices()]

    # -- (de)serialization ---------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Full-fidelity JSON state (sketch buckets included), so an
        exported monitor can be re-evaluated against any SLO spec."""
        return {
            "window_seconds": self.window_seconds,
            "quantile_error": self.quantile_error,
            "capacity": self.capacity,
            "chunks": self.chunks,
            "requests": self.requests.as_dict(),
            "sheds": self.sheds.as_dict(),
            "kills": self.kills.as_dict(),
            "latency": self.latency.as_dict(),
            "peak_latency": self.peak_latency.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServingMonitor":
        monitor = cls(
            data["window_seconds"],
            quantile_error=data.get("quantile_error", 0.01),
            capacity=data.get("capacity", DEFAULT_WINDOW_CAPACITY),
        )
        monitor.chunks = int(data.get("chunks", 0))
        monitor.requests = WindowedCounter.from_dict(data["requests"])
        monitor.sheds = WindowedCounter.from_dict(data["sheds"])
        monitor.kills = WindowedCounter.from_dict(data["kills"])
        monitor.latency = WindowedHistogram.from_dict(data["latency"])
        monitor.peak_latency = WindowedGauge.from_dict(data["peak_latency"])
        return monitor

    @classmethod
    def for_horizon(
        cls,
        horizon: float,
        windows: int,
        *,
        quantile_error: float = 0.01,
        capacity: int | None = None,
    ) -> "ServingMonitor":
        """A monitor cutting ``horizon`` seconds into ``windows`` slices."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if windows < 1:
            raise ValueError("need at least one window")
        return cls(
            horizon / windows,
            quantile_error=quantile_error,
            capacity=max(capacity or DEFAULT_WINDOW_CAPACITY, 2 * windows),
        )
