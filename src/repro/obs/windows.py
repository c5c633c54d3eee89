"""Time-windowed telemetry over simulated time.

End-of-run reports say *what* a serve did; this module says *when*.
Simulated time is cut into fixed-width windows, and
:class:`ServingMonitor` keeps one store per kind of window data: a
:class:`repro.sim.streaming.QuantileSketch` per window for the
completions' latencies (its ``count`` is the window's completions, its
``max`` the peak latency, and it answers p50/p99 queries under the
sketch's documented relative-error bound), plus per-window shed and
kill counts.  Every populated window is kept, so a timeline or an SLO
verdict covers every event of the run; a window costs ~1-1.6 KB.

The serving engines call ``observe_chunk(finishes, latencies, keys)``
with each block the streaming report folds (the engines' sink computes
its latencies and sketch bucket keys once for both), plus
``observe_sheds`` / ``observe_kills`` from the fault loop.  The monitor
only *reads* the already-decided dispatch results, so attaching one
cannot perturb dispatch decisions — byte-identity of monitored vs.
unmonitored runs is a conformance-tested contract.

Mergeability mirrors :meth:`repro.sim.streaming.StreamingServingReport.merge`:
counts add and window sketches merge bucket-exactly, and shard workers
ship their monitor home for the parent to fold **in shard order** — so
a pooled fleet's merged windows equal the inline reference bit for bit.

This module keeps the package's layering rule: no module-level imports
from ``repro.sim`` — the sketch class is imported lazily, exactly like
:class:`repro.obs.metrics.Histogram` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim -> obs)
    from repro.sim.streaming import QuantileSketch

__all__ = ["ServingMonitor", "WindowStats"]

#: per-chunk dense scatter budget (windows x sketch-key range); chunks
#: that would exceed it fall back to sorted grouping
_DENSE_SCATTER_LIMIT = 4_000_000


def _make_sketch(quantile_error: float) -> "QuantileSketch":
    # imported lazily: repro.sim.__init__ pulls in the serving stack,
    # which imports repro.perf.metrics, which imports repro.obs
    from repro.sim.streaming import QuantileSketch

    return QuantileSketch(quantile_error)


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
    timeline is a deterministic function of the shard monitors.
    """

    def __init__(self, window_seconds: float, *, quantile_error: float = 0.01):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self.quantile_error = float(quantile_error)
        self._latency: dict[int, "QuantileSketch"] = {}
        self._sheds: dict[int, int] = {}
        self._kills: dict[int, int] = {}
        self.chunks = 0

    # -- window math ---------------------------------------------------
    def _indices_of(self, times: np.ndarray) -> np.ndarray:
        """The windows holding simulated ``times``; pre-horizon times
        (carry-over arrivals) clamp into window 0."""
        # astype truncation equals floor for nonnegative quotients, and
        # the clamp makes the negative cases agree too — measurably
        # cheaper than np.floor_divide on dispatch-sized chunks
        idx = (
            np.asarray(times, dtype=np.float64) / self.window_seconds
        ).astype(np.int64)
        return np.maximum(idx, 0, out=idx)

    def bounds(self, index: int) -> tuple[float, float]:
        return index * self.window_seconds, (index + 1) * self.window_seconds

    # -- feed ----------------------------------------------------------
    def _sketch_for(self, index: int) -> "QuantileSketch":
        sketch = self._latency.get(index)
        if sketch is None:
            sketch = self._latency[index] = _make_sketch(self.quantile_error)
        return sketch

    def observe_chunk(
        self,
        finishes: np.ndarray,
        latencies: np.ndarray,
        keys: np.ndarray | None = None,
    ) -> None:
        """Fold one flushed dispatch chunk (arrays align by request);
        the latencies' bucket ``keys`` (from a same-resolution
        ``prepare_keys``) are derived when absent.

        The chunk lands in one dense (window x bucket) scatter, with no
        per-value Python; window min/max are kept at bucket-representative
        resolution, so the windows are independent of fold order and
        chunking.  Underflow values or a scatter over
        ``_DENSE_SCATTER_LIMIT`` cells group the chunk by window through
        one stable sort instead and take the sketches' exact path.
        """
        finishes = np.asarray(finishes, dtype=np.float64)
        if finishes.size == 0:
            return
        latencies = np.asarray(latencies, dtype=np.float64)
        if latencies.shape != finishes.shape:
            raise ValueError("finishes and latencies must align")
        self.chunks += 1
        idx = self._indices_of(finishes)
        base = int(idx.min())
        span = int(idx.max()) - base + 1
        probe = self._sketch_for(base)
        if keys is None:
            keys = probe.prepare_keys(latencies)
        krange = _key_span(keys) if keys is not None else 0
        if keys is None or span * krange > _DENSE_SCATTER_LIMIT:
            order = np.argsort(idx, kind="stable")
            sorted_idx = idx[order]
            sorted_values = latencies[order]
            cuts = np.flatnonzero(np.diff(sorted_idx)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [sorted_idx.size]))
            for lo, hi in zip(starts.tolist(), ends.tolist()):
                index = int(sorted_idx[lo])
                self._sketch_for(index).add_many(sorted_values[lo:hi])
            return
        kmin = int(keys.min())
        offsets = idx - base
        combo = offsets * krange
        combo += keys
        combo -= kmin
        scattered = np.bincount(combo, minlength=span * krange).reshape(
            span, krange
        )
        counts = scattered.sum(axis=1)
        sums = np.bincount(offsets, weights=latencies, minlength=span)
        gamma = probe._gamma
        for offset in np.flatnonzero(counts).tolist():
            sketch = self._sketch_for(base + offset)
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

    def _count(self, store: dict[int, int], times: np.ndarray) -> None:
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0:
            return
        windows, counts = np.unique(self._indices_of(times), return_counts=True)
        for index, count in zip(windows.tolist(), counts.tolist()):
            store[index] = store.get(index, 0) + count

    def observe_sheds(self, times: np.ndarray) -> None:
        self._count(self._sheds, times)

    def observe_kills(self, times: np.ndarray) -> None:
        self._count(self._kills, times)

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
        for index, sketch in other._latency.items():
            self._sketch_for(index).merge(sketch)
        for mine, theirs in ((self._sheds, other._sheds), (self._kills, other._kills)):
            for index, count in theirs.items():
                mine[index] = mine.get(index, 0) + count
        self.chunks += other.chunks
        return self

    # -- read ----------------------------------------------------------
    def sketch(self, index: int) -> "QuantileSketch | None":
        """Window ``index``'s latency sketch, or ``None`` when it saw no
        completion."""
        return self._latency.get(index)

    def completed(self, index: int) -> int:
        sketch = self._latency.get(index)
        return sketch.count if sketch is not None else 0

    def shed(self, index: int) -> int:
        return self._sheds.get(index, 0)

    def kills(self, index: int) -> int:
        return self._kills.get(index, 0)

    def window_indices(self) -> list[int]:
        """Every populated window, oldest first."""
        return sorted(self._latency.keys() | self._sheds.keys() | self._kills.keys())

    def window_stats(self, index: int) -> WindowStats:
        start, end = self.bounds(index)
        sketch = self.sketch(index)
        p50 = p99 = mean = peak = None
        if sketch is not None and sketch.count:
            p50, p99 = sketch.quantiles([50, 99])
            mean = sketch.mean()
            peak = sketch.max
        return WindowStats(
            index=index,
            start=start,
            end=end,
            completed=self.completed(index),
            shed=self.shed(index),
            kills=self.kills(index),
            p50=p50,
            p99=p99,
            mean_latency=mean,
            peak_latency=peak,
        )

    def timeline(self) -> list[WindowStats]:
        """Every populated window, oldest first."""
        return [self.window_stats(index) for index in self.window_indices()]

    # -- (de)serialization ---------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """Full-fidelity JSON state (sketch buckets included), so an
        exported monitor can be re-evaluated against any SLO spec.

        ``requests`` and ``peak_latency`` restate each window sketch's
        ``count`` and ``max`` for readers of the file; :meth:`from_dict`
        ignores them."""
        width = self.window_seconds
        sketches = sorted(self._latency.items())

        def series(values: dict[int, float]) -> dict[str, Any]:
            return {
                "window_seconds": width,
                "values": {str(index): float(value) for index, value in values.items()},
            }

        windows = {
            str(index): {
                "count": sketch.count,
                "sum": sketch.sum,
                "min": sketch.min,
                "max": sketch.max,
                "underflow": sketch._underflow,
                "buckets": {str(key): num for key, num in sorted(sketch._counts.items())},
            }
            for index, sketch in sketches
        }
        return {
            "window_seconds": width,
            "quantile_error": self.quantile_error,
            "chunks": self.chunks,
            "requests": series({index: s.count for index, s in sketches}),
            "sheds": series(dict(sorted(self._sheds.items()))),
            "kills": series(dict(sorted(self._kills.items()))),
            "latency": {
                "window_seconds": width,
                "quantile_error": self.quantile_error,
                "windows": windows,
            },
            "peak_latency": series({index: s.max for index, s in sketches}),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServingMonitor":
        """Rebuild from :meth:`as_dict` (older files' ``capacity`` keys
        are ignored too)."""
        monitor = cls(
            data["window_seconds"],
            quantile_error=data.get("quantile_error", 0.01),
        )
        monitor.chunks = int(data.get("chunks", 0))
        for store, name in ((monitor._sheds, "sheds"), (monitor._kills, "kills")):
            for index, value in data[name].get("values", {}).items():
                store[int(index)] = int(value)
        for index, state in data["latency"].get("windows", {}).items():
            sketch = monitor._sketch_for(int(index))
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
        return monitor

    @classmethod
    def for_horizon(
        cls, horizon: float, windows: int, *, quantile_error: float = 0.01
    ) -> "ServingMonitor":
        """A monitor cutting ``horizon`` seconds into ``windows`` slices."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if windows < 1:
            raise ValueError("need at least one window")
        return cls(horizon / windows, quantile_error=quantile_error)


def _key_span(keys: np.ndarray) -> int:
    return int(keys.max()) - int(keys.min()) + 1
