"""Streaming serving structures: SoA traces and O(1)-memory reports.

Serving a million-request trace as one Python object per request, and
sorting every latency on each percentile query, costs hundreds of MB
and seconds of interpreter time for numbers the operator reads off a
dashboard.  This module provides the structures every serving path
uses instead:

* :func:`splitmix_uniforms` — the splitmix-style uniform hash over a
  uint64 index array, bit-identical to the scalar mask-and-shift chain
  it replaced (the integer arithmetic wraps the same way, and the final
  float division is the same float64 operation).
* :class:`SoATrace` / :func:`generate_trace_soa` — the request trace
  every serving path takes, as a structure of arrays: one float64
  arrival and one int shape id per request, 16 bytes instead of a
  ~200-byte object graph — and a generated trace streams through
  :meth:`SoATrace.blocks` without holding even those.
* :class:`QuantileSketch` — a DDSketch-style log-bucketed quantile
  sketch with a *guaranteed relative error bound*: every reported
  quantile is within ``relative_error`` (default 1%) of the exact
  ranked value, using O(log(dynamic range) / relative_error) memory.
* :class:`StreamingServingReport` — running aggregates, per-accelerator
  loads and one latency sketch, folded from the same dispatch blocks
  the exact ``ServingReport`` writes into its columns (both reports
  share one :class:`FaultAccounting`); mirrors its read API with O(1)
  memory in the trace length, the generated trace included (a faulted
  run's fault loop holds the outcome columns of the trace blocks from
  its oldest unresolved request to its cursor, one block unless
  re-attempts are pending from earlier ones).

The error bound, precisely: a value ``v > min_value`` lands in bucket
``ceil(log_gamma(v))`` with ``gamma = (1 + e) / (1 - e)``; the bucket's
representative ``2 * gamma**i / (gamma + 1)`` is within a factor
``gamma`` of both bucket edges, so ``|estimate - v| <= e * v``.  Rank
selection is exact (bucket counts are exact), so the reported quantile
is the true ranked value distorted by at most ``e`` relative — the
property tests assert this against the exact report.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.workloads.gemm import GemmShape

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MUL_SEED = 0x9E3779B97F4A7C15
_MUL_INDEX = 0xBF58476D1CE4E5B9
_MUL_MIX = 0x94D049BB133111EB
#: rows per block at every stage of a serve: trace generation and
#: validation, dispatch, the report sink's fold and block buffer, the
#: fault loop's cursor and the exact report's mean.  A float64 column of
#: a block is 64 KB, so a block's columns and the fold's temporaries
#: stay cache-sized (docs/performance.md has the 4096/8192/16384 sweep)
BLOCK_ROWS = 1 << 13


def derive_seed(seed: int, index: int) -> int:
    """A deterministic 63-bit sub-seed for stream ``index`` of ``seed``.

    Runs the splitmix mixing chain once over ``(seed, index + 1)`` so
    sibling streams (e.g. the points of one load sweep) draw from
    decorrelated uniform sequences while staying fully reproducible —
    the same ``(seed, index)`` always yields the same sub-seed,
    independent of evaluation order or thread count.
    """
    x = (seed * _MUL_SEED + (index + 1) * _MUL_INDEX) & _MASK64
    x ^= x >> 31
    x = (x * _MUL_MIX) & _MASK64
    x ^= x >> 29
    return int(x & 0x7FFFFFFFFFFFFFFF)


def splitmix_uniforms(seed: int, indices: np.ndarray) -> np.ndarray:
    """Splitmix-hashed uniforms in (0, 1), one per integer index.

    ``out[j]`` is a pure function of ``(seed, indices[j])``: the
    multiply/xor/shift chain :func:`derive_seed` runs, over ``(seed *
    0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) mod 2**64``, then
    ``((x & 0xFFFFFFFF) + 1) / (2**32 + 2)`` in float64 — bit-identical
    to evaluating the chain with Python ints one index at a time.

    The chain runs in place on one scratch array: at a million requests
    the naive expression allocates (and page-faults) a fresh 16 MB
    temporary per operator, which costs more than the arithmetic.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = idx * np.uint64(_MUL_INDEX)
        x += np.uint64((seed * _MUL_SEED) & _MASK64)
        x ^= x >> np.uint64(31)
        x *= np.uint64(_MUL_MIX)
        x ^= x >> np.uint64(29)
        x &= np.uint64(0xFFFFFFFF)
    out = x.astype(np.float64)
    out += 1.0
    out /= np.float64(2**32 + 2)
    return out


class SoATrace:
    """A structure-of-arrays request trace.

    ``shapes`` holds the shape mix (one entry per *position* in the mix
    handed to :func:`generate_trace_soa`, duplicates preserved);
    ``shape_ids[j]`` indexes into it for request ``j``; ``arrivals`` is
    the nondecreasing, finite float64 arrival clock.  Request ids are
    implicit: request ``j`` has ``request_id == j``.

    A trace built from arrays is validated here, in
    :data:`BLOCK_ROWS`-request blocks.  A trace from
    :func:`generate_trace_soa` / :func:`generate_trace_shard` is valid
    by construction and holds no arrays: :meth:`blocks` generates it
    block by block (every serving path reads ``BLOCK_ROWS`` blocks, so
    a streaming serve holds one block of it), and the first read of
    ``arrivals`` or ``shape_ids`` materializes both once (bit-identical
    either way: the arrival clock's carry crosses block boundaries).
    """

    def __init__(
        self,
        shapes: Sequence[GemmShape],
        shape_ids: np.ndarray | Sequence[int],
        arrivals: np.ndarray | Sequence[float],
    ) -> None:
        self.shapes = shapes
        self._shape_ids = np.asarray(shape_ids, dtype=np.int64)
        self._arrivals = np.asarray(arrivals, dtype=np.float64)
        #: ``(seed, mean_interarrival, lo, hi, carry)`` of a generated trace
        self._walk: tuple[int, float, int, int, float] | None = None
        if self._shape_ids.shape != self._arrivals.shape or self._arrivals.ndim != 1:
            raise ValueError("shape_ids and arrivals must be equal-length 1-D arrays")
        self._size = int(self._arrivals.size)
        if not self.shapes:
            raise ValueError("need at least one shape")
        if self._size:
            self._validate()

    @classmethod
    def _generated(
        cls, shapes: tuple[GemmShape, ...], walk: tuple[int, float, int, int, float]
    ) -> SoATrace:
        trace = cls.__new__(cls)
        trace.shapes = shapes
        trace._shape_ids = trace._arrivals = None
        trace._walk = walk
        trace._size = walk[3] - walk[2]
        return trace

    def _validate(self) -> None:
        shape_ids, arrivals = self._shape_ids, self._arrivals
        if int(shape_ids.min()) < 0 or int(shape_ids.max()) >= len(self.shapes):
            raise ValueError("shape_ids index outside the shape mix")
        # NaN propagates through min/max, and from a finite first
        # arrival every arrival is finite when every step is: two
        # reductions per block validate the clock without a per-request
        # mask (blocks overlap by one element, so every step is seen)
        lows, highs = [0.0], [0.0]
        for lo in range(0, arrivals.size - 1, BLOCK_ROWS):
            steps = np.diff(arrivals[lo : lo + BLOCK_ROWS + 1])
            lows.append(steps.min())
            highs.append(steps.max())
        low, high = float(np.min(lows)), float(np.max(highs))
        if not (
            math.isfinite(arrivals[0]) and math.isfinite(low) and math.isfinite(high)
        ):
            finite = np.isfinite(arrivals)
            if not finite.all():
                position = int(np.argmin(finite))
                raise ValueError(
                    f"arrivals must be finite: arrivals[{position}] is "
                    f"{arrivals[position]}"
                )
        if low < 0:
            raise ValueError("arrivals must be nondecreasing")

    def _generate(
        self, start: int, stop: int, carry: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Requests ``[start, stop)`` of a generated trace from arrival
        ``carry``: their arrivals, their shape ids and the last arrival."""
        seed, mean_interarrival = self._walk[:2]
        arrivals = np.empty(stop - start)
        shape_ids = np.empty(stop - start, dtype=np.int64)
        carry = _walk_trace(
            seed,
            mean_interarrival,
            start,
            stop,
            carry,
            arrivals,
            shape_ids,
            len(self.shapes),
        )
        return arrivals, shape_ids, carry

    def _materialize(self) -> None:
        _, _, lo, hi, carry = self._walk
        self._arrivals, self._shape_ids, _ = self._generate(lo, hi, carry)

    @property
    def arrivals(self) -> np.ndarray:
        if self._arrivals is None:
            self._materialize()
        return self._arrivals

    @property
    def shape_ids(self) -> np.ndarray:
        if self._shape_ids is None:
            self._materialize()
        return self._shape_ids

    def blocks(self, size: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The trace in order as ``(base, arrivals, shape_ids)`` blocks of
        ``size`` requests (the last may be shorter), ``base`` being the
        first row's position.

        Views of the arrays when the trace holds them; otherwise each
        block is generated on demand from the previous block's last
        arrival, so only one block is ever held.
        """
        if size < 1:
            raise ValueError("block size must be positive")
        if self._arrivals is not None:
            for base in range(0, self._size, size):
                yield (
                    base,
                    self._arrivals[base : base + size],
                    self._shape_ids[base : base + size],
                )
            return
        _, _, lo, hi, carry = self._walk
        for start in range(lo, hi, size):
            arrivals, shape_ids, carry = self._generate(
                start, min(start + size, hi), carry
            )
            yield start - lo, arrivals, shape_ids

    def __len__(self) -> int:
        return self._size


def generate_trace_soa(
    shapes: Sequence[GemmShape],
    num_requests: int,
    mean_interarrival: float,
    seed: int = 0,
) -> SoATrace:
    """An exponential-interarrival request trace over a shape mix.

    Request ``i`` draws its inter-arrival ``-mean_interarrival *
    log(u[2 i])`` and its shape ``shapes[int(u[2 i + 1] * len(shapes))]``
    from the :func:`splitmix_uniforms` stream ``u`` of ``seed``; the
    arrival clock is their left-to-right ``np.cumsum``.  Bit-identical
    to the scalar per-request loop it replaced (``np.log`` per element,
    ``clock +=`` per request), ~50x faster, and generated block by
    block as a consumer reads it: 16 bytes per request only once
    something reads ``arrivals`` or ``shape_ids`` whole.
    """
    return generate_trace_shard(
        shapes, num_requests, mean_interarrival, seed, lo=0, hi=num_requests
    )


# ----------------------------------------------------------------------
# Trace sharding: index-addressable sub-trace generation
# ----------------------------------------------------------------------
# Request ``i`` of a trace draws its inter-arrival from uniform index
# ``2 * i`` and its shape pick from ``2 * i + 1`` — pure functions of
# the index through :func:`splitmix_uniforms` — so any contiguous slice
# ``[lo, hi)`` can be regenerated without touching the rest of the
# trace.  Arrivals are a strictly sequential left fold (``np.cumsum``
# accumulates element by element), so a shard additionally needs the
# fold's carry at its boundary: the last arrival of the previous shard.
# Seeding the first inter-arrival with that carry reproduces the full
# trace's arrivals *bitwise* — IEEE-754 addition is commutative, so
# ``inter[lo] + carry`` is the exact operation the full cumsum performs
# at position ``lo``, and every later element folds identically.
# The same carry cuts every trace into ``BLOCK_ROWS``-request blocks,
# so full traces, shards and shard carries share one O(block)-scratch
# walker, :func:`_walk_trace`.


def shard_bounds(num_requests: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` request ranges splitting a trace evenly.

    The first ``num_requests % shards`` shards take one extra request.
    Never produces an empty shard: the effective shard count is
    ``min(shards, num_requests)``.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if shards < 1:
        raise ValueError("need at least one shard")
    shards = min(shards, num_requests)
    base, extra = divmod(num_requests, shards)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _walk_trace(
    seed: int,
    mean_interarrival: float,
    lo: int,
    hi: int,
    carry: float,
    arrivals: np.ndarray | None = None,
    shape_ids: np.ndarray | None = None,
    num_shapes: int = 0,
) -> float:
    """Walk requests ``[lo, hi)`` block by block from arrival ``carry``,
    filling ``arrivals`` / ``shape_ids`` (indexed from ``lo``) when they
    are given; returns the last arrival, the carry into request ``hi``."""
    for start in range(lo, hi, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, hi)
        index = np.arange(2 * start, 2 * stop, 2, dtype=np.uint64)
        inter = splitmix_uniforms(seed, index)
        np.log(inter, out=inter)
        inter *= -mean_interarrival
        inter[0] += carry  # exact at carry 0.0: every inter-arrival is >= +0.0
        clock = inter if arrivals is None else arrivals[start - lo : stop - lo]
        carry = float(np.cumsum(inter, out=clock)[-1])
        if shape_ids is not None:
            index += np.uint64(1)
            picks = splitmix_uniforms(seed, index)
            picks *= np.float64(num_shapes)
            shape_ids[start - lo : stop - lo] = picks
    return carry


def shard_arrival_offsets(
    num_requests: int,
    mean_interarrival: float,
    seed: int,
    bounds: Sequence[tuple[int, int]],
) -> list[float]:
    """The arrival-clock carry entering each shard of ``bounds``.

    ``offsets[j]`` is the last arrival of shard ``j - 1`` (0.0 for the
    first shard) under the full trace's sequential accumulation.  The
    pass is inherently serial — each shard's carry depends on the
    previous one — but costs one blocked log/cumsum walk over the trace
    that keeps no arrays (~2% of a vectorized serving run), and callers
    cache it per ``(num_requests, mean_interarrival, seed, shards)``.
    """
    if mean_interarrival <= 0:
        raise ValueError("mean inter-arrival must be positive")
    offsets = [0.0]
    for lo, hi in list(bounds)[:-1]:
        offsets.append(_walk_trace(seed, mean_interarrival, lo, hi, offsets[-1]))
    return offsets


def generate_trace_shard(
    shapes: Sequence[GemmShape],
    num_requests: int,
    mean_interarrival: float,
    seed: int = 0,
    *,
    lo: int,
    hi: int,
    arrival_offset: float = 0.0,
) -> SoATrace:
    """Requests ``[lo, hi)`` of ``generate_trace_soa(shapes, num_requests,
    mean_interarrival, seed)``, byte-identical to slicing the full trace.

    ``arrival_offset`` is the carry from :func:`shard_arrival_offsets`
    (the last arrival before ``lo``); with it the shard's arrival array
    equals ``full.arrivals[lo:hi]`` bitwise.  The trace is generated
    lazily (see :class:`SoATrace`): O(hi - lo) work, and O(block) memory
    until something reads the whole arrays.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    if mean_interarrival <= 0:
        raise ValueError("mean inter-arrival must be positive")
    # no draw exceeds log(2**32 + 2) ~ 22.2 mean inter-arrivals, so a
    # finite 23x span keeps every arrival finite
    if not math.isfinite(23.0 * num_requests * mean_interarrival):
        raise ValueError(
            f"mean inter-arrival {mean_interarrival} overflows the arrival "
            f"clock of {num_requests} requests"
        )
    if not shapes:
        raise ValueError("need at least one shape")
    if not 0 <= lo < hi <= num_requests:
        raise ValueError(
            f"shard [{lo}, {hi}) must be a non-empty slice of [0, {num_requests})"
        )
    return SoATrace._generated(
        tuple(shapes), (seed, mean_interarrival, lo, hi, arrival_offset)
    )


class QuantileSketch:
    """Log-bucketed quantile sketch with a relative-error guarantee.

    Values are counted in buckets ``i = ceil(log_gamma(v))`` with
    ``gamma = (1 + relative_error) / (1 - relative_error)``; a reported
    quantile is the exact-rank bucket's representative, which is within
    ``relative_error`` of the true ranked value (see the module
    docstring for the bound).  Memory is one count per bucket between
    the smallest and largest seen: ~2100 buckets span 1e-9 s .. 1e9 s at
    the default 1% error.

    Values at or below ``min_value`` collapse into one underflow bucket
    reported as ``min_value`` — serving latencies are bounded below by
    a service time, far above the default floor.
    """

    def __init__(self, relative_error: float = 0.01, min_value: float = 1e-9):
        if not 0 < relative_error < 1:
            raise ValueError("relative_error must be in (0, 1)")
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        self.relative_error = relative_error
        self.min_value = min_value
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        #: bucket counts, one int64 per key from ``_dense_lo`` on (the
        #: only store: a serve adds a block's counts at a time, and an
        #: array add is cheaper than a per-bucket dict update)
        self._dense = np.zeros(0, dtype=np.int64)
        self._dense_lo = 0
        self._underflow = 0
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = 0.0

    @property
    def _counts(self) -> dict[int, int]:
        """Bucket key -> count over the occupied buckets (a fresh dict
        derived from the dense counts)."""
        dense = self._dense
        occupied = np.flatnonzero(dense)
        return dict(
            zip((occupied + self._dense_lo).tolist(), dense[occupied].tolist())
        )

    def add_bucket_counts(self, kmin: int, counts: np.ndarray) -> None:
        """Count ``counts[i]`` more values in bucket ``kmin + i``.

        Adds only bucket counts; the caller keeps ``count``, the sum and
        the extremes.
        """
        dense, lo = self._dense, self._dense_lo
        hi = kmin + counts.size
        if not dense.size:
            dense, lo = np.zeros(counts.size, dtype=np.int64), kmin
        elif kmin < lo or hi > lo + dense.size:
            grown_lo = min(lo, kmin)
            grown = np.zeros(max(lo + dense.size, hi) - grown_lo, dtype=np.int64)
            grown[lo - grown_lo : lo - grown_lo + dense.size] = dense
            dense, lo = grown, grown_lo
        dense[kmin - lo : hi - lo] += counts
        self._dense, self._dense_lo = dense, lo

    def add(self, value: float) -> None:
        self.add_many(np.asarray([value], dtype=np.float64))

    def add_many(self, values: np.ndarray | Iterable[float]) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return
        if np.any(~np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("sketch values must be finite and non-negative")
        self.count += int(arr.size)
        self._sum += float(arr.sum())
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        small = arr <= self.min_value
        underflow = int(np.count_nonzero(small))
        if underflow:
            self._underflow += underflow
            arr = arr[~small]
        if arr.size:
            keys = np.ceil(np.log(arr) / self._log_gamma).astype(np.int64)
            kmin = int(keys.min())
            self.add_bucket_counts(kmin, np.bincount(keys - kmin))

    def prepare_keys(self, values: np.ndarray) -> np.ndarray | None:
        """Bucket keys for :meth:`add_keyed`, validated once for a block.

        Returns ``None`` when the block contains underflow values (at or
        below ``min_value``) — callers must fall back to
        :meth:`add_many` for such blocks.  The keys are exactly the ones
        :meth:`add_many` would derive (same elementwise ``np.log``), so
        they can be shared by every same-resolution sketch folding any
        subset of the block.
        """
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            return np.empty(0, dtype=np.int64)
        if not np.isfinite(arr).all():
            raise ValueError("sketch values must be finite and non-negative")
        if float(arr.min()) <= self.min_value:
            if np.any(arr < 0):
                raise ValueError("sketch values must be finite and non-negative")
            return None
        keys = np.log(arr)
        keys /= self._log_gamma
        return np.ceil(keys, out=keys).astype(np.int64)

    def add_keyed(self, values: np.ndarray, keys: np.ndarray) -> None:
        """Fold ``values`` whose bucket keys were precomputed.

        ``keys`` must come from a same-resolution sketch's
        :meth:`prepare_keys` over exactly these ``values`` — the bucket
        counts land precisely where :meth:`add_many` would put them, but
        the expensive per-value log is replaced by one shared key array.
        """
        size = int(values.size)
        if not size:
            return
        self.count += size
        self._sum += float(values.sum())
        self._min = min(self._min, float(values.min()))
        self._max = max(self._max, float(values.max()))
        kmin = int(keys.min())
        self.add_bucket_counts(kmin, np.bincount(keys - kmin))

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    @property
    def sum(self) -> float:
        return self._sum

    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("no values recorded")
        return self._sum / self.count

    def quantile(self, percentile: float) -> float:
        return self.quantiles([percentile])[0]

    def quantiles(self, percentiles: Sequence[float]) -> list[float]:
        """Batch quantile query (one bucket walk for all percentiles).

        Rank semantics match ``ServingReport.latency_percentile``: the
        ``min(n, ceil(p / 100 * n))``-th smallest value.
        """
        for percentile in percentiles:
            if not 0 < percentile <= 100:
                raise ValueError("percentile must be in (0, 100]")
        if self.count == 0:
            raise ValueError("no values recorded")
        ranks = [
            min(self.count, math.ceil(percentile / 100 * self.count))
            for percentile in percentiles
        ]
        # the first bucket whose running count reaches a rank (zero
        # buckets never reach it first, so it is an occupied one)
        cumulative = list(accumulate(self._dense.tolist(), initial=self._underflow))
        gamma = self._gamma
        results: list[float] = []
        for rank in ranks:
            if rank <= self._underflow:
                value = self.min_value
            else:
                key = self._dense_lo + bisect_left(cumulative, rank) - 1
                value = 2.0 * gamma**key / (gamma + 1.0)
            # clamping to the observed extremes only moves the estimate
            # toward the true ranked value, so the bound is preserved
            results.append(min(max(value, self._min), self._max))
        return results

    def count_above(self, value: float) -> int:
        """Values recorded in buckets strictly above the one holding ``value``.

        Exact at bucket resolution: every counted value exceeds
        ``value``, and any value in ``value``'s own bucket (within the
        sketch's relative error of it) is excluded.  SLO evaluation uses
        this to turn a latency target into a bad-event count without
        retaining samples.
        """
        if value <= 0:
            raise ValueError("threshold must be positive")
        if value <= self.min_value:
            return int(self._dense.sum())
        key = math.ceil(math.log(value) / self._log_gamma)
        return int(self._dense[max(0, key + 1 - self._dense_lo) :].sum())

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Sorted ``(upper_edge, cumulative_count)`` over occupied buckets.

        The upper edge of bucket ``i`` is ``gamma ** i`` (the underflow
        bucket reports ``min_value``); cumulative counts are exact.
        Prometheus exposition renders these as ``_bucket{le="..."}``
        samples.
        """
        out: list[tuple[float, int]] = []
        cumulative = self._underflow
        if self._underflow:
            out.append((self.min_value, cumulative))
        for key, num in self._counts.items():
            cumulative += num
            out.append((self._gamma**key, cumulative))
        return out

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (same resolution required)."""
        if other._gamma != self._gamma or other.min_value != self.min_value:
            raise ValueError("can only merge sketches with identical resolution")
        if other._dense.size:
            self.add_bucket_counts(other._dense_lo, other._dense)
        self._underflow += other._underflow
        self.count += other.count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self


class FaultAccounting:
    """The fault accounting both serving reports derive from their
    ``count``, ``shed_count``, ``total_retries``, ``kills``,
    ``requeues``, ``fault_events`` and ``downtime``.  The reports differ
    only in the run time downtime is a share of (``_exposure``)."""

    @property
    def _exposure(self) -> float:
        """The run time ``downtime`` is a share of: the makespan."""
        return self.makespan

    def availability(self) -> dict[str, float]:
        """Per-accelerator up-fraction of the run time, in ``[0, 1]``."""
        horizon = self._exposure
        if horizon <= 0:
            return {name: 1.0 for name in self.downtime}
        return {
            name: min(1.0, max(0.0, 1.0 - down / horizon))
            for name, down in self.downtime.items()
        }

    @property
    def request_availability(self) -> float:
        """Completed / offered requests (1.0 when nothing was offered)."""
        total = self.count + self.shed_count
        if total == 0:
            return 1.0
        return self.count / total

    def fault_summary(self) -> dict:
        """The fault-accounting block the CLI and experiments print."""
        return {
            "completed": self.count,
            "shed": self.shed_count,
            "kills": self.kills,
            "retries": self.total_retries,
            "requeues": self.requeues,
            "fault_events": len(self.fault_events),
            "request_availability": self.request_availability,
            "availability": self.availability(),
        }


class StreamingServingReport(FaultAccounting):
    """O(1)-memory serving report: running aggregates + one quantile sketch.

    Mirrors :class:`repro.sim.serving.ServingReport`'s read API
    (``makespan``, ``throughput_rps``, ``mean_latency``,
    ``latency_percentile``, ``latency_percentiles``,
    ``accelerator_load``) without retaining per-request state.  Means,
    counts, loads and the makespan are exact; percentiles carry the
    sketch's ``quantile_error`` relative bound.
    """

    def __init__(
        self,
        accelerator_names: Sequence[str],
        quantile_error: float = 0.01,
    ):
        if not accelerator_names:
            raise ValueError("need at least one accelerator")
        self.accelerator_names = list(accelerator_names)
        self.quantile_error = quantile_error
        self.count = 0
        self._makespan = 0.0
        self._latency_sum = 0.0
        self._queueing_sum = 0.0
        self._latency = QuantileSketch(quantile_error)
        self._loads = {name: 0 for name in self.accelerator_names}
        # fault accounting (zero / empty on fault-free runs)
        self.shed_count = 0
        self.total_retries = 0
        self.kills = 0
        self.requeues = 0
        self.fault_events: list = []
        self.downtime: dict[str, float] = {}
        # fleet accounting (grows through :meth:`merge`)
        self.replicas = 1
        self._merged_horizon = 0.0

    def observe_batch(
        self,
        accelerator_indices: np.ndarray,
        arrivals: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
        latencies: np.ndarray | None = None,
        keys: np.ndarray | None = None,
    ) -> None:
        """Fold one dispatched chunk (index-aligned arrays) into the report.

        ``latencies`` (``finishes - arrivals``) and their bucket ``keys``
        at this report's resolution are derived when absent (the engines'
        sink computes both once per block for the report and monitor).
        The state is bit-identical to a naive ``add_many`` feed, which a
        block with underflow values (no keys) takes.
        """
        accelerator_indices = np.asarray(accelerator_indices)
        arrivals = np.asarray(arrivals, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.float64)
        finishes = np.asarray(finishes, dtype=np.float64)
        if accelerator_indices.size == 0:
            return
        if latencies is None:
            latencies = finishes - arrivals
        if keys is None:
            keys = self._latency.prepare_keys(latencies)
        self.count += int(accelerator_indices.size)
        self._makespan = max(self._makespan, float(finishes.max()))
        self._latency_sum += float(latencies.sum())
        self._queueing_sum += float((starts - arrivals).sum())
        if keys is None:
            # underflow values present: take the validated slow path
            self._latency.add_many(latencies)
        else:
            self._latency.add_keyed(latencies, keys)
        for index, name in enumerate(self.accelerator_names):
            self._loads[name] += int(np.count_nonzero(accelerator_indices == index))

    @property
    def makespan(self) -> float:
        return self._makespan

    @property
    def throughput_rps(self) -> float:
        if self._makespan == 0:
            return 0.0
        return self.count / self._makespan

    def mean_latency(self) -> float:
        if self.count == 0:
            raise ValueError("no completed requests")
        return self._latency_sum / self.count

    def mean_queueing_delay(self) -> float:
        if self.count == 0:
            raise ValueError("no completed requests")
        return self._queueing_sum / self.count

    def latency_percentile(self, percentile: float) -> float:
        return self.latency_percentiles([percentile])[0]

    def latency_percentiles(self, percentiles: Sequence[float]) -> list[float]:
        if self.count == 0:
            raise ValueError("no completed requests")
        return self._latency.quantiles(percentiles)

    def accelerator_load(self) -> dict[str, int]:
        return {name: load for name, load in self._loads.items() if load}

    # -- fault accounting ----------------------------------------------
    def record_fault_metadata(
        self,
        *,
        shed_count: int = 0,
        total_retries: int = 0,
        kills: int = 0,
        requeues: int = 0,
        fault_events: Sequence | None = None,
        downtime: dict[str, float] | None = None,
    ) -> None:
        """Attach a fault run's accounting (mirrors ``ServingReport``)."""
        self.shed_count = shed_count
        self.total_retries = total_retries
        self.kills = kills
        self.requeues = requeues
        self.fault_events = list(fault_events or [])
        self.downtime = dict(downtime or {})

    @property
    def _exposure(self) -> float:
        """The makespan; a merged fleet report's is the *sum* of the
        merged replicas' makespans (fleet-seconds): each replica
        contributes its own exposure and its own downtime, so
        availability is the fleet-wide up time over fleet-wide run
        time."""
        return self._makespan if self.replicas == 1 else self._merged_horizon

    def merge(self, other: "StreamingServingReport") -> "StreamingServingReport":
        """Fold a sibling shard's report into this one (fleet union).

        Both reports must cover the same accelerator names at the same
        ``quantile_error``.  Counts, sums and loads add; the makespan is
        the latest finish across replicas; every sketch merges bucket-
        exactly, so merged percentiles keep the documented relative-
        error bound **with respect to the union of the merged latency
        streams**.  Fault accounting adds too — each replica ran the
        schedule over its own exposure window, so merged downtime /
        availability read as fleet-seconds (see :meth:`availability`).
        Returns ``self`` for chaining.
        """
        if other is self:
            raise ValueError("cannot merge a report into itself")
        if other.quantile_error != self.quantile_error:
            raise ValueError("can only merge reports with identical quantile_error")
        if other.accelerator_names != self.accelerator_names:
            raise ValueError(
                "can only merge reports over the same accelerator names "
                f"({self.accelerator_names} vs {other.accelerator_names})"
            )
        self._merged_horizon = (
            self._merged_horizon if self.replicas > 1 else self._makespan
        ) + (other._merged_horizon if other.replicas > 1 else other._makespan)
        self.replicas += other.replicas
        self.count += other.count
        self._makespan = max(self._makespan, other._makespan)
        self._latency_sum += other._latency_sum
        self._queueing_sum += other._queueing_sum
        self._latency.merge(other._latency)
        for name in self.accelerator_names:
            self._loads[name] += other._loads[name]
        self.shed_count += other.shed_count
        self.total_retries += other.total_retries
        self.kills += other.kills
        self.requeues += other.requeues
        self.fault_events = list(self.fault_events) + list(other.fault_events)
        for name, down in other.downtime.items():
            self.downtime[name] = self.downtime.get(name, 0.0) + down
        return self

    def as_dict(self) -> dict:
        summary = {
            "requests": self.count,
            "makespan": self.makespan,
            "throughput_rps": self.throughput_rps,
            "quantile_error": self.quantile_error,
            "accelerator_load": self.accelerator_load(),
        }
        if self.replicas > 1:
            summary["replicas"] = self.replicas
        if self.fault_events or self.shed_count or self.downtime:
            summary["faults"] = self.fault_summary()
        if self.count:
            p50, p95, p99 = self.latency_percentiles([50, 95, 99])
            summary.update(
                {
                    "mean_latency": self.mean_latency(),
                    "mean_queueing_delay": self.mean_queueing_delay(),
                    "p50": p50,
                    "p95": p95,
                    "p99": p99,
                }
            )
        return summary
