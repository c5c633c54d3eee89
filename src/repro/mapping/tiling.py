"""Three-level GEMM tiling: DRAM -> PL memory -> AIE memory (Fig. 2).

A workload is padded to a multiple of the configuration's *native size*
(the AIE-level tile).  The PL holds a *PL tile* — an integer multiple
``(am, ak, an)`` of the native size per dimension — which is streamed
native-tile by native-tile into the AIE array.  C partial sums accumulate
in PL across the K dimension, so the canonical loop order is::

    for (m_tile, n_tile) in DRAM tiles of C:
        for k_tile in DRAM tiles of K:
            load A(m_tile, k_tile), B(k_tile, n_tile)   # from DRAM
            stream native tiles through the AIE array    # accumulate C
        write C(m_tile, n_tile)                          # to DRAM

which makes the DRAM traffic:

* A is re-read once per N-direction tile: ``bytes_A * ceil(N / Tn)``
* B is re-read once per M-direction tile: ``bytes_B * ceil(M / Tm)``
* C is written exactly once.

The excess over reading everything once is the *tiling overhead*
(Section IV-A); it is what pushes the Fig. 15 workloads left on the
roofline.  Larger PL tiles reduce it but must fit the usable PL memory,
double-buffered when DRAM-PL double buffering is on.

:func:`plan_tiling` minimises ``(traffic, tile count)`` over the PL-tile
multiples with a 16x16 search over ``(am, an)`` instead of the 16x16x16
one over ``(am, ak, an)``.  The reduction is exact:

* for a fixed ``(am, an)``, DRAM traffic does not depend on ``ak``;
* the footprint grows with ``ak``, so the feasible ``ak`` form a prefix
  ``1..ak_max``;
* the tile count does not rise with ``ak``, so the best ``ak`` is the
  smallest one whose tile count equals that of ``ak_max``.

Candidates compare on ``(traffic, tiles, am, ak, an)``, the trailing
multiples reproducing the full search's first-in-loop-order tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.specs import DeviceSpec, VCK5000
from repro.kernels.precision import Precision
from repro.workloads.gemm import GemmShape


@dataclass(frozen=True)
class TrafficSummary:
    """DRAM traffic of a tile plan, in bytes."""

    read_a: int
    read_b: int
    write_c: int
    minimal: int  # read A and B once, write C once

    @property
    def total(self) -> int:
        return self.read_a + self.read_b + self.write_c

    @property
    def total_reads(self) -> int:
        return self.read_a + self.read_b

    @property
    def tiling_overhead(self) -> float:
        """Ratio of actual to minimal traffic (1.0 = no overhead)."""
        return self.total / self.minimal


@dataclass(frozen=True)
class TilePlan:
    """A complete 3-level tiling decision for one workload."""

    workload: GemmShape
    native: GemmShape
    precision: Precision
    multiples: tuple[int, int, int]  # (am, ak, an): PL tile in native units
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if any(x < 1 for x in self.multiples):
            raise ValueError("PL-tile multiples must be >= 1")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def padded(self) -> GemmShape:
        return self.workload.padded_to(self.native)

    @property
    def pl_tile(self) -> GemmShape:
        am, ak, an = self.multiples
        return self.native.scaled(am, ak, an)

    @property
    def dram_tile_counts(self) -> tuple[int, int, int]:
        return self.padded.tile_counts(self.pl_tile)

    @property
    def num_dram_tiles(self) -> int:
        tm, tk, tn = self.dram_tile_counts
        return tm * tk * tn

    @property
    def pl_tiles_per_dram_tile(self) -> int:
        """Native-size tiles streamed to the AIEs per DRAM tile."""
        am, ak, an = self.multiples
        return am * ak * an

    @property
    def total_native_tiles(self) -> int:
        return self.padded.num_tiles(self.native)

    # ------------------------------------------------------------------
    # PL memory footprint
    # ------------------------------------------------------------------
    def pl_footprint_bytes(self) -> int:
        """PL buffer bytes the plan needs.

        Inputs and the C accumulator are double buffered when DRAM-PL
        double buffering is on (Section IV-A); single buffering halves
        all of them, trading overlap for capacity (Section V-G).
        """
        eb = self.precision.element_bytes
        tile = self.pl_tile
        factor = 2 if self.double_buffered else 1
        inputs = tile.bytes_a(eb) + tile.bytes_b(eb)
        output = tile.bytes_c(eb)
        return factor * (inputs + output)

    def fits(self, device: DeviceSpec = VCK5000, budget_bytes: int | None = None) -> bool:
        """Does the plan fit the usable PL memory?

        The budget is ``device.pl_usable_bytes`` unless ``budget_bytes``
        overrides it (the what-if studies pass the raw
        ``device.pl_memory_bytes``).
        """
        budget = device.pl_usable_bytes if budget_bytes is None else budget_bytes
        return self.pl_footprint_bytes() <= budget

    # ------------------------------------------------------------------
    # DRAM traffic
    # ------------------------------------------------------------------
    def traffic(self) -> TrafficSummary:
        eb = self.precision.element_bytes
        padded = self.padded
        tm, tk, tn = self.dram_tile_counts
        return TrafficSummary(
            read_a=padded.bytes_a(eb) * tn,
            read_b=padded.bytes_b(eb) * tm,
            write_c=padded.bytes_c(eb),
            minimal=padded.total_io_bytes(eb),
        )

    def effective_operational_intensity(self) -> float:
        """Ops per DRAM byte *including* tiling overhead (Fig. 15, green)."""
        return self.workload.flops / self.traffic().total

    # ------------------------------------------------------------------
    # Per-DRAM-tile transfer sizes (inputs of the analytical model)
    # ------------------------------------------------------------------
    def dram_tile_bytes(self) -> tuple[int, int, int]:
        """(A, B, C) bytes moved per DRAM-tile iteration.

        C moves only once per (m, n) tile, i.e. every ``tk``-th
        iteration; the analytical model accounts for that via
        :meth:`c_write_fraction`.
        """
        eb = self.precision.element_bytes
        tile = self.pl_tile
        return tile.bytes_a(eb), tile.bytes_b(eb), tile.bytes_c(eb)

    @property
    def c_write_fraction(self) -> float:
        """Fraction of DRAM-tile iterations that write a C tile back."""
        _, tk, _ = self.dram_tile_counts
        return 1.0 / tk


def plan_tiling(
    workload: GemmShape,
    native: GemmShape,
    precision: Precision,
    device: DeviceSpec = VCK5000,
    double_buffered: bool = True,
    max_multiple: int = 16,
    budget_bytes: int | None = None,
) -> TilePlan:
    """Choose the PL-tile multiples with the least DRAM traffic.

    Minimises total DRAM traffic with the DRAM tile count as the
    tie-breaker (CHARM's DSE objective for memory-bound workloads) over
    multiples up to ``max_multiple`` per dimension whose footprint fits
    the budget (see :meth:`TilePlan.fits`); remaining ties go to the
    lexicographically smallest ``(am, ak, an)``.  Raises if even the
    minimal (1, 1, 1) plan does not fit.
    """
    budget = device.pl_usable_bytes if budget_bytes is None else budget_bytes
    eb = precision.element_bytes
    factor = 2 if double_buffered else 1
    nm, nk, nn = native.m, native.k, native.n
    # padded dimensions in native tiles
    um, uk, un = -(-workload.m // nm), -(-workload.k // nk), -(-workload.n // nn)
    bytes_a = um * nm * uk * nk * eb
    bytes_b = uk * nk * un * nn * eb
    bytes_c = um * nm * un * nn * eb
    lim_k = min(max_multiple, uk)
    best: tuple[int, int, int, int, int] | None = None
    for am in range(1, min(max_multiple, um) + 1):
        tile_m = nm * am
        tm = -(-um // am)
        for an in range(1, min(max_multiple, un) + 1):
            tile_n = nn * an
            # footprint = factor*eb*(tile_m*tile_n + tile_k*(tile_m + tile_n))
            spare = budget - factor * eb * tile_m * tile_n
            ak_max = min(lim_k, spare // (factor * eb * (tile_m + tile_n) * nk))
            if ak_max < 1:
                continue
            tk = -(-uk // ak_max)
            tn = -(-un // an)
            traffic = bytes_a * tn + bytes_b * tm + bytes_c
            key = (traffic, tm * tk * tn, am, -(-uk // tk), an)
            if best is None or key < best:
                best = key
    if best is None:
        minimal = TilePlan(workload, native, precision, (1, 1, 1), double_buffered)
        raise ValueError(
            f"no tile plan fits: native {native} needs "
            f"{minimal.pl_footprint_bytes()} B, budget is {budget} B"
        )
    return TilePlan(workload, native, precision, best[2:], double_buffered)
