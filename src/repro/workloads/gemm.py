"""GEMM shape algebra.

The paper's notation ``MxKxN`` denotes multiplying an ``M x K`` matrix by a
``K x N`` matrix, producing an ``M x N`` result.  :class:`GemmShape` is the
single value type used throughout the library to describe a GEMM problem or
a tile of one, together with the arithmetic (MACs, FLOPs) and data-volume
(bytes per operand) accounting every model in the library needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class GemmShape:
    """An ``M x K x N`` matrix-multiplication problem.

    Immutable and hashable so it can key caches and appear in test
    parameterisations.  Dimensions must be positive integers.
    """

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        for name in ("m", "k", "n"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"GEMM dimension {name} must be a positive int, got {value!r}")

    # ------------------------------------------------------------------
    # Arithmetic accounting
    # ------------------------------------------------------------------
    @property
    def macs(self) -> int:
        """Multiply-accumulate operations required (M*K*N)."""
        return self.m * self.k * self.n

    @property
    def flops(self) -> int:
        """Floating-point (or integer) operations: 2 per MAC (multiply + add)."""
        return 2 * self.macs

    # ------------------------------------------------------------------
    # Data-volume accounting
    # ------------------------------------------------------------------
    def elements_a(self) -> int:
        return self.m * self.k

    def elements_b(self) -> int:
        return self.k * self.n

    def elements_c(self) -> int:
        return self.m * self.n

    def bytes_a(self, element_bytes: int) -> int:
        return self.elements_a() * element_bytes

    def bytes_b(self, element_bytes: int) -> int:
        return self.elements_b() * element_bytes

    def bytes_c(self, element_bytes: int) -> int:
        return self.elements_c() * element_bytes

    def total_io_bytes(self, element_bytes: int) -> int:
        """Minimum off-chip traffic: read A and B once, write C once."""
        return (
            self.bytes_a(element_bytes)
            + self.bytes_b(element_bytes)
            + self.bytes_c(element_bytes)
        )

    def operational_intensity(self, element_bytes: int) -> float:
        """Ops per byte assuming minimal (untiled) traffic.

        Used as the x coordinate of the roofline plot (Fig. 15, red dots).
        """
        return self.flops / self.total_io_bytes(element_bytes)

    # ------------------------------------------------------------------
    # Shape algebra
    # ------------------------------------------------------------------
    def padded_to(self, unit: "GemmShape") -> "GemmShape":
        """Round each dimension up to a multiple of ``unit``.

        Workloads smaller than (or misaligned with) the native size are
        padded before execution (Section IV-A).
        """
        return GemmShape(
            m=_round_up(self.m, unit.m),
            k=_round_up(self.k, unit.k),
            n=_round_up(self.n, unit.n),
        )

    def tile_counts(self, tile: "GemmShape") -> tuple[int, int, int]:
        """How many ``tile``-sized chunks cover this shape (with padding)."""
        return (
            math.ceil(self.m / tile.m),
            math.ceil(self.k / tile.k),
            math.ceil(self.n / tile.n),
        )

    def num_tiles(self, tile: "GemmShape") -> int:
        tm, tk, tn = self.tile_counts(tile)
        return tm * tk * tn

    def is_multiple_of(self, unit: "GemmShape") -> bool:
        return self.m % unit.m == 0 and self.k % unit.k == 0 and self.n % unit.n == 0

    def scaled(self, sm: int, sk: int, sn: int) -> "GemmShape":
        """Multiply each dimension by an integer factor."""
        return GemmShape(self.m * sm, self.k * sk, self.n * sn)

    def padding_waste(self, unit: "GemmShape") -> float:
        """Fraction of MACs wasted on padding when rounded to ``unit``."""
        padded = self.padded_to(unit)
        return 1.0 - self.macs / padded.macs

    @property
    def is_square(self) -> bool:
        return self.m == self.k == self.n

    def aspect(self) -> str:
        """Coarse shape classification used in the single-AIE sweeps.

        Returns one of ``square``, ``tall`` (M dominates), ``fat``
        (K dominates) or ``skinny`` (N dominates); ties resolve in that
        order.
        """
        if self.is_square:
            return "square"
        largest = max(self.m, self.k, self.n)
        if largest == self.m:
            return "tall"
        if largest == self.k:
            return "fat"
        return "skinny"

    def __str__(self) -> str:  # matches the paper's MxKxN notation
        return f"{self.m}x{self.k}x{self.n}"

    @classmethod
    def parse(cls, text: str) -> "GemmShape":
        """Parse the paper's ``MxKxN`` notation, e.g. ``"32x128x32"``."""
        parts = text.lower().split("x")
        if len(parts) != 3:
            raise ValueError(f"expected MxKxN, got {text!r}")
        try:
            return cls(*(int(p) for p in parts))
        except ValueError as error:
            raise ValueError(f"bad MxKxN shape {text!r}: {error}") from None

    @classmethod
    def square(cls, size: int) -> "GemmShape":
        return cls(size, size, size)


def _round_up(value: int, unit: int) -> int:
    return ((value + unit - 1) // unit) * unit
