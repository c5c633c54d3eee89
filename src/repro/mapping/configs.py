"""Table II: the multi-AIE hardware configurations C1..C11.

Each configuration fixes a precision, an AIE grouping (which determines
the native size), and a PLIO count.  All configurations use the 32x32x32
(FP32) / 64x64x64 (INT8) kernels chosen in Section V-C, cascade AIE-AIE
links (Section V-D), intrinsic kernels (Section V-B) and the 4r2w DDR
port setup (34 GB/s).

PLIO splits between the A, B and C streams are published only for the
16-AIE designs (Fig. 12: C1 = 2/4/1, C7 = 8/4/2); larger configurations
split the Table II total proportionally to per-invocation stream traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.dram import DramPorts, IMPROVED_PORTS
from repro.kernels.precision import Precision
from repro.mapping.config_names import check_config_name
from repro.mapping.grouping import AieGrouping
from repro.workloads.gemm import GemmShape

#: Kernel sizes Section V-C selects for scalability + overlap.  The
#: INT16 kernel (CHARM 2.0's precision) is chosen by the same rules:
#: the largest double-buffered shape that stays within one AIE's 32 KB
#: (2*(A+B+C) = 32 KB exactly) while keeping >90% compute efficiency.
KERNEL_FP32 = GemmShape(32, 32, 32)
KERNEL_INT8 = GemmShape(64, 64, 64)
KERNEL_INT16 = GemmShape(64, 32, 64)
KERNEL_BY_PRECISION = {
    Precision.FP32: KERNEL_FP32,
    Precision.INT8: KERNEL_INT8,
    Precision.INT16: KERNEL_INT16,
}


@dataclass(frozen=True)
class HardwareConfig:
    """One Table II row."""

    name: str
    grouping: AieGrouping
    num_plios: int
    plio_split_override: tuple[int, int, int] | None = None
    dram_ports: DramPorts = IMPROVED_PORTS

    @property
    def precision(self) -> Precision:
        return self.grouping.precision

    @property
    def num_aies(self) -> int:
        return self.grouping.num_aies

    @property
    def native_size(self) -> GemmShape:
        return self.grouping.native_size

    @property
    def kernel(self) -> GemmShape:
        return self.grouping.kernel

    def plio_split(self) -> tuple[int, int, int]:
        """PLIOs assigned to the A, B and C streams (sums to num_plios)."""
        if self.plio_split_override is not None:
            return self.plio_split_override
        return _proportional_split(self.native_size, self.precision, self.num_plios)

    def __str__(self) -> str:
        return (
            f"{self.name}: {self.precision} {self.num_aies} AIEs "
            f"native {self.native_size} plios {self.num_plios}"
        )


def _proportional_split(
    native: GemmShape, precision: Precision, total: int
) -> tuple[int, int, int]:
    """Largest-remainder proportional allocation with a minimum of 1 each."""
    if total < 3:
        raise ValueError("need at least 3 PLIOs (one per stream)")
    eb = precision.element_bytes
    traffic = [native.bytes_a(eb), native.bytes_b(eb), native.bytes_c(eb)]
    weight = sum(traffic)
    raw = [total * t / weight for t in traffic]
    counts = [max(1, int(r)) for r in raw]
    # distribute the remainder to the largest fractional parts
    while sum(counts) < total:
        fractions = [r - c for r, c in zip(raw, counts)]
        counts[fractions.index(max(fractions))] += 1
    while sum(counts) > total:
        candidates = [i for i, c in enumerate(counts) if c > 1]
        fractions = {i: raw[i] - counts[i] for i in candidates}
        counts[min(fractions, key=fractions.get)] -= 1
    return tuple(counts)  # type: ignore[return-value]


def _config(
    name: str,
    precision: Precision,
    gm: int,
    gk: int,
    gn: int,
    num_plios: int,
    split: tuple[int, int, int] | None = None,
) -> HardwareConfig:
    grouping = AieGrouping(gm, gk, gn, KERNEL_BY_PRECISION[precision], precision)
    return HardwareConfig(name, grouping, num_plios, split)


#: Table II, verbatim.  Native sizes are derived from the grouping and
#: asserted against the published column in tests.
ALL_CONFIGS: tuple[HardwareConfig, ...] = (
    _config("C1", Precision.FP32, 1, 4, 4, 7, (2, 4, 1)),
    _config("C2", Precision.FP32, 2, 4, 4, 10),
    _config("C3", Precision.FP32, 4, 4, 4, 20),
    _config("C4", Precision.FP32, 4, 8, 4, 36),
    _config("C5", Precision.FP32, 8, 4, 8, 64),
    _config("C6", Precision.FP32, 12, 4, 8, 96),
    _config("C7", Precision.INT8, 2, 4, 2, 14, (8, 4, 2)),
    _config("C8", Precision.INT8, 2, 4, 4, 20),
    _config("C9", Precision.INT8, 4, 4, 4, 40),
    _config("C10", Precision.INT8, 4, 8, 4, 72),
    _config("C11", Precision.INT8, 4, 8, 8, 112),
)

FP32_CONFIGS = tuple(c for c in ALL_CONFIGS if c.precision is Precision.FP32)
INT8_CONFIGS = tuple(c for c in ALL_CONFIGS if c.precision is Precision.INT8)

#: INT16 extension configurations (CHARM 2.0 adds INT16 support; the
#: paper's Table II covers FP32/INT8 only).  Built with the same
#: grouping rules: packs of 2, kernel 64x32x64.
INT16_CONFIGS: tuple[HardwareConfig, ...] = (
    _config("I1", Precision.INT16, 2, 4, 2, 10),
    _config("I2", Precision.INT16, 4, 4, 4, 28),
    _config("I3", Precision.INT16, 4, 8, 8, 80),
)

_BY_NAME = {c.name.lower(): c for c in ALL_CONFIGS + INT16_CONFIGS}


def config_by_name(name: str) -> HardwareConfig:
    return _BY_NAME[check_config_name(name).lower()]


def configs_for(precision: Precision) -> tuple[HardwareConfig, ...]:
    if precision is Precision.INT16:
        return INT16_CONFIGS
    return tuple(c for c in ALL_CONFIGS if c.precision is precision)
