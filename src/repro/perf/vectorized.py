"""Vectorized batch evaluation of the analytical model.

The batch drivers (DSE, sweeps, sensitivity, serving prewarm) are
embarrassingly data-parallel: the same Eq. 1 / Eq. 2 closed forms applied
to thousands of ``(design, workload)`` candidates.  The scalar path pays
full Python object overhead per candidate — a :class:`CharmDesign`, an
``AnalyticalModel``, a 16x16 ``plan_tiling`` search and the ``TilePlan``
it returns.  This module evaluates *arrays* of candidates instead:

* :class:`CandidateGrid` — a structure-of-arrays batch: grouping factors
  ``gm/gk/gn``, kernel tile sizes, PLIO allocations, DRAM port
  bandwidths, per-candidate device scalars and workload shapes.
* :func:`batch_estimate` — NumPy array expressions mirroring
  ``AnalyticalModel.estimate`` operation-for-operation: the PL<->AIE
  stream/compute times (Eq. 1), the vectorized DRAM-level tile-plan
  search (the exact ``plan_tiling`` objective and tie-breaks), the
  DRAM<->PL phase times (Eq. 2) and the total latency, plus a
  feasibility mask so infeasible candidates are *counted*, not silently
  dropped.

Faithfulness contract: every arithmetic step replicates the scalar
model's operation order in float64, so batch totals agree with the
scalar ``estimate`` to at least 1e-9 relative (bit-identical in
practice), and the feasibility mask reproduces the scalar
``DesignError``/``ValueError`` outcomes exactly.  The batch drivers keep
their byte-identical guarantees by re-ranking vectorized survivors
through the scalar, cached path (see ``DesignSpaceExplorer.explore``).

The feasibility mask mirrors ``CharmDesign.validate`` (AIE budget, PLIO
budgets, kernel memory rules, cascade pack-depth divisibility) plus
``plan_tiling``'s "no tile plan fits" failure, which is what the scalar
batch drivers swallow as a skipped candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.hw.dram import TRANSFER_LATENCY_SECONDS, DramPorts
from repro.kernels.gemm_kernel import (
    AIE_DATA_MEMORY_BYTES,
    MAX_DOUBLE_BUFFER_OPERAND_BYTES,
    NEIGHBOR_MEMORY_BYTES,
)
from repro.kernels.precision import Precision
from repro.kernels.programming import KernelStyle, style_parameters
from repro.mapping.grouping import pack_depth_for
from repro.workloads.gemm import GemmShape

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports perf)
    from repro.core.analytical_model import Estimate
    from repro.mapping.charm import CharmDesign

#: mirror of ``plan_tiling``'s default PL-tile multiple ceiling
MAX_TILE_MULTIPLE = 16

#: candidates processed per tile-planning chunk: bounds the transient
#: (chunk, 16, 16) grids to well under a MB regardless of batch size
_PLAN_CHUNK = 128


def _int_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


@dataclass
class CandidateGrid:
    """A structure-of-arrays batch of design candidates for evaluation.

    All arrays have one entry per candidate.  The precision and kernel
    programming style are batch-wide (one vectorized pass per precision);
    everything else — grouping, kernel tile size, PLIO split, DRAM port
    bandwidths, device scalars, workload shape — varies per candidate, so
    sensitivity studies that perturb the *device* and serving prewarms
    that vary the *workload* use the same kernel as the DSE.
    """

    precision: Precision
    kernel_style: KernelStyle
    # --- grouping / kernel geometry ---
    gm: np.ndarray
    gk: np.ndarray
    gn: np.ndarray
    km: np.ndarray  # single-AIE kernel tile dimensions
    kk: np.ndarray
    kn: np.ndarray
    # --- PLIO allocation ---
    num_plios: np.ndarray
    plios_a: np.ndarray
    plios_b: np.ndarray
    plios_c: np.ndarray
    # --- workload shape (per candidate: prewarm batches mix shapes) ---
    wm: np.ndarray
    wk: np.ndarray
    wn: np.ndarray
    # --- device / DRAM scalars ---
    device_num_aies: np.ndarray
    usable_plios: np.ndarray
    total_plio_in: np.ndarray
    total_plio_out: np.ndarray
    pl_budget_bytes: np.ndarray
    plio_rate: np.ndarray  # bytes per AIE cycle of one PLIO stream
    datapath_scale: np.ndarray
    aie_freq_hz: np.ndarray
    setup_seconds: np.ndarray
    read_bandwidth: np.ndarray  # DRAM read-port pool, bytes/s
    write_bandwidth: np.ndarray
    # --- design switches ---
    pl_double_buffered: np.ndarray  # bool
    allow_neighbor_kernels: np.ndarray  # bool
    #: candidates whose PLIO split could not even be computed (< 3 PLIOs)
    split_failed: np.ndarray  # bool
    #: original objects, kept when built from designs so results can be
    #: materialized back into scalar ``Estimate`` dataclasses
    designs: list | None = None
    workloads: list[GemmShape] | None = None

    def __len__(self) -> int:
        return int(self.gm.shape[0])

    # ------------------------------------------------------------------
    @property
    def num_aies(self) -> np.ndarray:
        return self.gm * self.gk * self.gn

    @property
    def native_m(self) -> np.ndarray:
        return self.gm * self.km

    @property
    def native_k(self) -> np.ndarray:
        return self.gk * self.kk

    @property
    def native_n(self) -> np.ndarray:
        return self.gn * self.kn

    # ------------------------------------------------------------------
    @classmethod
    def from_designs(
        cls,
        designs: Sequence["CharmDesign"],
        workload: GemmShape | Sequence[GemmShape],
    ) -> "CandidateGrid":
        """Build a grid from scalar design objects.

        ``workload`` is either one shape (DSE, sensitivity) or a
        per-candidate sequence (serving prewarm pairs).  The designs'
        precisions and kernel styles must agree — one vectorized pass
        covers one (precision, style) family.
        """
        if not designs:
            raise ValueError("need at least one candidate design")
        if isinstance(workload, GemmShape):
            workloads = [workload] * len(designs)
        else:
            workloads = list(workload)
            if len(workloads) != len(designs):
                raise ValueError(
                    f"{len(workloads)} workloads for {len(designs)} designs"
                )
        precision = designs[0].precision
        style = designs[0].kernel_style
        for design in designs:
            if design.precision is not precision or design.kernel_style is not style:
                raise ValueError(
                    "a CandidateGrid evaluates one (precision, kernel style) family"
                )
        splits = []
        split_failed = []
        for design in designs:
            try:
                splits.append(design.config.plio_split())
                split_failed.append(False)
            except ValueError:
                splits.append((1, 1, 1))
                split_failed.append(True)
        return cls(
            precision=precision,
            kernel_style=style,
            gm=_int_array([d.config.grouping.gm for d in designs]),
            gk=_int_array([d.config.grouping.gk for d in designs]),
            gn=_int_array([d.config.grouping.gn for d in designs]),
            km=_int_array([d.config.kernel.m for d in designs]),
            kk=_int_array([d.config.kernel.k for d in designs]),
            kn=_int_array([d.config.kernel.n for d in designs]),
            num_plios=_int_array([d.config.num_plios for d in designs]),
            plios_a=_int_array([s[0] for s in splits]),
            plios_b=_int_array([s[1] for s in splits]),
            plios_c=_int_array([s[2] for s in splits]),
            wm=_int_array([w.m for w in workloads]),
            wk=_int_array([w.k for w in workloads]),
            wn=_int_array([w.n for w in workloads]),
            device_num_aies=_int_array([d.device.num_aies for d in designs]),
            usable_plios=_int_array([d.device.usable_plios for d in designs]),
            total_plio_in=_int_array([d.device.total_plio_in for d in designs]),
            total_plio_out=_int_array([d.device.total_plio_out for d in designs]),
            pl_budget_bytes=_int_array([d.device.pl_usable_bytes for d in designs]),
            plio_rate=_float_array(
                [d.device.plio_bytes_per_aie_cycle() for d in designs]
            ),
            datapath_scale=_float_array(
                [
                    d.precision.macs_per_cycle / d.device.macs_per_cycle[d.precision]
                    for d in designs
                ]
            ),
            aie_freq_hz=_float_array([d.device.aie_freq_hz for d in designs]),
            setup_seconds=_float_array([d.device.aie_setup_seconds for d in designs]),
            read_bandwidth=_float_array([d.dram.read_bandwidth() for d in designs]),
            write_bandwidth=_float_array([d.dram.write_bandwidth() for d in designs]),
            pl_double_buffered=np.asarray(
                [d.pl_double_buffered for d in designs], dtype=bool
            ),
            allow_neighbor_kernels=np.asarray(
                [d.allow_neighbor_kernels for d in designs], dtype=bool
            ),
            split_failed=np.asarray(split_failed, dtype=bool),
            designs=list(designs),
            workloads=workloads,
        )

    @classmethod
    def from_arrays(
        cls,
        precision: Precision,
        gm,
        gk,
        gn,
        num_plios,
        workload: GemmShape,
        dram_ports: DramPorts | Sequence[DramPorts] | None = None,
        device=None,
        kernel_style: KernelStyle = KernelStyle.INTRINSIC,
    ) -> "CandidateGrid":
        """Build a grid straight from grouping/PLIO arrays.

        The raw-array entry point for DSE-style axes: the kernel shape
        comes from ``KERNEL_BY_PRECISION``, the PLIO split from the same
        largest-remainder allocation the scalar configs use, and DRAM
        bandwidths from the NoC model.  Candidates that violate a
        hardware budget are kept and masked, mirroring how the scalar
        drivers count them as skipped.
        """
        from repro.hw.dram import IMPROVED_PORTS, DramModel
        from repro.hw.specs import VCK5000
        from repro.mapping.configs import KERNEL_BY_PRECISION, _proportional_split

        device = VCK5000 if device is None else device
        gm, gk, gn = np.broadcast_arrays(_int_array(gm), _int_array(gk), _int_array(gn))
        num_plios = np.broadcast_to(_int_array(num_plios), gm.shape).copy()
        n = gm.shape[0]
        kernel = KERNEL_BY_PRECISION[precision]
        if dram_ports is None:
            ports_list = [IMPROVED_PORTS] * n
        elif isinstance(dram_ports, DramPorts):
            ports_list = [dram_ports] * n
        else:
            ports_list = list(dram_ports)
        read_bw, write_bw = [], []
        for ports in ports_list:
            dram = DramModel(device, ports)
            read_bw.append(dram.read_bandwidth())
            write_bw.append(dram.write_bandwidth())
        native = [
            GemmShape(int(a) * kernel.m, int(b) * kernel.k, int(c) * kernel.n)
            for a, b, c in zip(gm, gk, gn)
        ]
        splits, split_failed = [], []
        for nat, total in zip(native, num_plios):
            try:
                splits.append(_proportional_split(nat, precision, int(total)))
                split_failed.append(False)
            except ValueError:
                splits.append((1, 1, 1))
                split_failed.append(True)
        ones = np.ones(n, dtype=np.int64)
        return cls(
            precision=precision,
            kernel_style=kernel_style,
            gm=gm,
            gk=gk,
            gn=gn,
            km=ones * kernel.m,
            kk=ones * kernel.k,
            kn=ones * kernel.n,
            num_plios=num_plios,
            plios_a=_int_array([s[0] for s in splits]),
            plios_b=_int_array([s[1] for s in splits]),
            plios_c=_int_array([s[2] for s in splits]),
            wm=ones * workload.m,
            wk=ones * workload.k,
            wn=ones * workload.n,
            device_num_aies=ones * device.num_aies,
            usable_plios=ones * device.usable_plios,
            total_plio_in=ones * device.total_plio_in,
            total_plio_out=ones * device.total_plio_out,
            pl_budget_bytes=ones * device.pl_usable_bytes,
            plio_rate=np.full(n, device.plio_bytes_per_aie_cycle()),
            datapath_scale=np.full(
                n, precision.macs_per_cycle / device.macs_per_cycle[precision]
            ),
            aie_freq_hz=np.full(n, device.aie_freq_hz),
            setup_seconds=np.full(n, device.aie_setup_seconds),
            read_bandwidth=_float_array(read_bw),
            write_bandwidth=_float_array(write_bw),
            pl_double_buffered=np.ones(n, dtype=bool),
            allow_neighbor_kernels=np.zeros(n, dtype=bool),
            split_failed=np.asarray(split_failed, dtype=bool),
            designs=None,
            workloads=[workload] * n,
        )


@dataclass
class BatchEstimate:
    """Array outputs of one vectorized batch evaluation.

    Infeasible candidates (``feasible[i] == False``) hold ``inf`` in
    ``total_seconds`` and undefined values in the component arrays; the
    mask is the source of truth, exactly as the scalar drivers treat a
    raised ``DesignError``/``ValueError``.
    """

    grid: CandidateGrid
    feasible: np.ndarray
    #: why a candidate was masked: '' | 'design' | 'tiling'
    design_valid: np.ndarray
    total_seconds: np.ndarray
    multiples: np.ndarray  # (N, 3) chosen PL-tile multiples
    num_dram_tiles: np.ndarray
    dram_tile_counts: np.ndarray  # (N, 3)
    # Eq. 1 components (AIE cycles)
    plio_a: np.ndarray
    plio_b: np.ndarray
    compute: np.ndarray
    plio_c: np.ndarray
    # Eq. 2 components (seconds)
    load_a: np.ndarray
    load_b: np.ndarray
    aie_seconds: np.ndarray
    store_c: np.ndarray

    def __len__(self) -> int:
        return int(self.feasible.shape[0])

    @property
    def num_feasible(self) -> int:
        return int(np.count_nonzero(self.feasible))

    @property
    def num_infeasible(self) -> int:
        return len(self) - self.num_feasible

    # ------------------------------------------------------------------
    def estimate(self, index: int) -> "Estimate":
        """Materialize candidate ``index`` as a scalar :class:`Estimate`.

        Requires the grid to have been built ``from_designs`` (the
        Estimate embeds the design object).  The floats come straight
        from the batch arrays; the dataclass structure (plan, levels,
        breakdown, bottlenecks) is rebuilt exactly as the scalar model
        builds it.
        """
        from repro.core.analytical_model import (
            AieLevelTimes,
            DramLevelTimes,
            Estimate,
        )
        from repro.core.breakdown import ExecutionBreakdown
        from repro.mapping.tiling import TilePlan

        if self.grid.designs is None or self.grid.workloads is None:
            raise ValueError("grid was not built from designs; cannot materialize")
        if not self.feasible[index]:
            raise ValueError(f"candidate {index} is infeasible")
        design = self.grid.designs[index]
        workload = self.grid.workloads[index]
        plan = TilePlan(
            workload=workload,
            native=design.native_size,
            precision=self.grid.precision,
            multiples=tuple(int(x) for x in self.multiples[index]),
            double_buffered=bool(self.grid.pl_double_buffered[index]),
        )
        aie_level = AieLevelTimes(
            plio_a=float(self.plio_a[index]),
            plio_b=float(self.plio_b[index]),
            compute=float(self.compute[index]),
            plio_c=float(self.plio_c[index]),
        )
        dram_level = DramLevelTimes(
            load_a=float(self.load_a[index]),
            load_b=float(self.load_b[index]),
            aie=float(self.aie_seconds[index]),
            store_c=float(self.store_c[index]),
        )
        total = float(self.total_seconds[index])
        num_tiles = int(self.num_dram_tiles[index])
        freq = float(self.grid.aie_freq_hz[index])
        pl_tiles = plan.pl_tiles_per_dram_tile
        compute_seconds = (pl_tiles * aie_level.compute * num_tiles) / freq
        exposed = (aie_level.exposed_fill * num_tiles) / freq
        breakdown = ExecutionBreakdown(
            total_seconds=total,
            load_a_seconds=dram_level.load_a * num_tiles,
            load_b_seconds=dram_level.load_b * num_tiles,
            aie_seconds=dram_level.aie * num_tiles,
            store_c_seconds=dram_level.store_c * num_tiles,
            setup_seconds=float(self.grid.setup_seconds[index]),
            compute_seconds=compute_seconds,
            exposed_plio_seconds=exposed,
            dram_bottleneck=dram_level.bottleneck,
            aie_bottleneck=aie_level.bottleneck,
        )
        return Estimate(
            design=design,
            workload=workload,
            plan=plan,
            aie_level=aie_level,
            dram_level=dram_level,
            total_seconds=total,
            breakdown=breakdown,
        )


# ----------------------------------------------------------------------
# Feasibility masking (mirrors CharmDesign.validate)
# ----------------------------------------------------------------------
def _design_valid_mask(grid: CandidateGrid) -> np.ndarray:
    """Vectorized ``CharmDesign.validate``: True where no budget raises."""
    eb = grid.precision.element_bytes
    ka = grid.km * grid.kk * eb
    kb = grid.kk * grid.kn * eb
    kc = grid.km * grid.kn * eb
    # the kernel is always double buffered at the AIE level
    footprint = 2 * (ka + kb + kc)
    kernel_feasible = (footprint <= AIE_DATA_MEMORY_BYTES + NEIGHBOR_MEMORY_BYTES) & (
        np.maximum(np.maximum(ka, kb), kc) <= MAX_DOUBLE_BUFFER_OPERAND_BYTES
    )
    kernel_scalable = footprint <= AIE_DATA_MEMORY_BYTES
    depth = pack_depth_for(grid.precision)
    pack = np.minimum(grid.gk, depth)
    return (
        (grid.num_aies <= grid.device_num_aies)
        & (grid.num_plios <= grid.usable_plios)
        & ~grid.split_failed
        & (grid.plios_a + grid.plios_b <= grid.total_plio_in)
        & (grid.plios_c <= grid.total_plio_out)
        & kernel_feasible
        & (kernel_scalable | grid.allow_neighbor_kernels)
        & (grid.gk % pack == 0)
    )


# ----------------------------------------------------------------------
# Vectorized tile planning (mirrors mapping.tiling.plan_tiling)
# ----------------------------------------------------------------------
def _plan_tiles(
    grid: CandidateGrid, max_multiple: int = MAX_TILE_MULTIPLE
) -> tuple[np.ndarray, np.ndarray]:
    """Choose PL-tile multiples per candidate; returns (multiples, found).

    Evaluates ``plan_tiling``'s ``(am, an)`` grid per candidate, each
    cell with its best ``ak`` in closed form (the reduction in
    :mod:`repro.mapping.tiling`), under the exact scalar objective —
    total DRAM traffic, tile count as tie-breaker, the smallest
    ``(am, ak, an)`` winning further ties — and masks candidates for
    which no plan fits the PL memory (the scalar ``ValueError``).
    """
    n = len(grid)
    nm, nk, nn = grid.native_m, grid.native_k, grid.native_n
    # padded dimensions in native tiles
    um = -(-grid.wm // nm)
    uk = -(-grid.wk // nk)
    un = -(-grid.wn // nn)
    lim_m = np.minimum(max_multiple, um)
    lim_k = np.minimum(max_multiple, uk)
    lim_n = np.minimum(max_multiple, un)
    lm = int(lim_m.max(initial=1))
    ln = int(lim_n.max(initial=1))
    am = np.arange(1, lm + 1, dtype=np.int64)[None, :, None]
    an = np.arange(1, ln + 1, dtype=np.int64)[None, None, :]
    eb = grid.precision.element_bytes
    factor = np.where(grid.pl_double_buffered, 2, 1).astype(np.int64)
    bytes_a = um * nm * uk * nk * eb
    bytes_b = uk * nk * un * nn * eb
    bytes_c = um * nm * un * nn * eb

    multiples = np.ones((n, 3), dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    for start in range(0, n, _PLAN_CHUNK):
        sl = slice(start, min(start + _PLAN_CHUNK, n))

        def per(v: np.ndarray) -> np.ndarray:
            return v[sl, None, None]

        tile_m = per(nm) * am
        tile_n = per(nn) * an
        spare = per(grid.pl_budget_bytes) - per(factor) * eb * tile_m * tile_n
        ak_max = np.minimum(
            per(lim_k), spare // (per(factor) * eb * (tile_m + tile_n) * per(nk))
        )
        valid = (am <= per(lim_m)) & (an <= per(lim_n)) & (ak_max >= 1)
        tm = -(-per(um) // am)
        tk = -(-per(uk) // np.maximum(ak_max, 1))
        tn = -(-per(un) // an)
        ak = -(-per(uk) // tk)
        score = per(bytes_a) * tn + per(bytes_b) * tm + per(bytes_c)
        tiles = tm * tk * tn

        c = sl.stop - sl.start
        big = np.iinfo(np.int64).max
        score_flat = np.where(valid, score, big).reshape(c, -1)
        best_score = score_flat.min(axis=1, keepdims=True)
        tied = valid.reshape(c, -1) & (score_flat == best_score)
        tiles_flat = np.where(tied, tiles.reshape(c, -1), big)
        tied &= tiles_flat == tiles_flat.min(axis=1, keepdims=True)
        # argmax finds the first tied cell in (am, an) order, which is
        # also the smallest tied (am, ak, an): two tied cells with one am
        # share tm, so equal traffic forces equal tn, equal tiles equal
        # tk, and so the same ak
        first = tied.argmax(axis=1)
        ia, in_ = np.unravel_index(first, (lm, ln))
        multiples[sl, 0] = ia + 1
        multiples[sl, 1] = ak.reshape(c, -1)[np.arange(c), first]
        multiples[sl, 2] = in_ + 1
        found[sl] = valid.reshape(c, -1).any(axis=1)
    return multiples, found


# ----------------------------------------------------------------------
# The batch kernel
# ----------------------------------------------------------------------
def batch_estimate(
    grid: CandidateGrid, max_multiple: int = MAX_TILE_MULTIPLE
) -> BatchEstimate:
    """Evaluate Eqs. 1 and 2 for every candidate in ``grid`` at once.

    Every expression below mirrors one line of the scalar model (noted
    in comments) with identical float64 operation order.
    """
    design_valid = _design_valid_mask(grid)
    multiples, plan_found = _plan_tiles(grid, max_multiple)
    feasible = design_valid & plan_found
    am, ak, an = multiples[:, 0], multiples[:, 1], multiples[:, 2]

    eb = grid.precision.element_bytes
    nm, nk, nn = grid.native_m, grid.native_k, grid.native_n

    # ---- Eq. 1: PL <-> AIE, AIE cycles (AnalyticalModel._compute_aie_level_times)
    rate = grid.plio_rate
    plio_a = (nm * nk * eb) / (grid.plios_a * rate)
    plio_b = (nk * nn * eb) / (grid.plios_b * rate)
    plio_c = (nm * nn * eb) / (grid.plios_c * rate)
    # kernel_timing.compute_cycles: blocks * (K/k_per_cycle + drain) * ii + ramp
    params = style_parameters(grid.kernel_style, grid.precision)
    lanes = grid.precision.lanes
    blocks = -(-(grid.km * grid.kn) // lanes)
    cycles_per_block = grid.kk / grid.precision.k_per_cycle + grid.precision.drain_cycles
    kernel_cycles = blocks * cycles_per_block * params.ii_multiplier + params.ramp_cycles
    compute = grid.datapath_scale * kernel_cycles
    # AieLevelTimes.period / .exposed_fill
    period = np.maximum(np.maximum(np.maximum(plio_a, plio_b), compute), plio_c)
    exposed_fill = plio_a + plio_b + plio_c

    # ---- geometry of the chosen plan (TilePlan properties)
    tile_m, tile_k, tile_n = nm * am, nk * ak, nn * an
    padded_m = ((grid.wm + nm - 1) // nm) * nm
    padded_k = ((grid.wk + nk - 1) // nk) * nk
    padded_n = ((grid.wn + nn - 1) // nn) * nn
    tm = -(-padded_m // tile_m)
    tk = -(-padded_k // tile_k)
    tn = -(-padded_n // tile_n)
    num_dram_tiles = tm * tk * tn
    pl_tiles_per_dram_tile = am * ak * an

    # ---- Eq. 1 total per DRAM tile (aie_cycles_per_dram_tile)
    aie_cycles = pl_tiles_per_dram_tile * period + exposed_fill
    aie_seconds = aie_cycles / grid.aie_freq_hz  # cycles_to_seconds

    # ---- Eq. 2: DRAM <-> PL, seconds (_compute_dram_level_times)
    bytes_a = tile_m * tile_k * eb
    bytes_b = tile_k * tile_n * eb
    bytes_c = tile_m * tile_n * eb
    # DramModel.transfer_seconds: bytes / bw + burst latency
    load_a = bytes_a / grid.read_bandwidth + TRANSFER_LATENCY_SECONDS
    load_b = bytes_b / grid.read_bandwidth + TRANSFER_LATENCY_SECONDS
    store_raw = bytes_c / grid.write_bandwidth + TRANSFER_LATENCY_SECONDS
    store_c = store_raw * (1.0 / tk)  # * plan.c_write_fraction

    # ---- total latency (_compute_estimate)
    load_inputs = load_a + load_b
    steady_db = np.maximum(np.maximum(load_inputs, aie_seconds), store_c)
    steady_sb = np.maximum(load_inputs, store_c) + aie_seconds
    steady = np.where(grid.pl_double_buffered, steady_db, steady_sb)
    traversal = load_inputs + aie_seconds + store_c * tk
    total = traversal + np.maximum(num_dram_tiles - 1, 0) * steady + grid.setup_seconds
    total = np.where(feasible, total, np.inf)

    return BatchEstimate(
        grid=grid,
        feasible=feasible,
        design_valid=design_valid,
        total_seconds=total,
        multiples=multiples,
        num_dram_tiles=num_dram_tiles,
        dram_tile_counts=np.stack([tm, tk, tn], axis=1),
        plio_a=plio_a,
        plio_b=plio_b,
        compute=compute,
        plio_c=plio_c,
        load_a=load_a,
        load_b=load_b,
        aie_seconds=aie_seconds,
        store_c=store_c,
    )


def batch_estimate_designs(
    designs: Sequence["CharmDesign"],
    workload: GemmShape | Sequence[GemmShape],
) -> BatchEstimate:
    """One-call convenience: grid construction plus evaluation."""
    return batch_estimate(CandidateGrid.from_designs(designs, workload))


def rank_feasible(batch: BatchEstimate) -> list[int]:
    """Feasible candidate indices, ranked exactly like the scalar DSE.

    The scalar explorer sorts points by ``(seconds, num_aies,
    num_plios)`` with a stable sort, so full ties keep candidate order;
    ``np.lexsort`` is stable with the same key priority, which makes the
    returned order byte-identical to the serial ranking (the batch totals
    themselves are bit-identical to the scalar ones).
    """
    index = np.flatnonzero(batch.feasible)
    grid = batch.grid
    order = np.lexsort(
        (
            grid.num_plios[index],
            grid.num_aies[index],
            batch.total_seconds[index],
        )
    )
    return [int(i) for i in index[order]]
