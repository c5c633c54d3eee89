"""The paper's summary-box insights as executable checks.

Each Section V subsection ends in a boxed "Summary on ..." guidance
paragraph.  This module turns every one of them into a predicate
evaluated against the library's models, so `versal-gemm run insights`
audits that the reproduction actually supports the paper's conclusions —
not just its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.analytical_model import AnalyticalModel
from repro.core.roofline import Roofline
from repro.experiments.runner import ExperimentResult
from repro.hw.dram import DramModel, DramPorts
from repro.hw.interconnect import CommScheme, CommTimingModel
from repro.hw.specs import VCK5000
from repro.kernels.gemm_kernel import SingleAieGemmKernel
from repro.kernels.precision import Precision
from repro.kernels.programming import KernelStyle
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import config_by_name
from repro.mapping.plio_schemes import reference_schemes
from repro.workloads.dnn import workload_by_id
from repro.workloads.gemm import GemmShape


@dataclass(frozen=True)
class Insight:
    """One boxed guidance claim from the paper."""

    insight_id: str
    section: str
    statement: str
    check: Callable[[], tuple[bool, str]]


def _check_intrinsics_vs_api() -> tuple[bool, str]:
    def eff(style, shape, precision):
        return SingleAieGemmKernel(shape, precision, style).efficiency()

    fp32_gap = 1 - eff(KernelStyle.API, GemmShape.square(32), Precision.FP32) / eff(
        KernelStyle.INTRINSIC, GemmShape.square(32), Precision.FP32
    )
    int8_gap = 1 - eff(KernelStyle.API, GemmShape.square(64), Precision.INT8) / eff(
        KernelStyle.INTRINSIC, GemmShape.square(64), Precision.INT8
    )
    passed = fp32_gap > 0.3 and int8_gap < 0.15
    return passed, f"FP32 API loss {fp32_gap:.0%}, INT8 API loss {int8_gap:.0%}"


def _check_kernel_scalability() -> tuple[bool, str]:
    efficient = SingleAieGemmKernel(GemmShape(16, 128, 16), Precision.FP32)
    chosen = SingleAieGemmKernel(GemmShape.square(32), Precision.FP32)
    passed = (
        efficient.efficiency() > chosen.efficiency()
        and not efficient.is_scalable()
        and chosen.is_scalable()
    )
    return passed, (
        f"16x128x16 eff {efficient.efficiency():.2f} (not scalable) vs "
        f"32x32x32 eff {chosen.efficiency():.2f} (scalable)"
    )


def _check_cascade_lowest() -> tuple[bool, str]:
    model = CommTimingModel()
    worst_margin = float("inf")
    for precision, kernel, counts in (
        (Precision.FP32, GemmShape.square(32), (16, 384)),
        (Precision.INT8, GemmShape.square(64), (16, 256)),
    ):
        for count in counts:
            for scheme in CommScheme:
                ratio = model.normalized_to_cascade(scheme, precision, kernel, count)
                if ratio is not None:
                    worst_margin = min(worst_margin, ratio)
    return worst_margin >= 1.0, f"lowest competitor ratio {worst_margin:.3f} (cascade = 1.0)"


def _check_max_aies_not_always_best() -> tuple[bool, str]:
    workload = GemmShape(2048, 2048, 2048)
    c5 = AnalyticalModel(CharmDesign(config_by_name("C5"))).estimate(workload)
    c6 = AnalyticalModel(CharmDesign(config_by_name("C6"))).estimate(workload)
    passed = c6.total_seconds >= c5.total_seconds and c6.breakdown.memory_bound
    return passed, (
        f"C5 (256 AIEs) {c5.total_seconds * 1e3:.2f} ms vs "
        f"C6 (384 AIEs) {c6.total_seconds * 1e3:.2f} ms, C6 memory-bound"
    )


def _check_single_buffering_guidance() -> tuple[bool, str]:
    import dataclasses

    workload = GemmShape(2048, 2048, 2048)
    design = CharmDesign(config_by_name("C6"))
    plan = design.tile_plan(workload)
    model = AnalyticalModel(design)
    level = model.dram_level_times(plan)
    # C6: AIE time comparable to DRAM time -> serialising must hurt
    single_plan = dataclasses.replace(plan, double_buffered=False)
    single = AnalyticalModel(design.with_single_buffering()).estimate(
        workload, single_plan
    )
    double = model.estimate(workload, plan)
    passed = (
        single.total_seconds > double.total_seconds
        and level.aie > 0.3 * level.load_inputs
    )
    return passed, (
        f"C6 AIE/DRAM per-tile ratio {level.aie / level.load_inputs:.2f}; "
        f"single buffering {single.total_seconds / double.total_seconds:.2f}x slower"
    )


def _check_plio_diminishing_returns() -> tuple[bool, str]:
    schemes = reference_schemes(config_by_name("C1"))
    cycles = [s.invocation_cycles() for s in schemes]
    plios = [s.total_plios for s in schemes]
    first_gain = (cycles[0] - cycles[1]) / (plios[1] - plios[0])
    last_gain = (cycles[-2] - cycles[-1]) / (plios[-1] - plios[-2])
    utilization_drops = schemes[-1].array_utilization() < schemes[0].array_utilization()
    passed = first_gain > last_gain and utilization_drops
    return passed, (
        f"cycles saved per added PLIO: {first_gain:.0f} (first step) vs "
        f"{last_gain:.0f} (last step); utilization 100% -> "
        f"{schemes[-1].array_utilization():.0%}"
    )


def _check_tiling_makes_dram_bound() -> tuple[bool, str]:
    roofline = Roofline(Precision.INT8)
    config = config_by_name("C11")
    flipped = []
    for workload_id in ("B1", "V1", "L1", "L2"):
        shape = workload_by_id(workload_id).shape
        ideal = roofline.point(workload_id, shape)
        tiled = roofline.tiled_point(workload_id, shape, config)
        flipped.append(ideal.compute_bound and not tiled.compute_bound)
    return all(flipped), f"{sum(flipped)}/4 compute-bound workloads flip to DRAM-bound"


def _check_dram_plateau() -> tuple[bool, str]:
    few = DramModel(ports=DramPorts(2, 1)).total_bandwidth()
    more = DramModel(ports=DramPorts(4, 2)).total_bandwidth()
    many = DramModel(ports=DramPorts(8, 4)).total_bandwidth()
    passed = more > few and abs(many - more) / more < 0.01
    return passed, f"{few / 1e9:.0f} -> {more / 1e9:.0f} -> {many / 1e9:.0f} GB/s"


def _check_store_bound_shapes() -> tuple[bool, str]:
    design = CharmDesign(config_by_name("C6"))
    model = AnalyticalModel(design)
    bottlenecks = {
        wid: str(model.estimate(workload_by_id(wid).shape).bottleneck)
        for wid in ("L3", "L4")
    }
    passed = all(b == "store_c" for b in bottlenecks.values())
    return passed, f"bottlenecks: {bottlenecks}"


def _check_plio_bw_needs_on_chip_fit() -> tuple[bool, str]:
    roofline = Roofline(Precision.INT8)
    ratio = roofline.plio_bandwidth() / roofline.achieved_dram_bandwidth()
    # exploiting the PLIO slope requires the working set in PL memory;
    # Table III workloads exceed it by an order of magnitude
    biggest = max(
        workload_by_id(w).shape.total_io_bytes(1) for w in ("B1", "L1", "L2")
    )
    passed = ratio > 10 and biggest > VCK5000.pl_memory_bytes
    return passed, (
        f"PLIO/DRAM bandwidth ratio {ratio:.0f}x; largest Table III "
        f"working set {biggest / 1e6:.0f} MB vs "
        f"{VCK5000.pl_memory_bytes / 1e6:.0f} MB PL"
    )


INSIGHTS: tuple[Insight, ...] = (
    Insight(
        "intrinsics-vs-api",
        "V-B",
        "Use intrinsics for FP32; the API is near-par for INT8 only",
        _check_intrinsics_vs_api,
    ),
    Insight(
        "kernel-scalability",
        "V-C",
        "The most efficient kernels borrow neighbour memory and don't "
        "scale; pick slightly less efficient, scalable kernels",
        _check_kernel_scalability,
    ),
    Insight(
        "cascade-lowest-latency",
        "V-D",
        "Cascade connections have the lowest AIE-AIE latency everywhere",
        _check_cascade_lowest,
    ),
    Insight(
        "max-aies-not-always-best",
        "V-G",
        "Using the maximum number of AIEs may not improve performance "
        "once DRAM/PLIO bandwidth binds",
        _check_max_aies_not_always_best,
    ),
    Insight(
        "single-buffering-guidance",
        "V-G",
        "Single buffering is advisable only when DRAM-to-PL time "
        "considerably exceeds AIE compute time",
        _check_single_buffering_guidance,
    ),
    Insight(
        "plio-diminishing-returns",
        "V-H",
        "Adding PLIOs yields diminishing returns and strands AIEs",
        _check_plio_diminishing_returns,
    ),
    Insight(
        "tiling-oi-collapse",
        "V-J",
        "Tiling overhead pushes real workloads into the DRAM-bound "
        "region; the 128 TOPS ceiling is unattainable",
        _check_tiling_makes_dram_bound,
    ),
    Insight(
        "dram-port-plateau",
        "IV-C",
        "DRAM bandwidth plateaus at 34 GB/s regardless of port count",
        _check_dram_plateau,
    ),
    Insight(
        "store-bound-projections",
        "V-I",
        "Small-K DNN layers (L3, L4) are bound by the C store",
        _check_store_bound_shapes,
    ),
    Insight(
        "plio-bw-needs-on-chip",
        "V-J",
        "The PLIO bandwidth advantage is only usable when the "
        "application fits in PL memory",
        _check_plio_bw_needs_on_chip_fit,
    ),
)


def insights_audit() -> ExperimentResult:
    """Evaluate every boxed paper insight against the models."""
    rows = []
    for insight in INSIGHTS:
        passed, detail = insight.check()
        rows.append(
            {
                "insight": insight.insight_id,
                "section": insight.section,
                "holds": passed,
                "evidence": detail,
            }
        )
    return ExperimentResult(
        experiment_id="insights",
        title="Paper summary-box insights, audited against the models",
        paper_reference="Section V summary boxes",
        rows=rows,
    )
