"""Single-AIE kernel experiments: Figs. 5, 6 and 7.

Fig. 5 compares intrinsic vs API kernels at the scalable kernel sizes
(32x32x32 FP32, 64x64x64 INT8), including the hardware execution time
the paper prints in pink boxes.  Figs. 6/7 sweep kernel shape and size,
marking kernels that borrow neighbour memory (the dotted bars).
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult
from repro.hw.specs import VCK5000
from repro.kernels.gemm_kernel import SingleAieGemmKernel
from repro.kernels.precision import Precision
from repro.kernels.programming import KernelStyle, intrinsic_name
from repro.mapping.configs import HardwareConfig
from repro.mapping.grouping import AieGrouping
from repro.mapping.charm import CharmDesign
from repro.sim.aiesim import simulate_kernel
from repro.sim.hwsim import HwSimulator
from repro.workloads.gemm import GemmShape

#: The sweep shapes of Figs. 6/7: squares plus fat/skinny/tall kernels.
FP32_SWEEP = [
    GemmShape(16, 16, 16),
    GemmShape(32, 32, 32),
    GemmShape(64, 64, 64),
    GemmShape(16, 128, 16),
    GemmShape(32, 128, 32),
    GemmShape(64, 32, 16),
    GemmShape(16, 32, 64),
    GemmShape(128, 16, 32),
]
INT8_SWEEP = [
    GemmShape(32, 32, 32),
    GemmShape(64, 64, 64),
    GemmShape(128, 128, 128),
    GemmShape(32, 256, 32),
    GemmShape(64, 128, 64),
    GemmShape(128, 64, 32),
    GemmShape(32, 64, 128),
    GemmShape(256, 32, 64),
]


def single_aie_config(precision: Precision) -> HardwareConfig:
    """A one-AIE design (3 PLIOs: A, B and C) for Fig. 5's HW runs."""
    kernel = {
        Precision.FP32: GemmShape.square(32),
        Precision.INT8: GemmShape.square(64),
        Precision.INT16: GemmShape.square(64),
    }[precision]
    grouping = AieGrouping(1, 1, 1, kernel, precision)
    return HardwareConfig(f"single-{precision}", grouping, num_plios=3)


def _kernel_row(kernel: SingleAieGemmKernel, device=VCK5000) -> dict:
    # enough invocations that the pipeline fill/drain does not dilute the
    # steady-state efficiency the paper reports
    report = simulate_kernel(kernel, invocations=64)
    timing = kernel.timing()
    return {
        "shape": str(kernel.shape),
        "precision": str(kernel.precision),
        "style": str(kernel.style),
        "efficiency": round(report.efficiency, 3),
        "compute_cycles": round(timing.compute, 1),
        "read_cycles": round(max(timing.read_a, timing.read_b), 1),
        "write_cycles": round(timing.write_c, 1),
        "overlap_cycles": round(timing.overlap_cycles, 1),
        "bound": timing.bound,
        "needs_neighbor_memory": kernel.needs_neighbor_memory(),
        "aiesim_us": round(device.cycles_to_seconds(report.per_invocation) * 1e6, 2),
    }


def fig5_api_vs_intrinsic() -> ExperimentResult:
    """Fig. 5: intrinsic vs API single-AIE kernels."""
    rows = []
    for precision in (Precision.FP32, Precision.INT8):
        config = single_aie_config(precision)
        shape = config.kernel
        for style in (KernelStyle.INTRINSIC, KernelStyle.API):
            kernel = SingleAieGemmKernel(shape, precision, style)
            row = _kernel_row(kernel)
            row["kernel_api"] = (
                intrinsic_name(precision) if style is KernelStyle.INTRINSIC else "aie::mmul"
            )
            design = CharmDesign(config, kernel_style=style)
            hw = HwSimulator(design).run(shape)
            row["hw_us"] = round(hw.total_seconds * 1e6, 1)
            rows.append(row)

    def perf_drop(precision: Precision) -> float:
        intr = next(
            r for r in rows if r["precision"] == str(precision) and r["style"] == "intrinsic"
        )
        api = next(
            r for r in rows if r["precision"] == str(precision) and r["style"] == "api"
        )
        return 1.0 - api["efficiency"] / intr["efficiency"]

    return ExperimentResult(
        experiment_id="fig5",
        title="Single-AIE kernels: intrinsic vs API",
        paper_reference="Fig. 5 / Section V-B",
        rows=rows,
        notes=[
            f"API performance reduction: FP32 {perf_drop(Precision.FP32):.0%} "
            f"(paper: 46%), INT8 {perf_drop(Precision.INT8):.0%} (paper: 7%)",
            "hw_us exceeds aiesim_us because of DRAM transfer time and the "
            "100 us AIE setup, as on the real board",
        ],
    )


def _sweep_result(
    experiment_id: str, precision: Precision, shapes: list[GemmShape], figure: str
) -> ExperimentResult:
    rows = []
    for shape in shapes:
        kernel = SingleAieGemmKernel(shape, precision)
        if not kernel.is_feasible():
            continue
        rows.append(_kernel_row(kernel))
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"Single-AIE kernel efficiency sweep ({precision})",
        paper_reference=figure,
        rows=rows,
        notes=[
            "needs_neighbor_memory marks the dotted bars (not scalable "
            "across the array)",
        ],
    )


def fig6_single_aie_fp32() -> ExperimentResult:
    """Fig. 6: FP32 single-AIE efficiency and breakdown across shapes."""
    return _sweep_result("fig6", Precision.FP32, FP32_SWEEP, "Fig. 6 / Section V-C")


def fig7_single_aie_int8() -> ExperimentResult:
    """Fig. 7: INT8 single-AIE efficiency and breakdown across shapes."""
    return _sweep_result("fig7", Precision.INT8, INT8_SWEEP, "Fig. 7 / Section V-C")
