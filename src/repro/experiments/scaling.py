"""Figs. 9 and 10: strong and weak scaling over the Table II configs."""

from __future__ import annotations

from repro.core.efficiency import array_efficiency
from repro.experiments.runner import ExperimentResult
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import FP32_CONFIGS, INT8_CONFIGS, HardwareConfig
from repro.sim.hwsim import HwSimulator
from repro.workloads.gemm import GemmShape

STRONG_SCALING_WORKLOAD = GemmShape(4096, 4096, 4096)


def _strong_row(config: HardwareConfig, workload: GemmShape) -> dict:
    design = CharmDesign(config)
    run = HwSimulator(design).run(workload)
    return {
        "configuration": config.name,
        "aies": config.num_aies,
        "seconds": run.total_seconds,
        "ms": round(run.total_seconds * 1e3, 3),
        "tops": round(run.throughput_ops / 1e12, 3),
        "efficiency": round(
            array_efficiency(
                workload, config.precision, run.total_seconds, config.num_aies
            ),
            3,
        ),
        "bottleneck": str(run.bottleneck),
    }


def fig9_strong_scaling() -> ExperimentResult:
    """Strong scaling: fixed 4096^3 workload, growing AIE counts."""
    panels = {
        "FP32": [_strong_row(c, STRONG_SCALING_WORKLOAD) for c in FP32_CONFIGS],
        "INT8": [_strong_row(c, STRONG_SCALING_WORKLOAD) for c in INT8_CONFIGS],
    }
    return ExperimentResult(
        experiment_id="fig9",
        title=f"Strong scaling, workload {STRONG_SCALING_WORKLOAD}",
        paper_reference="Fig. 9 / Section V-E",
        rows=[],
        panels=panels,
        notes=[
            "latency drops steeply while the configs are compute-bound and "
            "flattens once DRAM binds (memory-bound tail)",
        ],
    )


def fig10_weak_scaling() -> ExperimentResult:
    """Weak scaling: each config runs its own native size."""
    panels = {}
    for label, configs in (("FP32", FP32_CONFIGS), ("INT8", INT8_CONFIGS)):
        rows = []
        for config in configs:
            design = CharmDesign(config)
            run = HwSimulator(design).run(config.native_size)
            rows.append(
                {
                    "configuration": config.name,
                    "aies": config.num_aies,
                    "native_size": str(config.native_size),
                    "us": round(run.total_seconds * 1e6, 1),
                    "io_bytes": config.native_size.total_io_bytes(
                        config.precision.element_bytes
                    ),
                }
            )
        base = rows[0]["us"]
        for row in rows:
            row["vs_smallest"] = round(row["us"] / base, 2)
        panels[label] = rows
    return ExperimentResult(
        experiment_id="fig10",
        title="Weak scaling: workload = native size per configuration",
        paper_reference="Fig. 10 / Section V-F",
        rows=[],
        panels=panels,
        notes=[
            "execution time rises with configuration size because memory "
            "transactions grow while per-invocation compute stays constant",
        ],
    )
