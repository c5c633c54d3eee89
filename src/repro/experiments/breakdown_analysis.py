"""Fig. 11 and Sections V-A/V-G: breakdowns, model accuracy, buffering."""

from __future__ import annotations

import dataclasses

from repro.core.analytical_model import AnalyticalModel
from repro.experiments.runner import ExperimentResult
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import ALL_CONFIGS, config_by_name
from repro.sim.hwsim import HwSimulator
from repro.workloads.gemm import GemmShape

BREAKDOWN_WORKLOAD = GemmShape(2048, 2048, 2048)


def fig11_breakdown() -> ExperimentResult:
    """Execution time + breakdown for 2048^3, model vs simulated HW."""
    rows = []
    for config in ALL_CONFIGS:
        design = CharmDesign(config)
        model = AnalyticalModel(design)
        estimate = model.estimate(BREAKDOWN_WORKLOAD)
        hw = HwSimulator(design).run(BREAKDOWN_WORKLOAD)
        b = estimate.breakdown
        rows.append(
            {
                "configuration": config.name,
                "precision": str(config.precision),
                "model_ms": round(estimate.total_seconds * 1e3, 3),
                "hw_ms": round(hw.total_seconds * 1e3, 3),
                "model_error_pct": round(
                    (estimate.total_seconds - hw.total_seconds) / hw.total_seconds * 100, 1
                ),
                "dram_ms": round(b.dram_seconds * 1e3, 3),
                "aie_ms": round(b.aie_seconds * 1e3, 3),
                "compute_ms": round(b.compute_seconds * 1e3, 3),
                "exposed_plio_ms": round(b.exposed_plio_seconds * 1e3, 3),
                "memory_bound": b.memory_bound,
                "bottleneck": str(estimate.bottleneck),
            }
        )
    return ExperimentResult(
        experiment_id="fig11",
        title=f"Execution breakdown for {BREAKDOWN_WORKLOAD}",
        paper_reference="Fig. 11 / Section V-G",
        rows=rows,
        notes=[
            "the workload turns memory-bound for the large configurations "
            "(right of C4), as the paper observes",
            "model error stays within the paper's +/-5% claim",
        ],
    )


def model_accuracy() -> ExperimentResult:
    """Section V-A: analytical model vs (simulated) hardware, +/-5%."""
    workloads = [
        GemmShape(1024, 1024, 1024),
        GemmShape(2048, 2048, 2048),
        GemmShape(4096, 4096, 4096),
        GemmShape(8192, 512, 1024),
        GemmShape(512, 8192, 1024),
        GemmShape(1024, 2048, 4096),
    ]
    rows = []
    for config in ALL_CONFIGS:
        design = CharmDesign(config)
        sim = HwSimulator(design)
        for workload in workloads:
            run, error = sim.compare_with_model(workload)
            rows.append(
                {
                    "configuration": config.name,
                    "workload": str(workload),
                    "hw_ms": round(run.total_seconds * 1e3, 3),
                    "error_pct": round(error * 100, 2),
                }
            )
    worst = max(abs(r["error_pct"]) for r in rows)
    return ExperimentResult(
        experiment_id="model_accuracy",
        title="Analytical model accuracy vs simulated hardware",
        paper_reference="Section V-A",
        rows=rows,
        notes=[f"worst-case |error| = {worst:.1f}% (paper: within +/-5%)"],
    )


def buffering_study() -> ExperimentResult:
    """Section V-G: PL double vs single buffering on C6 (FP32) and C11
    (INT8).

    Two single-buffering variants are reported: *same tiles* keeps the
    double-buffered tile plan and only serialises (the paper's FP32
    experiment behaves this way: 9.95 -> 14.72 ms), while *re-tiled*
    lets the freed BRAM grow the tiles (the paper's INT8 observation
    that single buffering can reduce tiling overhead: 0.92 -> 0.77 ms).
    """
    rows = []
    for name in ("C6", "C11"):
        design = CharmDesign(config_by_name(name))
        plan_db = design.tile_plan(BREAKDOWN_WORKLOAD)
        double = HwSimulator(design).run(BREAKDOWN_WORKLOAD, plan_db)
        single_design = design.with_single_buffering()
        same_plan = dataclasses.replace(plan_db, double_buffered=False)
        single_same = HwSimulator(single_design).run(BREAKDOWN_WORKLOAD, same_plan)
        single_retiled = HwSimulator(single_design).run(BREAKDOWN_WORKLOAD)
        rows.append(
            {
                "configuration": name,
                "precision": str(design.precision),
                "double_ms": round(double.total_seconds * 1e3, 3),
                "single_same_tiles_ms": round(single_same.total_seconds * 1e3, 3),
                "single_retiled_ms": round(single_retiled.total_seconds * 1e3, 3),
                "same_tiles_ratio": round(
                    single_same.total_seconds / double.total_seconds, 2
                ),
                "retiled_ratio": round(
                    single_retiled.total_seconds / double.total_seconds, 2
                ),
            }
        )
    return ExperimentResult(
        experiment_id="buffering",
        title="PL double vs single buffering",
        paper_reference="Section V-G",
        rows=rows,
        notes=[
            "paper: C6 FP32 9.95 -> 14.72 ms (1.48x, matched by the "
            "same-tiles column); C11 INT8 0.92 -> 0.77 ms (0.84x) — our "
            "re-tiled column recovers most but not all of the "
            "serialisation cost because the double-buffered plan is "
            "already traffic-optimal (see EXPERIMENTS.md)",
            "single buffering helps only when DRAM-to-PL time considerably "
            "exceeds AIE compute time (the paper's guidance)",
        ],
    )
