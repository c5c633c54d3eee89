"""Tables I, II and III of the paper, reproduced from the library's data."""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult
from repro.mapping.configs import ALL_CONFIGS
from repro.sim.platforms import PLATFORMS
from repro.workloads.dnn import DNN_WORKLOADS


def table1_platforms() -> ExperimentResult:
    """Table I: Versal execution platforms."""
    rows = [
        {
            "platform": p.name,
            "simulation_target": p.simulation_target,
            "speed": "Fast" if p.fast else "Slow",
            "usecase": p.usecase,
        }
        for p in PLATFORMS
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Versal execution platforms",
        paper_reference="Table I",
        rows=rows,
    )


def table2_configs() -> ExperimentResult:
    """Table II: hardware configurations involving multiple AIEs."""
    rows = [
        {
            "configuration": c.name,
            "precision": str(c.precision).upper(),
            "aies": c.num_aies,
            "native_size": str(c.native_size),
            "plios": c.num_plios,
            "grouping": f"{c.grouping.gm}x{c.grouping.gk}x{c.grouping.gn}",
        }
        for c in ALL_CONFIGS
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Hardware configurations involving multiple AIEs",
        paper_reference="Table II",
        rows=rows,
        notes=[
            "native sizes are derived from the grouping algebra "
            "(gm*Mk x gk*Kk x gn*Nk) and match the published column"
        ],
    )


def table3_workloads() -> ExperimentResult:
    """Table III: selected GEMM workloads from popular DNNs."""
    rows = [
        {
            "workload": w.network,
            "M": w.shape.m,
            "K": w.shape.k,
            "N": w.shape.n,
            "id": w.workload_id,
            "aspect": w.shape.aspect(),
            "gflop": round(w.shape.flops / 1e9, 1),
        }
        for w in DNN_WORKLOADS
    ]
    return ExperimentResult(
        experiment_id="table3",
        title="Selected GEMM workloads from popular DNNs",
        paper_reference="Table III",
        rows=rows,
    )
