"""Section IV-C: DRAM bandwidth vs design port count (the 20/34 GB/s plateau)."""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult
from repro.hw.dram import DramModel, DramPorts
from repro.hw.noc import NocModel


def dram_ports_study() -> ExperimentResult:
    """Achieved DRAM bandwidth as HLS read/write ports are added."""
    noc = NocModel()
    rows = []
    for reads, writes in ((1, 1), (2, 1), (3, 2), (4, 2), (6, 3), (8, 4)):
        ports = DramPorts(reads, writes)
        dram = DramModel(ports=ports)
        rows.append(
            {
                "ports": str(ports),
                "total_ports": ports.total,
                "achieved_gb_s": round(dram.total_bandwidth() / 1e9, 1),
                "utilization_pct": round(dram.utilization() * 100, 0),
                "noc_lanes_used": noc.lanes_used(ports.total),
            }
        )
    return ExperimentResult(
        experiment_id="dram_ports",
        title="Achieved DRAM bandwidth vs design port count",
        paper_reference="Section IV-C",
        rows=rows,
        notes=[
            "paper: 2r1w -> 20 GB/s, 4r2w -> 34 GB/s, more ports don't help "
            "(34% of the 102.4 GB/s theoretical)",
            "cause: the Vitis NoC compiler packs ports onto virtual channels "
            "of the same vertical lanes; the assignment is not user-steerable",
        ],
    )
