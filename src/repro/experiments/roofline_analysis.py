"""Fig. 15: the INT8 roofline with Table III workloads."""

from __future__ import annotations

from repro.core.roofline import Roofline
from repro.experiments.runner import ExperimentResult
from repro.kernels.precision import Precision
from repro.mapping.configs import config_by_name
from repro.workloads.dnn import DNN_WORKLOADS


def fig15_roofline() -> ExperimentResult:
    """Roofline ceilings, bandwidth slopes, and workload points."""
    roofline = Roofline(Precision.INT8)
    ceilings = [
        {
            "kind": "ceiling",
            "label": c.label,
            "peak_tops": round(c.peak_ops / 1e12, 2),
            "ridge_oi_dram": round(c.ridge_point(roofline.dram_bandwidth()), 0),
            "ridge_oi_plio": round(c.ridge_point(roofline.plio_bandwidth()), 1),
        }
        for c in roofline.ceilings()
    ]
    points = []
    tiling_config = config_by_name("C11")  # largest INT8 configuration
    for workload in DNN_WORKLOADS:
        ideal = roofline.point(workload.workload_id, workload.shape)
        tiled = roofline.tiled_point(workload.workload_id, workload.shape, tiling_config)
        points.append(
            {
                "workload": workload.workload_id,
                "ideal_oi": round(ideal.operational_intensity, 1),
                "ideal_bound": "compute" if ideal.compute_bound else "dram",
                "ideal_attainable_tops": round(ideal.attainable_ops / 1e12, 1),
                "tiled_oi": round(tiled.operational_intensity, 1),
                "tiled_bound": "compute" if tiled.compute_bound else "dram",
                "tiled_attainable_tops": round(tiled.attainable_ops / 1e12, 1),
            }
        )
    return ExperimentResult(
        experiment_id="fig15",
        title="Roofline (INT8): ceilings per configuration + Table III points",
        paper_reference="Fig. 15 / Section V-J",
        rows=points,
        panels={
            "ceilings": ceilings,
            "bandwidth_lines": [
                {
                    "line": "DRAM (theoretical)",
                    "gb_per_s": round(roofline.dram_bandwidth() / 1e9, 1),
                },
                {
                    "line": "DRAM (achieved, 4r2w)",
                    "gb_per_s": round(roofline.achieved_dram_bandwidth() / 1e9, 1),
                },
                {
                    "line": "PLIO (PL->AIE)",
                    "gb_per_s": round(roofline.plio_bandwidth() / 1e9, 1),
                },
            ],
        },
        notes=[
            "red dots: B1/V1/L1/L2 compute-bound, L3/L4 DRAM-bound (paper)",
            "green circles (with tiling overhead): every workload becomes "
            "DRAM-bound, so the 128 TOPS ceiling is unattainable (paper)",
            "the PLIO bandwidth line sits far above DRAM: it can only be "
            "exploited when the working set fits in PL memory",
        ],
    )
