"""Workload definitions: GEMM shape algebra, DNN shapes, synthetic sweeps."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.gemm": ("GemmShape",),
    "repro.workloads.dnn": ("DNN_WORKLOADS", "DnnWorkload", "workload_by_id"),
    "repro.workloads.synthetic": (
        "square_sweep",
        "shape_sweep",
        "native_multiples",
        "single_aie_sweep",
    ),
})

__all__ = [
    "GemmShape",
    "DNN_WORKLOADS",
    "DnnWorkload",
    "workload_by_id",
    "square_sweep",
    "shape_sweep",
    "native_multiples",
    "single_aie_sweep",
]
