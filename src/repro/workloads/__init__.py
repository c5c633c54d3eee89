"""Workload definitions: GEMM shape algebra and the paper's DNN shapes."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.gemm": ("GemmShape",),
    "repro.workloads.dnn": ("DNN_WORKLOADS", "DnnWorkload", "workload_by_id"),
})

__all__ = [
    "GemmShape",
    "DNN_WORKLOADS",
    "DnnWorkload",
    "workload_by_id",
]
