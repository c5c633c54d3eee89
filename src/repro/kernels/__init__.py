"""AIE kernel models: precision, programming style and cycle timing."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernels.precision": ("Precision",),
    "repro.kernels.programming": ("KernelStyle", "style_parameters", "StyleParameters"),
    "repro.kernels.kernel_timing": (
        "compute_cycles",
        "stream_cycles",
        "KernelTiming",
        "kernel_timing",
    ),
    "repro.kernels.gemm_kernel": (
        "SingleAieGemmKernel",
        "MemoryVerdict",
        "AIE_DATA_MEMORY_BYTES",
        "NEIGHBOR_MEMORY_BYTES",
        "MAX_DOUBLE_BUFFER_OPERAND_BYTES",
    ),
})

__all__ = [
    "Precision",
    "KernelStyle",
    "StyleParameters",
    "style_parameters",
    "compute_cycles",
    "stream_cycles",
    "KernelTiming",
    "kernel_timing",
    "SingleAieGemmKernel",
    "MemoryVerdict",
    "AIE_DATA_MEMORY_BYTES",
    "NEIGHBOR_MEMORY_BYTES",
    "MAX_DOUBLE_BUFFER_OPERAND_BYTES",
]
