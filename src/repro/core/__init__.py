"""The paper's primary contribution: the analytical performance model,
execution breakdown, roofline analysis and design-space exploration."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.analytical_model": (
        "AnalyticalModel",
        "Estimate",
        "AieLevelTimes",
        "DramLevelTimes",
    ),
    "repro.core.breakdown": ("Bottleneck", "ExecutionBreakdown"),
    "repro.core.efficiency": ("kernel_efficiency", "array_efficiency", "achieved_ops"),
    "repro.core.roofline": ("Roofline", "RooflinePoint", "RooflineCeiling"),
    "repro.core.dse": ("DesignSpaceExplorer", "DsePoint"),
})

__all__ = [
    "AnalyticalModel",
    "Estimate",
    "AieLevelTimes",
    "DramLevelTimes",
    "Bottleneck",
    "ExecutionBreakdown",
    "kernel_efficiency",
    "array_efficiency",
    "achieved_ops",
    "Roofline",
    "RooflinePoint",
    "RooflineCeiling",
    "DesignSpaceExplorer",
    "DsePoint",
]
