"""CHARM-style GEMM mapping: grouping, tiling, PLIO schemes, configurations."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mapping.grouping": ("AieGrouping", "pack_depth_for"),
    "repro.mapping.configs": (
        "HardwareConfig",
        "ALL_CONFIGS",
        "FP32_CONFIGS",
        "INT8_CONFIGS",
        "config_by_name",
        "configs_for",
    ),
    "repro.mapping.tiling": ("TilePlan", "plan_tiling", "TrafficSummary"),
    "repro.mapping.switching": ("SwitchingKind", "PlioConnection", "serialization_factor"),
    "repro.mapping.plio_schemes": ("PlioScheme", "scheme_sweep", "reference_schemes"),
    "repro.mapping.charm": ("CharmDesign",),
})

__all__ = [
    "AieGrouping",
    "pack_depth_for",
    "HardwareConfig",
    "ALL_CONFIGS",
    "FP32_CONFIGS",
    "INT8_CONFIGS",
    "config_by_name",
    "configs_for",
    "TilePlan",
    "plan_tiling",
    "TrafficSummary",
    "SwitchingKind",
    "PlioConnection",
    "serialization_factor",
    "PlioScheme",
    "scheme_sweep",
    "reference_schemes",
    "CharmDesign",
]
