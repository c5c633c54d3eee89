"""Hardware model of the AMD Versal platform (VCK5000 and AIE-ML)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hw.specs": ("DeviceSpec", "VCK5000", "AIE_ML_DEVICE", "device_by_name"),
    "repro.hw.dram": ("DramModel", "DramPorts"),
    "repro.hw.noc": ("NocModel",),
    "repro.hw.plio": ("PlioDirection", "PlioPort", "PlioAllocator"),
    "repro.hw.aie": ("AieTile",),
    "repro.hw.aie_array": ("AieArray",),
    "repro.hw.interconnect": ("CommScheme", "CommTimingModel", "ChainTiming"),
})

__all__ = [
    "DeviceSpec",
    "VCK5000",
    "AIE_ML_DEVICE",
    "device_by_name",
    "DramModel",
    "DramPorts",
    "NocModel",
    "PlioDirection",
    "PlioPort",
    "PlioAllocator",
    "AieTile",
    "AieArray",
    "CommScheme",
    "CommTimingModel",
    "ChainTiming",
]
