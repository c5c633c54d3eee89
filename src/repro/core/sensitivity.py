"""What-if sensitivity analysis over architecture parameters.

The paper's research questions ask how sensitive performance is to
architecture parameters (#AIEs, #PLIOs, PL memory, DRAM bandwidth).
:class:`SensitivityAnalysis` answers them systematically: perturb one
parameter of a (design, workload) pair, hold everything else, and return
the latency curve — the machinery behind Fig. 14's variation bars,
generalised to any axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

from repro.core.analytical_model import AnalyticalModel, Estimate
from repro.hw.dram import DramPorts
from repro.mapping.charm import CharmDesign
from repro.obs.spans import span
from repro.perf.cache import EvalCache, get_cache
from repro.workloads.gemm import GemmShape


@dataclass(frozen=True)
class SensitivityPoint:
    """One point of a sensitivity curve."""

    parameter: str
    value: object
    estimate: Estimate

    @property
    def seconds(self) -> float:
        return self.estimate.total_seconds

    @property
    def bottleneck(self) -> str:
        return str(self.estimate.bottleneck)


class SensitivityAnalysis:
    """Latency curves under single-parameter perturbations.

    Point order always matches the requested value order; ``cache``
    memoizes the shared base-design sub-results across axes.
    """

    def __init__(
        self,
        design: CharmDesign,
        workload: GemmShape,
        cache: EvalCache | None = None,
    ):
        design.validate()
        self.design = design
        self.workload = workload
        self.cache = get_cache() if cache is None else cache

    def _evaluate(self, parameter: str, value: object, design: CharmDesign) -> SensitivityPoint:
        estimate = AnalyticalModel(design, cache=self.cache).estimate(self.workload)
        return SensitivityPoint(parameter=parameter, value=value, estimate=estimate)

    def _evaluate_axis(
        self, variants: Sequence[tuple[str, object, CharmDesign]]
    ) -> list[SensitivityPoint]:
        """Evaluate one axis's perturbed designs, in request order."""
        with span(
            "sensitivity.axis",
            track="sensitivity",
            parameter=variants[0][0] if variants else "",
            points=len(variants),
        ):
            return [self._evaluate(*variant) for variant in variants]

    # ------------------------------------------------------------------
    def dram_ports(self, setups: Sequence[DramPorts]) -> list[SensitivityPoint]:
        """Vary the DRAM port configuration (the paper's 2r1w vs 4r2w)."""
        return self._evaluate_axis(
            [
                ("dram_ports", str(ports), self.design.with_ports(ports))
                for ports in setups
            ]
        )

    def plio_count(self, counts: Sequence[int]) -> list[SensitivityPoint]:
        """Vary the design's PLIO budget at fixed AIE count."""
        variants = []
        for count in counts:
            config = dataclasses.replace(
                self.design.config, num_plios=count, plio_split_override=None
            )
            variants.append(
                ("plios", count, dataclasses.replace(self.design, config=config))
            )
        return self._evaluate_axis(variants)

    def aie_frequency(self, frequencies_hz: Sequence[float]) -> list[SensitivityPoint]:
        """Vary the AIE clock (e.g. derating for thermal budgets)."""
        variants = []
        for freq in frequencies_hz:
            device = dataclasses.replace(self.design.device, aie_freq_hz=freq)
            variants.append(
                ("aie_freq_hz", freq, dataclasses.replace(self.design, device=device))
            )
        return self._evaluate_axis(variants)

    def pl_memory_fraction(self, fractions: Sequence[float]) -> list[SensitivityPoint]:
        """Vary the usable PL memory fraction (banking/porting pressure)."""
        variants = []
        for fraction in fractions:
            device = dataclasses.replace(self.design.device, pl_usable_fraction=fraction)
            variants.append(
                (
                    "pl_usable_fraction",
                    fraction,
                    dataclasses.replace(self.design, device=device),
                )
            )
        return self._evaluate_axis(variants)

    def dram_channel_bandwidth(self, bandwidths: Sequence[float]) -> list[SensitivityPoint]:
        """Vary raw DDR channel bandwidth (e.g. LPDDR/DDR5 what-ifs).

        Note: the achieved bandwidth is NoC-assignment limited, so this
        axis saturates — exactly the paper's Section IV-C story.
        """
        variants = []
        for bandwidth in bandwidths:
            device = dataclasses.replace(
                self.design.device, dram_channel_bandwidth=bandwidth
            )
            variants.append(
                (
                    "dram_channel_bandwidth",
                    bandwidth,
                    dataclasses.replace(self.design, device=device),
                )
            )
        return self._evaluate_axis(variants)

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, list[SensitivityPoint]]:
        """A default sweep across every supported axis."""
        base_freq = self.design.device.aie_freq_hz
        return MappingProxyType(
            {
                "dram_ports": self.dram_ports([DramPorts(2, 1), DramPorts(4, 2), DramPorts(8, 4)]),
                "plios": self.plio_count(
                    sorted({max(3, self.design.config.num_plios // 2),
                            self.design.config.num_plios,
                            self.design.config.num_plios * 2})
                ),
                "aie_freq_hz": self.aie_frequency([0.5 * base_freq, base_freq, 1.25 * base_freq]),
                "pl_usable_fraction": self.pl_memory_fraction([0.1, 0.2, 0.4]),
            }
        )
