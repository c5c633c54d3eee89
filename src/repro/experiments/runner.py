"""Experiment framework: uniform results and a table of drivers.

Each driver function reproduces one of the paper's tables or figures and
returns an :class:`ExperimentResult` whose ``rows`` are the data the
artifact plots/tabulates.  :data:`DRIVERS` maps experiment ids (``fig9``,
``table2``, ...) to ``"module:function"`` names inside this package, so
the CLI and the benchmark harness share one entry point and running one
experiment imports only its own driver module.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.reporting import render_table


@dataclass
class ExperimentResult:
    """Output of one experiment driver."""

    experiment_id: str
    title: str
    paper_reference: str
    rows: list[dict[str, Any]]
    notes: list[str] = field(default_factory=list)
    #: optional named sub-tables (e.g. FP32 vs INT8 panels of one figure)
    panels: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    def render(self) -> str:
        parts = [f"{self.experiment_id}: {self.title}", f"[{self.paper_reference}]"]
        if self.rows:
            parts.append(render_table(self.rows))
        for name, rows in self.panels.items():
            parts.append("")
            parts.append(render_table(rows, title=name))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def column(self, key: str, panel: str | None = None) -> list[Any]:
        rows = self.rows if panel is None else self.panels[panel]
        return [row[key] for row in rows]

    def row_by(self, key: str, value: Any, panel: str | None = None) -> dict[str, Any]:
        rows = self.rows if panel is None else self.panels[panel]
        for row in rows:
            if row.get(key) == value:
                return row
        raise KeyError(f"no row with {key}={value!r}")


ExperimentDriver = Callable[..., ExperimentResult]

#: experiment id -> ``"module:function"`` in :mod:`repro.experiments`
DRIVERS: dict[str, str] = {
    "table1": "tables:table1_platforms",
    "table2": "tables:table2_configs",
    "table3": "tables:table3_workloads",
    "fig5": "single_aie:fig5_api_vs_intrinsic",
    "fig6": "single_aie:fig6_single_aie_fp32",
    "fig7": "single_aie:fig7_single_aie_int8",
    "fig8": "comm_schemes:fig8_comm_schemes",
    "fig9": "scaling:fig9_strong_scaling",
    "fig10": "scaling:fig10_weak_scaling",
    "fig11": "breakdown_analysis:fig11_breakdown",
    "model_accuracy": "breakdown_analysis:model_accuracy",
    "buffering": "breakdown_analysis:buffering_study",
    "fig12": "plio_study:fig12_reference_schemes",
    "fig13": "plio_study:fig13_plio_sensitivity",
    "fig14": "real_workloads:fig14_real_workloads",
    "fig15": "roofline_analysis:fig15_roofline",
    "dram_ports": "dram_ports:dram_ports_study",
    "insights": "insights:insights_audit",
    "questions": "research_questions:research_question_index",
    "ext_fusion": "extensions:ext_fusion",
    "ext_fragmentation": "extensions:ext_fragmentation",
    "ext_sensitivity": "extensions:ext_sensitivity",
    "ext_multi_acc": "extensions:ext_multi_acc",
    "ext_consistency": "extensions:ext_consistency",
    "ext_serving": "extensions:ext_serving",
    "ext_decode": "extensions:ext_decode",
    "ext_faults": "extensions:ext_faults",
    "ext_chaos": "extensions:ext_chaos",
    "ext_energy": "extensions:ext_energy",
}


def resolve_driver(experiment_id: str) -> ExperimentDriver:
    """Import the driver of ``experiment_id`` (its module only)."""
    try:
        target = DRIVERS[experiment_id.lower()]
    except KeyError:
        known = ", ".join(sorted(DRIVERS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    module, _, function = target.partition(":")
    return getattr(importlib.import_module(f"{__package__}.{module}"), function)


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment's driver."""
    return resolve_driver(experiment_id)()


def available_experiments() -> list[str]:
    return sorted(DRIVERS)
