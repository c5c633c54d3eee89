"""Figs. 12/13: PLIO connectivity schemes and their performance/utilisation."""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult
from repro.hw.specs import VCK5000
from repro.mapping.configs import config_by_name
from repro.mapping.plio_schemes import reference_schemes
from repro.sim.aiesim import simulate_graph


def fig13_plio_sensitivity() -> ExperimentResult:
    """GEMM performance sensitivity to PLIO count, 16-AIE designs."""

    def evaluate(scheme):
        report = simulate_graph(scheme, invocations=8)
        return {
            "plios": scheme.total_plios,
            "split_abc": "{}/{}/{}".format(
                scheme.conn_a.num_plios,
                scheme.conn_b.num_plios,
                scheme.conn_c.num_plios,
            ),
            "cycles_per_tile": round(report.per_invocation, 0),
            "exec_us": round(report.seconds() * 1e6, 2),
            "bottleneck": report.bottleneck,
            "max_replicas": scheme.max_replicas(),
            "array_utilization_pct": round(scheme.array_utilization() * 100, 0),
        }

    panels = {}
    for label, config_name in (("FP32 (C1)", "C1"), ("INT8 (C7)", "C7")):
        config = config_by_name(config_name)
        rows = [evaluate(scheme) for scheme in reference_schemes(config)]
        rows.sort(key=lambda r: r["plios"])
        base, best = rows[0]["cycles_per_tile"], rows[-1]["cycles_per_tile"]
        for row in rows:
            row["speedup_vs_3plio"] = round(base / row["cycles_per_tile"], 2)
        panels[label] = rows
    return ExperimentResult(
        experiment_id="fig13",
        title="PLIO sensitivity and achievable AIE-array utilization (16 AIEs)",
        paper_reference="Figs. 12-13 / Section V-H",
        rows=[],
        panels=panels,
        notes=[
            "paper: 3 -> 36 PLIOs improves FP32 performance 4.63x at the "
            "cost of array utilization dropping from 100% to 28%",
            "7 PLIOs (FP32) and 14 PLIOs (INT8) are the balance points "
            "(Fig. 12(b)/(c))",
        ],
    )


def fig12_reference_schemes() -> ExperimentResult:
    """The four highlighted schemes of Fig. 12 (subset of the Fig. 13 sweep)."""
    config = config_by_name("C1")
    schemes = reference_schemes(config)
    by_plios = {s.total_plios: s for s in schemes}
    highlights = [
        (3, "(a) pure packet switching; the 16th AIE waits 16 time steps"),
        (7, "(b) 2 A + 4 B + 1 C; circuit-broadcast A rows, packet along K"),
        (14, "(c) INT8 counterpart: 8 A + 4 B + 2 C (see the INT8 panel of fig13)"),
        (36, "(d) one PLIO per AIE: full circuit switching, best performance"),
    ]
    rows = []
    int8_schemes = {s.total_plios: s for s in reference_schemes(config_by_name("C7"))}
    for plios, description in highlights:
        scheme = by_plios.get(plios) or int8_schemes.get(plios)
        if scheme is None:
            continue
        report = simulate_graph(scheme, invocations=8)
        rows.append(
            {
                "scheme": description,
                "plios": plios,
                "precision": str(scheme.config.precision),
                "cycles_per_tile": round(report.per_invocation, 0),
                "array_utilization_pct": round(
                    scheme.array_utilization(VCK5000) * 100, 0
                ),
            }
        )
    return ExperimentResult(
        experiment_id="fig12",
        title="Highlighted PLIO connectivity schemes",
        paper_reference="Fig. 12 / Section V-H",
        rows=rows,
    )
