"""Extension experiments beyond the paper's figures.

Each driver supports one claim (EXPERIMENTS.md's ``Claim`` column):

* ``ext_fusion`` — post-op fusion on spare AIEs, Section V-G's summary
  recommendation, as an ablation against PL/DRAM round trips.
* ``ext_fragmentation`` — the tile-size vs padding trade-off that
  Section IV-A leaves as future work (and WideSA's array utilization).
* ``ext_decode`` — the same padding question in its sharpest case,
  LLM decode GEMMs whose M is the batch size.
* ``ext_sensitivity`` — Section IV-B's research question on
  architecture parameters (#AIEs, #PLIOs, PL memory).
* ``ext_multi_acc`` — CHARM composition, the mapping the paper extends
  (Section IV-A); the serving partition is built on it.
* ``ext_consistency`` — the kernel cycle model behind Figs. 5-7,
  checked by issue-level emulation and the aiesimulator stand-in.
* ``ext_energy`` — energy per GEMM across configurations (Papalamprou
  et al.'s energy-aware GEMM on Versal).
* ``ext_serving``, ``ext_faults``, ``ext_chaos`` — the serving
  extension's contract: tail latency vs load, degraded devices, and
  runtime faults.
"""

from __future__ import annotations

from repro.core.energy import EnergyModel
from repro.core.fusion import FusionPlanner, PostOp
from repro.core.multi_acc import AcceleratorPartition, GemmJob, MultiAccScheduler
from repro.core.sensitivity import SensitivityAnalysis
from repro.experiments.runner import ExperimentResult
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import ALL_CONFIGS, config_by_name
from repro.mapping.fragmentation import FragmentationAnalysis
from repro.workloads.dnn import DNN_WORKLOADS
from repro.workloads.gemm import GemmShape

_WORKLOAD = GemmShape(2048, 2048, 2048)


def ext_fusion() -> ExperimentResult:
    """Ablation: post-ops fused onto spare AIEs vs a separate pass."""
    planner = FusionPlanner(CharmDesign(config_by_name("C5")))
    rows = []
    for post_op in PostOp:
        estimate = planner.estimate(post_op, _WORKLOAD)
        rows.append(
            {
                "post_op": str(post_op),
                "spare_aies_used": estimate.spare_aies,
                "unfused_ms": round(estimate.unfused_total * 1e3, 3),
                "fused_ms": round(estimate.fused_total * 1e3, 3),
                "speedup": round(estimate.speedup, 3),
                "dram_bytes_avoided_mb": round(estimate.avoided_dram_bytes / 1e6, 1),
            }
        )
    return ExperimentResult(
        experiment_id="ext_fusion",
        title=f"Post-op fusion on spare AIEs, {_WORKLOAD} on C5",
        paper_reference="Section V-G summary (suggested optimisation)",
        rows=rows,
        notes=[
            "fusing avoids re-reading and re-writing C through DRAM, as the "
            "paper recommends; light post-ops hide entirely under the GEMM"
        ],
    )


def ext_fragmentation() -> ExperimentResult:
    """Tile-size vs padding trade-off for the Table III DNN workloads."""
    analysis = FragmentationAnalysis(Precision.FP32)
    rows = []
    for workload in DNN_WORKLOADS:
        for report in analysis.sweep(workload.shape):
            rows.append(
                {
                    "workload": workload.workload_id,
                    "configuration": report.config.name,
                    "native": str(report.config.native_size),
                    "waste_pct": round(report.waste_fraction * 100, 2),
                    "ms": round(report.seconds * 1e3, 2),
                    "useful_tflops": round(report.useful_throughput_ops / 1e12, 3),
                }
            )
    return ExperimentResult(
        experiment_id="ext_fragmentation",
        title="Padding/fragmentation across configurations (paper future work)",
        paper_reference="Section IV-A (future work)",
        rows=rows,
        notes=[
            "Table III shapes are large, so padding stays small on every "
            "configuration; awkward (non-multiple) small shapes instead "
            "favour smaller native sizes — see mapping/fragmentation.py"
        ],
    )


def ext_sensitivity() -> ExperimentResult:
    """Architecture-parameter sensitivity of C6 on 2048^3."""
    analysis = SensitivityAnalysis(CharmDesign(config_by_name("C6")), _WORKLOAD)
    rows = []
    for axis, points in analysis.summary().items():
        for point in points:
            rows.append(
                {
                    "parameter": axis,
                    "value": point.value,
                    "ms": round(point.seconds * 1e3, 3),
                    "bottleneck": point.bottleneck,
                }
            )
    return ExperimentResult(
        experiment_id="ext_sensitivity",
        title=f"Architecture sensitivity, {_WORKLOAD} on C6",
        paper_reference="Section IV-B research questions (arch. parameters)",
        rows=rows,
    )


def ext_multi_acc() -> ExperimentResult:
    """Composed heterogeneous accelerators vs one serial device (CHARM)."""
    from repro.workloads.transformer import BERT_LARGE

    partition = AcceleratorPartition(
        [config_by_name("C5"), config_by_name("C3"), config_by_name("C1")]
    )
    jobs = [
        GemmJob(g.name, g.shape, count=g.count)
        for g in BERT_LARGE.forward_gemms(tokens=2048)
    ]
    schedule = MultiAccScheduler(partition).schedule(jobs)
    rows = [
        {
            "job": a.job.name,
            "shape": str(a.job.shape),
            "count": a.job.count,
            "accelerator": a.accelerator,
            "total_ms": round(a.total_seconds * 1e3, 2),
        }
        for a in schedule.assignments
    ]
    utilization = schedule.utilization()
    return ExperimentResult(
        experiment_id="ext_multi_acc",
        title="BERT-large forward pass on a composed C5+C3+C1 partition",
        paper_reference="CHARM composition (Section II / IV-A)",
        rows=rows,
        panels={
            "summary": [
                {
                    "makespan_ms": round(schedule.makespan * 1e3, 2),
                    "serial_ms": round(schedule.serial_seconds * 1e3, 2),
                    "speedup_vs_serial": round(schedule.speedup_vs_serial, 2),
                    "dram_sharing_factor": round(schedule.dram_sharing_factor, 2),
                    **{
                        f"util_{name}": round(value, 2)
                        for name, value in utilization.items()
                    },
                }
            ]
        },
        notes=[
            "composing differently-shaped accelerators lets layer GEMMs run "
            "concurrently; the DRAM read pool is the shared resource that "
            "limits the composition (the paper's bandwidth wall)"
        ],
    )


def ext_consistency() -> ExperimentResult:
    """Three-way agreement: emulator vs closed-form model vs aiesimulator.

    The same kernel is timed three independent ways — the issue-accurate
    emulator executes the vector schedule, the closed-form model
    computes it, and the aiesimulator pipeline converges to it in steady
    state.  Disagreement means a modeling bug; this experiment is the
    cross-validation harness.
    """
    from repro.kernels.emulator import AieKernelEmulator
    from repro.kernels.gemm_kernel import SingleAieGemmKernel
    from repro.kernels.kernel_timing import compute_cycles
    from repro.sim.aiesim import simulate_kernel
    from repro.workloads.gemm import GemmShape

    cases = [
        (GemmShape(16, 16, 16), Precision.FP32),
        (GemmShape(32, 32, 32), Precision.FP32),
        (GemmShape(16, 128, 16), Precision.FP32),
        (GemmShape(32, 32, 32), Precision.INT8),
        (GemmShape(64, 64, 64), Precision.INT8),
        (GemmShape(32, 64, 32), Precision.INT16),
    ]
    rows = []
    for shape, precision in cases:
        kernel = SingleAieGemmKernel(shape, precision)
        emulated, reference = AieKernelEmulator(kernel).run_random(seed=0)
        model = compute_cycles(shape, precision)
        report = simulate_kernel(kernel, invocations=256)
        steady = report.per_invocation
        timing_total = kernel.timing().total
        rows.append(
            {
                "kernel": str(shape),
                "precision": str(precision),
                "emulator_cycles": round(emulated.cycles, 1),
                "model_cycles": round(model, 1),
                "aiesim_steady_cycles": round(steady, 1),
                "emulator_vs_model_pct": round((emulated.cycles / model - 1) * 100, 2),
                "aiesim_vs_timing_pct": round((steady / timing_total - 1) * 100, 2),
                "numerics_match": emulated.matches(reference),
            }
        )
    return ExperimentResult(
        experiment_id="ext_consistency",
        title="Cross-validation: emulator vs closed-form vs aiesimulator",
        paper_reference="Figs. 5-7 kernel cycle model, checked by the emulator",
        rows=rows,
        notes=[
            "the aiesim steady state tracks max(compute, streams), not "
            "compute alone, so its column compares against the kernel "
            "timing total",
        ],
    )


def ext_serving() -> ExperimentResult:
    """Tail latency vs offered load for a served GEMM mix."""
    from repro.core.multi_acc import AcceleratorPartition
    from repro.sim.serving import ServingSimulator
    from repro.sim.streaming import generate_trace_soa
    from repro.workloads.gemm import GemmShape

    partition = AcceleratorPartition(
        [config_by_name("C5"), config_by_name("C3"), config_by_name("C1")]
    )
    simulator = ServingSimulator(partition)
    shapes = [GemmShape(1024, 1024, 1024), GemmShape(2048, 1024, 1024),
              GemmShape(512, 2048, 512)]
    rows = []
    for mean_interarrival in (20e-3, 5e-3, 2e-3, 1e-3, 0.5e-3):
        trace = generate_trace_soa(
            shapes, num_requests=120, mean_interarrival=mean_interarrival, seed=11
        )
        report = simulator.run(trace)
        p50, p95, p99 = report.latency_percentiles([50, 95, 99])
        rows.append(
            {
                "offered_rps": round(1.0 / mean_interarrival, 0),
                "achieved_rps": round(report.throughput_rps, 0),
                "p50_ms": round(p50 * 1e3, 2),
                "p95_ms": round(p95 * 1e3, 2),
                "p99_ms": round(p99 * 1e3, 2),
                "busiest_accelerator": max(
                    report.accelerator_load(), key=report.accelerator_load().get
                ),
            }
        )
    return ExperimentResult(
        experiment_id="ext_serving",
        title="Serving a GEMM request mix on a C5+C3+C1 partition",
        paper_reference="deployment extension (repro.sim.serving)",
        rows=rows,
        notes=[
            "past the partition's capacity the queue grows and tail latency "
            "explodes — the knee locates the board's serviceable load",
        ],
    )


def ext_decode() -> ExperimentResult:
    """LLM decode (M = batch) vs prefill: padding waste and throughput."""
    from repro.core.analytical_model import AnalyticalModel
    from repro.mapping.fragmentation import FragmentationAnalysis
    from repro.workloads.transformer import LLAMA2_13B

    analysis = FragmentationAnalysis(Precision.FP32)
    rows = []
    for batch in (1, 8, 32, 128, 512):
        mlp_up = next(
            g for g in LLAMA2_13B.decode_gemms(batch) if g.name == "mlp_up"
        )
        best = analysis.best(mlp_up.shape)
        estimate = AnalyticalModel(CharmDesign(best.config)).estimate(mlp_up.shape)
        rows.append(
            {
                "batch": batch,
                "gemm": str(mlp_up.shape),
                "best_config": best.config.name,
                "padding_waste_pct": round(best.waste_fraction * 100, 1),
                "us_per_layer_gemm": round(estimate.total_seconds * 1e6, 1),
                "useful_tflops": round(best.useful_throughput_ops / 1e12, 3),
            }
        )
    return ExperimentResult(
        experiment_id="ext_decode",
        title="LLM decode-phase GEMMs (Llama2-13B mlp_up) vs batch size",
        paper_reference="fragmentation future work, sharpest case",
        rows=rows,
        notes=[
            "single-request decode (batch 1) pads M up to the native size, "
            "wasting almost the whole array; batching restores utilisation — "
            "the serving-system batching imperative, derived from the "
            "architecture model",
        ],
    )


def ext_faults() -> ExperimentResult:
    """Graceful degradation: estimates under injected hardware faults."""
    from repro.core.analytical_model import AnalyticalModel
    from repro.hw.faults import (
        derate_clock,
        disable_aie_columns,
        disable_dram_channels,
        surviving_configs,
    )
    from repro.hw.specs import VCK5000

    scenarios = [
        ("healthy", VCK5000),
        ("2 AIE columns fused off", disable_aie_columns(VCK5000, 2)),
        ("5 AIE columns fused off", disable_aie_columns(VCK5000, 5)),
        ("1 DDR channel down", disable_dram_channels(VCK5000, 1)),
        ("2 DDR channels down", disable_dram_channels(VCK5000, 2)),
        ("20% thermal clock derate", derate_clock(VCK5000, 0.8)),
    ]
    rows = []
    for label, device in scenarios:
        survivors = surviving_configs(device)
        record: dict = {
            "scenario": label,
            "surviving_configs": len(survivors),
            "largest_survivor": survivors[-1] if survivors else "-",
        }
        for name in ("C3", "C5"):
            if name in survivors:
                design = CharmDesign(config_by_name(name), device=device)
                ms = AnalyticalModel(design).estimate(_WORKLOAD).total_seconds * 1e3
                record[f"{name.lower()}_ms"] = round(ms, 3)
            else:
                record[f"{name.lower()}_ms"] = None
        rows.append(record)
    return ExperimentResult(
        experiment_id="ext_faults",
        title=f"Fault injection: {_WORKLOAD} under degraded devices",
        paper_reference="robustness extension (repro.hw.faults)",
        rows=rows,
        notes=[
            "compute-bound configs suffer from clock derating; memory-bound "
            "configs suffer from DDR-channel loss; column fuses kill the "
            "largest configurations first",
        ],
    )


def ext_chaos() -> ExperimentResult:
    """Serving through injected runtime faults: availability vs damage."""
    from repro.core.multi_acc import AcceleratorPartition
    from repro.sim.chaos import FaultPolicy, FaultSchedule, chaos_schedule
    from repro.sim.serving import ServingSimulator
    from repro.sim.streaming import generate_trace_soa
    from repro.workloads.gemm import GemmShape

    partition = AcceleratorPartition(
        [config_by_name("C5"), config_by_name("C3"), config_by_name("C1")]
    )
    shapes = [GemmShape(1024, 1024, 1024), GemmShape(512, 2048, 512)]
    trace = generate_trace_soa(
        shapes, num_requests=150, mean_interarrival=600e-6, seed=7
    )
    horizon = 150 * 600e-6
    scenarios = [
        ("fault-free", None),
        ("C5 down 20% of the run", FaultSchedule.down("C5", 0.1 * horizon, 0.3 * horizon)),
        (
            "C5 down + C3 3x slower",
            FaultSchedule.down("C5", 0.1 * horizon, 0.3 * horizon)
            + FaultSchedule.degraded("C3", 0.05 * horizon, 0.5 * horizon, factor=3.0),
        ),
        ("seeded chaos", chaos_schedule(["C5", "C3", "C1"], horizon, seed=5,
                                        device=partition.device)),
    ]
    policy = FaultPolicy(max_retries=3)
    rows = []
    for label, faults in scenarios:
        simulator = ServingSimulator(partition)
        report = simulator.run(trace, faults=faults, fault_policy=policy)
        p99 = report.latency_percentile(99)
        rows.append(
            {
                "scenario": label,
                "completed": report.count,
                "shed": report.shed_count,
                "kills": report.kills,
                "retries": report.total_retries,
                "p99_ms": round(p99 * 1e3, 2),
                "request_availability_pct": round(
                    report.request_availability * 100, 1
                ),
            }
        )
    return ExperimentResult(
        experiment_id="ext_chaos",
        title="Runtime fault injection while serving (C5+C3+C1 partition)",
        paper_reference="robustness extension (repro.sim.chaos)",
        rows=rows,
        notes=[
            "outages kill in-flight executions, which retry with backoff and "
            "fail over to the survivors; tail latency absorbs the damage "
            "until the retry budget sheds load — the graceful-degradation "
            "curve a deployed board needs",
        ],
    )


def ext_energy() -> ExperimentResult:
    """Energy and efficiency of 2048^3 across every configuration."""
    rows = []
    for config in ALL_CONFIGS:
        energy = EnergyModel(CharmDesign(config)).estimate(_WORKLOAD)
        rows.append(
            {
                "configuration": config.name,
                "precision": str(config.precision),
                "ms": round(energy.seconds * 1e3, 3),
                "joules": round(energy.total_joules, 4),
                "avg_watts": round(energy.average_power_watts, 1),
                "gflops_per_watt": round(energy.gflops_per_watt, 1),
                "dram_energy_pct": round(energy.fractions()["dram"] * 100, 1),
                "static_energy_pct": round(energy.fractions()["static"] * 100, 1),
            }
        )
    return ExperimentResult(
        experiment_id="ext_energy",
        title=f"Energy model, {_WORKLOAD} across configurations",
        paper_reference="Papalamprou et al., energy-aware GEMM on Versal",
        rows=rows,
        notes=[
            "INT8 configurations deliver far more ops/J; DRAM traffic and "
            "static time dominate the memory-bound designs' energy"
        ],
    )
