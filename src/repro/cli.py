"""Command-line interface: run any of the paper's experiments.

Usage::

    versal-gemm list
    versal-gemm run fig9
    versal-gemm run all --format csv
    versal-gemm estimate 2048x2048x2048 --config C6
    versal-gemm dse 4096x4096x4096 --precision fp32
    versal-gemm --stats dse 4096x4096x4096         # + engine stats
    versal-gemm serve 1024x1024x1024 --trace-out trace.json \
        --metrics-out metrics.prom                 # observability out
    versal-gemm obs summary trace.json             # analyze a trace
    versal-gemm bench --out-dir artifacts          # CI timing gate

Global flags (before the subcommand): ``--jobs/-j N`` runs
``serve --sweep`` points on N worker threads and caps a ``--shards``
pool at N worker processes (0 = one per usable CPU,
i.e. per CPU in the process's affinity mask); the analytical model
always evaluates serially, since it holds the GIL.  ``--stats`` prints
evaluation-engine statistics (evaluations, cache hits, wall time) to
stderr after the command.  Stats and cache counters reset at the start
of every invocation, so ``--stats`` always reports per-run numbers.

``serve`` and ``dse`` additionally accept ``--trace-out trace.json``
(enable the tracer for the run and export a Chrome trace-event file —
open it at https://ui.perfetto.dev) and ``--metrics-out metrics.prom``
(dump the metrics registry in Prometheus text format); see
docs/observability.md.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys

from repro.obs.metrics import GLOBAL_METRICS
from repro.obs.spans import GLOBAL_TRACER
from repro.reporting import RENDERERS, format_seconds, render_bars, render_table
from repro.workloads.gemm import GemmShape

# Exit without the interpreter's final collection, which walks and frees
# every live object just before the process returns its memory anyway:
# a frozen heap sits in the permanent generation, which is never
# collected.  Safe because nothing in the package leaves cleanup to an
# exit-time collection (docs/robustness.md, "Process exit").  Module
# level, since the installed script calls ``main`` and never runs the
# ``__main__`` block.
atexit.register(gc.freeze)

#: serving reports and windowed monitors queued by commands for the
#: end-of-run trace export (cleared at the start of every ``main``
#: invocation); monitors become Perfetto counter tracks
_PENDING_TRACE_SOURCES: list = []

# Handlers import what they run inside their bodies, so a subcommand
# loads only its own layers: ``estimate`` never builds the native
# dispatch kernel, ``serve`` never imports the experiment drivers.  The
# experiment entry points stay module-level names that import on call,
# so wrappers of ``repro.cli.run_experiment`` (perfbench/probe.py times
# it as the model layer) keep working.


def available_experiments() -> list[str]:
    from repro.experiments import available_experiments

    return available_experiments()


def run_experiment(experiment_id: str):
    from repro.experiments import run_experiment

    return run_experiment(experiment_id)


def _unknown_experiment(command: str, experiment_id: str) -> bool:
    """Print the one-line error for an id no driver answers to."""
    known = available_experiments()
    if experiment_id.lower() in known:
        return False
    print(f"{command}: unknown experiment {experiment_id!r}; "
          f"known: {', '.join(known)}", file=sys.stderr)
    return True


def _cmd_list(_: argparse.Namespace) -> int:
    for experiment_id in available_experiments():
        print(experiment_id)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment != "all" and _unknown_experiment("run", args.experiment):
        return 2
    targets = available_experiments() if args.experiment == "all" else [args.experiment]
    for target in targets:
        result = run_experiment(target)
        if args.format == "table":
            print(result.render())
        else:
            renderer = RENDERERS[args.format]
            rows = result.rows or [
                row for panel in result.panels.values() for row in panel
            ]
            print(renderer(rows))
        print()
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.analytical_model import AnalyticalModel
    from repro.mapping.charm import CharmDesign
    from repro.mapping.configs import config_by_name

    workload = args.workload
    design = CharmDesign(config_by_name(args.config))
    estimate = AnalyticalModel(design).estimate(workload)
    if args.json:
        from repro.io import estimate_to_json

        print(estimate_to_json(estimate))
        return 0
    b = estimate.breakdown
    print(f"workload     {workload} on {design.config}")
    print(f"total        {format_seconds(estimate.total_seconds)}")
    print(f"throughput   {estimate.throughput_ops / 1e12:.3f} Tops/s "
          f"({estimate.efficiency:.1%} of peak)")
    print(f"bottleneck   {estimate.bottleneck}")
    print(f"tile plan    pl_tile={estimate.plan.pl_tile} "
          f"multiples={estimate.plan.multiples} "
          f"dram_tiles={estimate.plan.num_dram_tiles}")
    print("breakdown    " + render_table([
        {
            "load_a": format_seconds(b.load_a_seconds),
            "load_b": format_seconds(b.load_b_seconds),
            "aie": format_seconds(b.aie_seconds),
            "store_c": format_seconds(b.store_c_seconds),
            "setup": format_seconds(b.setup_seconds),
        }
    ]).replace("\n", "\n             "))
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    """Render the Fig. 15 roofline in the terminal."""
    from repro.core.roofline import Roofline
    from repro.kernels.precision import Precision
    from repro.mapping.configs import config_by_name
    from repro.workloads.dnn import DNN_WORKLOADS

    roofline = Roofline(Precision.parse(args.precision))
    tiling_config = config_by_name(args.config)
    points = []
    for workload in DNN_WORKLOADS:
        points.append(roofline.point(workload.workload_id, workload.shape))
        points.append(
            roofline.tiled_point(workload.workload_id, workload.shape, tiling_config)
        )
    print(roofline.render_ascii(points, width=args.width, height=args.height))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    """Emit a configuration's AIE connectivity graph (summary or DOT)."""
    from repro.mapping.configs import config_by_name
    from repro.mapping.connectivity import build_connectivity

    graph = build_connectivity(config_by_name(args.config))
    print(graph.to_dot() if args.dot else graph.summary())
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    """Render one experiment column as an ASCII bar chart."""
    if _unknown_experiment("chart", args.experiment):
        return 2
    result = run_experiment(args.experiment)
    panels = {"rows": result.rows, **result.panels} if result.rows else result.panels
    for name, rows in panels.items():
        if not rows or args.value not in rows[0]:
            continue
        label = args.label or next(iter(rows[0]))
        print(
            render_bars(
                rows,
                label_key=label,
                value_key=args.value,
                width=args.width,
                title=f"{result.experiment_id} / {name}: {args.value}",
                log_scale=args.log,
            )
        )
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run every experiment and write a markdown results document."""
    lines = [
        "# Reproduction results",
        "",
        "Generated by `versal-gemm report`. One section per paper artifact;",
        "see EXPERIMENTS.md for the paper-vs-measured audit.",
        "",
    ]
    for experiment_id in available_experiments():
        result = run_experiment(experiment_id)
        lines.append(f"## {result.experiment_id}: {result.title}")
        lines.append(f"*{result.paper_reference}*")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
        print(f"ran {experiment_id}", file=sys.stderr)
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.core.e2e import ModelEstimator
    from repro.kernels.precision import Precision
    model = args.model
    estimator = ModelEstimator(
        Precision.parse(args.precision),
        per_layer_selection=not args.fixed_config,
    )
    estimate = estimator.estimate(model, tokens=args.tokens)
    rows = [
        {
            "layer": layer.gemm.name,
            "shape": str(layer.gemm.shape),
            "x": layer.gemm.count,
            "config": layer.config_name,
            "per_call": format_seconds(layer.single_seconds),
            "total": format_seconds(layer.total_seconds),
            "bottleneck": layer.bottleneck,
        }
        for layer in estimate.layers
    ]
    print(render_table(rows, title=f"{model.name}, {args.tokens} tokens ({args.precision})"))
    print()
    print(f"forward pass  {format_seconds(estimate.total_seconds)} "
          f"({estimate.total_flops / 1e9:.0f} GFLOP, "
          f"{estimate.throughput_ops / 1e12:.2f} Tops/s, "
          f"{estimate.tokens_per_second:,.0f} tokens/s)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.mapping.charm import CharmDesign
    from repro.mapping.configs import config_by_name
    from repro.sim.hwsim import HwSimulator

    workload = args.workload
    design = CharmDesign(config_by_name(args.config))
    trace = HwSimulator(design).trace(workload)
    print(f"{workload} on {design.config.name}: "
          f"makespan {format_seconds(trace.makespan)} (+100 us setup)")
    print(trace.gantt(width=args.width))
    overlap = trace.overlap_seconds("load", "aie") / trace.makespan
    print(f"load/AIE overlap: {overlap:.0%} of the run "
          f"(double buffering {'on' if design.pl_double_buffered else 'off'})")
    return 0


def _arrival_clock_error(
    requests: int, args: argparse.Namespace, shortest_service: float
) -> str | None:
    """The one-line error when a flag's mean inter-arrival gap overflows
    the arrival clock of ``requests`` requests, or makes it too coarse
    to resolve a latency, else None.

    Covers ``--rate``, ``--mean-interarrival`` and every ``--loads``
    value (a load of L rps is a gap of 1/L).  No draw exceeds
    log(2**32 + 2) ~ 22.2 mean inter-arrivals, so a finite 23x span
    keeps every arrival finite.  A latency is the difference of two
    clock readings near the trace horizon, so the clock's spacing there
    must not exceed the sketch's ``--quantile-error`` resolution of
    ``shortest_service``; a coarser clock quantizes every latency.
    """
    gaps = []
    if args.rate is not None:
        gaps.append((f"--rate {args.rate}", 1.0 / args.rate))
    if args.mean_interarrival is not None:
        gaps.append((f"--mean-interarrival {args.mean_interarrival}",
                     args.mean_interarrival))
    gaps.extend((f"--loads {load}", 1.0 / load) for load in args.loads or ())
    for flag, gap in gaps:
        if not math.isfinite(23.0 * requests * gap):
            return (f"serve: {flag} overflows the arrival clock of "
                    f"{requests} requests")
        spacing = math.ulp(requests * gap)
        if spacing > args.quantile_error * shortest_service:
            return (f"serve: {flag} spaces the arrival clock of {requests} "
                    f"requests {spacing:.3g} s apart, coarser than "
                    f"{args.quantile_error:g} of the {shortest_service:.3g} s "
                    "shortest service time")
    return None


def _service_simulator(args: argparse.Namespace, shapes: list):
    """``(simulator, path, cached)``: a simulator seeded from the stored
    service table at ``path`` when there is one (``cached``), else one
    on the built partition, which checks that the configs fit the
    device.

    The stored table is the prewarm's whole result, with every degraded
    service earlier faulted serves resolved, so a warm serve never
    imports or runs the analytical model; it loads only for a
    device-degraded fault window on a device variant the table lacks.
    The lookup is a span on the model's track, which it stands in for.
    """
    from repro.obs.spans import span
    from repro.sim import service_table
    from repro.sim.serving import ServingSimulator

    with span("serve.service_table", track="model") as record:
        path = service_table.table_path(args.configs, shapes)
        table = service_table.load(path, args.configs, shapes)
        record.set(cached=table is not None)
    if table is not None:
        return ServingSimulator.seeded(args.configs, None, *table), path, True
    from repro.core.multi_acc import AcceleratorPartition
    from repro.mapping.configs import config_by_name

    partition = AcceleratorPartition([config_by_name(name) for name in args.configs])
    return ServingSimulator(partition), path, False


def _store_service_table(path: str, simulator) -> bool:
    from repro.sim import service_table

    return service_table.store(
        path, simulator._service_cache, simulator._infeasible, simulator._degraded
    )


def _store_grown_table(path: str, simulator, known: int) -> None:
    """Publish the service table again when the run resolved degraded
    services past the ``known`` ones it started with."""
    if len(simulator._degraded) > known:
        _store_service_table(path, simulator)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.sim.serving import load_sweep
    from repro.sim.streaming import generate_trace_soa

    shapes = list(args.shapes)
    if args.rate is not None and args.mean_interarrival is not None:
        print("serve: pass --rate or --mean-interarrival, not both", file=sys.stderr)
        return 2
    slo_spec = None
    if args.slo:
        from repro.obs.slo import SloSpec

        try:
            slo_spec = SloSpec.parse(args.slo)
        except ValueError as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
    if args.rate is not None:
        mean_interarrival = 1.0 / args.rate
    else:
        mean_interarrival = args.mean_interarrival or 1e-3
    # the trace's expected span anchors chaos and monitor windows
    horizon = args.requests * mean_interarrival
    try:
        simulator, table_path, cached = _service_simulator(args, shapes)
    except ValueError as error:
        # a DesignError: the parser already rejected unknown and
        # repeated names, so only configs that do not fit get here
        print(f"serve: {error}", file=sys.stderr)
        return 2
    partition = simulator.partition
    from repro.sim._native import native_available

    native = native_available()
    GLOBAL_METRICS.gauge(
        "repro_native_available",
        "Compiled k-wide dispatch kernel in use (1) or the Python fallback (0)",
    ).set(1.0 if native else 0.0)
    if args.stats:
        print(f"native       {_native_status(native)}", file=sys.stderr)
    # a no-op on a stored table: it reports 0 evaluations
    simulator.prewarm(shapes)
    if cached:
        services = f"cached at {table_path}"
    else:
        saved = _store_service_table(table_path, simulator)
        services = (f"computed, saved to {table_path}" if saved
                    else "computed, cache unwritable")
    # degraded services the serve resolves past these go into the table
    # once it has run
    degraded_known = len(simulator._degraded)
    if args.stats:
        print(f"services     {services}", file=sys.stderr)
    shortest = min(simulator._service_cache.values(), default=math.inf)
    clock_error = _arrival_clock_error(args.requests, args, shortest)
    if clock_error:
        print(clock_error, file=sys.stderr)
        return 2

    faults = None
    fault_policy = None
    if args.faults:
        from repro.sim.chaos import FaultError, FaultPolicy, parse_fault_spec

        try:
            faults = parse_fault_spec(
                args.faults,
                list(partition.designs),
                device=partition.device,
                seed=args.fault_seed,
                horizon=horizon,
            )
        except FaultError as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        fault_policy = FaultPolicy(max_retries=args.max_retries)

    if args.sweep:
        result = load_sweep(
            simulator,
            shapes,
            args.loads,
            num_requests=args.requests,
            seed=args.seed,
            streaming=args.streaming,
            quantile_error=args.quantile_error,
            jobs=args.jobs,
            shards=args.shards,
            start_method=args.start_method,
            faults=faults,
            fault_policy=fault_policy,
            slo=slo_spec,
            slo_windows=args.windows,
        )
        _store_grown_table(table_path, simulator, degraded_known)
        print(render_table(result.rows(), title="offered-load sweep"))
        if result.knee_rps is not None:
            print(f"saturation knee   ~{result.knee_rps:.0f} rps offered")
        else:
            print("saturation knee   not reached (raise --loads)")
        if result.early_exit:
            print(f"plateau           {result.plateau_rps:.0f} rps achieved; "
                  "sweep exited early")
        if slo_spec is not None:
            if result.slo_breach_rps is not None:
                print(f"slo breach        first at "
                      f"{result.slo_breach_rps:.0f} rps offered")
            else:
                print("slo breach        none within the swept loads")
        return 0

    monitor = None
    want_monitor = slo_spec is not None or args.monitor_out is not None
    # chunk-fed windowed telemetry: cut the expected horizon into
    # --windows equal slices of simulated time
    window_seconds = horizon / args.windows
    fleet = None
    if args.shards > 1:
        from repro.sim.cluster_serving import ShardedServingCluster

        with ShardedServingCluster(
            simulator,
            shapes,
            shards=args.shards,
            dispatch=args.dispatch,
            quantile_error=args.quantile_error,
            start_method=args.start_method,
            max_workers=args.jobs if args.jobs != 1 else None,
            faults=faults,
            fault_policy=fault_policy,
        ) as cluster:
            fleet = cluster.serve(
                args.requests,
                mean_interarrival,
                seed=args.seed,
                monitor_window=window_seconds if want_monitor else None,
            )
        report = fleet.report
        monitor = fleet.monitor
    else:
        if want_monitor:
            from repro.obs.windows import ServingMonitor

            monitor = ServingMonitor(
                window_seconds, quantile_error=args.quantile_error
            )
        trace = generate_trace_soa(
            shapes, args.requests, mean_interarrival, seed=args.seed
        )
        report = simulator.run(
            trace,
            streaming=args.streaming,
            dispatch=args.dispatch,
            quantile_error=args.quantile_error,
            faults=faults,
            fault_policy=fault_policy,
            monitor=monitor,
        )
    _store_grown_table(table_path, simulator, degraded_known)
    if args.trace_out:
        # streaming/fleet reports degrade to utilization + fault tracks
        # in the exporter; monitors add one counter track per metric
        _PENDING_TRACE_SOURCES.append(report)
        if monitor is not None:
            _PENDING_TRACE_SOURCES.append(monitor)
    if args.metrics_out:
        summary = report.fault_summary()
        GLOBAL_METRICS.counter(
            "repro_serving_requests_total", "Requests completed by serving runs"
        ).inc(summary["completed"])
        GLOBAL_METRICS.counter(
            "repro_serving_shed_total", "Requests shed by serving runs"
        ).inc(summary["shed"])
        GLOBAL_METRICS.gauge(
            "repro_serving_throughput_rps", "Completed requests per second"
        ).set(report.throughput_rps)
        if fleet is not None:
            GLOBAL_METRICS.gauge(
                "repro_serving_shards", "Shard replicas in the last fleet serve"
            ).set(fleet.shards)
        if not args.streaming and fleet is None:
            GLOBAL_METRICS.histogram(
                "repro_serving_latency_seconds",
                "End-to-end request latency",
                relative_error=args.quantile_error,
            ).observe_many(report.latencies)
            GLOBAL_METRICS.histogram(
                "repro_serving_queue_seconds",
                "Request queueing delay before dispatch",
                relative_error=args.quantile_error,
            ).observe_many(report.queueing_delays)
    p50, p95, p99 = report.latency_percentiles([50, 95, 99])
    if fleet is not None:
        mode = (f"{fleet.shards} shards via {fleet.start_method}, "
                "sketched percentiles")
    elif args.streaming:
        mode = "streaming (sketched percentiles)"
    else:
        mode = "exact"
    print(f"requests     {args.requests} over {len(args.configs)} accelerators ({mode})")
    print(f"makespan     {format_seconds(report.makespan)}")
    print(f"throughput   {report.throughput_rps:.1f} requests/s")
    print(f"latency      p50 {format_seconds(p50)}   p95 {format_seconds(p95)}   "
          f"p99 {format_seconds(p99)}   mean {format_seconds(report.mean_latency())}")
    for name, count in sorted(report.accelerator_load().items()):
        print(f"load         {name}: {count} requests")
    if faults is not None:
        summary = report.fault_summary()
        print(f"faults       {summary['fault_events'] // 2} windows: "
              f"{summary['kills']} kills, {summary['retries']} retries, "
              f"{summary['requeues']} requeues, {summary['shed']} shed")
        print(f"availability {summary['request_availability']:.1%} of requests; "
              + "  ".join(f"{name} {up:.1%}"
                          for name, up in sorted(summary["availability"].items())))
    if monitor is not None:
        slo_report = None
        if slo_spec is not None:
            from repro.obs.slo import evaluate_slo

            slo_report = evaluate_slo(monitor, slo_spec)
        print(_render_monitor_timeline(monitor, slo_report=slo_report,
                                       faults=faults))
        if slo_report is not None:
            _print_slo_verdict(slo_report)
        if args.monitor_out:
            try:
                _write_monitor_file(args.monitor_out, monitor, args.slo, slo_report)
            except OSError as error:
                return _cannot_write("--monitor-out", args.monitor_out, error)
    return 0


def _native_status(native: bool) -> str:
    """The ``--stats`` native row: availability, and where the kernel
    came from (compiled this run, or loaded from the kernel cache)."""
    if not native:
        return "unavailable (k-wide C dispatch kernel)"
    from repro.sim._native import NATIVE_ORIGIN, NATIVE_PATH

    if NATIVE_ORIGIN == "cached":
        source = f"; cached at {NATIVE_PATH}"
    elif NATIVE_ORIGIN == "compiled":
        source = (f"; compiled, saved to {NATIVE_PATH}" if NATIVE_PATH
                  else "; compiled, kernel cache unwritable")
    else:
        source = ""
    return f"available (k-wide C dispatch kernel{source})"


def _cmd_dse(args: argparse.Namespace) -> int:
    from repro.core.dse import DesignSpaceExplorer
    from repro.kernels.precision import Precision

    workload = args.workload
    explorer = DesignSpaceExplorer(
        Precision.parse(args.precision),
        explore_ports=args.explore_ports,
    )
    points = explorer.explore(workload, top=args.top)
    rows = [
        {
            "rank": i + 1,
            "aies": p.num_aies,
            "grouping": f"{p.config.grouping.gm}x{p.config.grouping.gk}x{p.config.grouping.gn}",
            "native": str(p.config.native_size),
            "plios": p.num_plios,
            "ports": str(p.config.dram_ports),
            "time": format_seconds(p.seconds),
            "bottleneck": str(p.estimate.bottleneck),
        }
        for i, p in enumerate(points)
    ]
    print(render_table(rows, title=f"DSE for {workload} ({args.precision})"))
    print(f"evaluated {points.evaluated} candidates "
          f"({points.skipped} infeasible for this workload)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """The timing gates (see docs/benchmarking.md)."""
    from repro.bench.smoke import run_smoke

    return run_smoke(out_dir=args.out_dir, repeats=args.repeats)


def _cmd_obs_summary(args: argparse.Namespace) -> int:
    """Validate a Chrome trace and print utilization/overlap/bottleneck."""
    from repro.obs.export import validate_chrome_trace
    from repro.obs.summary import load_trace, summarize_trace

    try:
        trace = load_trace(args.trace)
        validate_chrome_trace(trace)
    except (OSError, ValueError) as error:
        print(f"obs summary: {error}", file=sys.stderr)
        return 2
    print(summarize_trace(trace).render())
    return 0


def _render_monitor_timeline(monitor, slo_report=None, faults=None) -> str:
    rows = []
    for stats in monitor.timeline():
        row: dict = {
            "window": f"[{stats.start:.4g}s, {stats.end:.4g}s)",
            "done": stats.completed,
            "shed": stats.shed,
            "kills": stats.kills,
            "rps": f"{stats.rps:.0f}",
            "p50": format_seconds(stats.p50) if stats.p50 is not None else "-",
            "p99": format_seconds(stats.p99) if stats.p99 is not None else "-",
        }
        if faults is not None:
            active = faults.windows_overlapping(stats.start, stats.end)
            row["fault"] = ",".join(sorted({w.accelerator for w in active})) if active else ""
        if slo_report is not None:
            row["slo"] = "ok" if slo_report.window_ok(stats.index) else "BREACH"
        rows.append(row)
    return render_table(rows, title="windowed telemetry")


def _print_slo_verdict(slo_report) -> None:
    for result in slo_report.results:
        status = "ok" if result.ok else "BREACH"
        print(f"slo          {result.objective.name}: {status} "
              f"({result.bad_events}/{result.total_events} bad, "
              f"budget consumed {result.budget_consumed:.0%})")
    for alert in slo_report.alerts:
        print(f"ALERT        [{alert.severity}] {alert.objective} "
              f"at t={alert.time:.6g}s: {alert.detail}")


def _write_monitor_file(path: str, monitor, slo_text, slo_report) -> None:
    payload: dict = {"monitor": monitor.as_dict()}
    if slo_text:
        payload["slo"] = slo_text
    if slo_report is not None:
        payload["alerts"] = [alert.as_dict() for alert in slo_report.alerts]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path} (windowed telemetry)", file=sys.stderr)


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import SloSpec, evaluate_slo
    from repro.obs.windows import ServingMonitor

    try:
        with open(args.file, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"obs slo: {error}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print(f"obs slo: {args.file} is not a monitor export", file=sys.stderr)
        return 2
    # accept both the 'serve --monitor-out' wrapper and a bare as_dict()
    payload = data.get("monitor", data)
    try:
        monitor = ServingMonitor.from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        print(f"obs slo: {args.file} is not a monitor export: {error}",
              file=sys.stderr)
        return 2
    spec_text = args.slo or data.get("slo")
    slo_report = None
    if spec_text:
        try:
            spec = SloSpec.parse(spec_text)
        except ValueError as error:
            print(f"obs slo: {error}", file=sys.stderr)
            return 2
        slo_report = evaluate_slo(monitor, spec)
    print(_render_monitor_timeline(monitor, slo_report=slo_report))
    if slo_report is not None:
        _print_slo_verdict(slo_report)
    elif args.slo is None:
        print("obs slo: no spec stored in the file; pass --slo to evaluate",
              file=sys.stderr)
    return 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", type=_output_path, default=None, metavar="PATH",
        help="enable the tracer for this run and write a Chrome "
             "trace-event JSON (open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", type=_output_path, default=None, metavar="PATH",
        help="write the metrics registry in Prometheus text format",
    )


# ``type=`` converters: bad values exit 2 with argparse's one-line
# "argument --flag: ..." error instead of a traceback from deep inside
def _int_at_least(minimum: int):
    def convert(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            number = minimum - 1
        if number < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {value!r}"
            )
        return number

    return convert


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _float_in(low: float, high: float = math.inf, *, closed_low: bool = False):
    """Finite floats in the open interval ``(low, high)``, or
    ``[low, high)`` with ``closed_low``."""

    def convert(value: str) -> float:
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        above_low = low <= number if closed_low else low < number
        if not (math.isfinite(number) and above_low and number < high):
            if high == math.inf:
                bounds = f"{'>=' if closed_low else '>'} {low:g}"
            else:
                bounds = f"in {'[' if closed_low else '('}{low:g}, {high:g})"
            raise argparse.ArgumentTypeError(
                f"expected a finite number {bounds}, got {value!r}"
            )
        return number

    return convert


_positive_float = _float_in(0.0)
_unit_fraction = _float_in(0.0, 1.0)


def _output_path(value: str) -> str:
    """An output file whose directory exists, checked before any work
    (an unwritable file still fails at write time, without a traceback)."""
    if not os.path.isdir(os.path.dirname(value) or "."):
        raise argparse.ArgumentTypeError(f"no such directory for {value!r}")
    return value


def _output_dir(value: str) -> str:
    """A directory for output files: existing, or one that can be made
    because its nearest existing ancestor is a directory (checked
    before any work)."""
    existing = os.path.abspath(value)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise argparse.ArgumentTypeError(
            f"cannot make directory {value!r}: {existing!r} is not a directory"
        )
    return value


def _cannot_write(flag: str, path: str, error: OSError) -> int:
    print(f"versal-gemm: cannot write {flag} {path}: "
          f"{error.strerror or error}", file=sys.stderr)
    return 1


def _shape(value: str) -> GemmShape:
    try:
        return GemmShape.parse(value)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _config_name(value: str) -> str:
    from repro.mapping.config_names import check_config_name

    try:
        return check_config_name(value)
    except KeyError as error:
        raise argparse.ArgumentTypeError(error.args[0]) from None


def _model(value: str):
    from repro.workloads.transformer import model_by_name

    try:
        return model_by_name(value)
    except KeyError as error:
        raise argparse.ArgumentTypeError(error.args[0]) from None


def _comma_list(convert, what: str):
    def convert_all(value: str) -> tuple:
        items = tuple(convert(token) for token in value.split(",") if token)
        if not items:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {value!r}"
            )
        return items

    return convert_all


_shape_list = _comma_list(_shape, "MxKxN shapes")
_config_names = _comma_list(_config_name, "Table II config names")


def _config_list(value: str) -> tuple:
    """Distinct config names: a partition holds each accelerator once."""
    names = _config_names(value)
    for index, name in enumerate(names):
        if name in names[:index]:
            raise argparse.ArgumentTypeError(f"duplicate config {name!r}")
    return names


_load_list = _comma_list(_positive_float, "offered loads (rps)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="versal-gemm",
        description="GEMM performance analysis on the simulated AMD Versal VCK5000",
    )
    parser.add_argument(
        "--jobs", "-j", type=_non_negative_int, default=1, metavar="N",
        help="worker threads for serve --sweep points, and the "
             "worker-process cap of a --shards pool (0 = one per usable "
             "CPU); the analytical model always runs serially",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print evaluation-engine statistics to stderr after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment")
    run.add_argument("--format", choices=sorted(RENDERERS), default="table")
    run.set_defaults(func=_cmd_run)

    estimate = sub.add_parser("estimate", help="estimate one workload on a config")
    estimate.add_argument("workload", type=_shape,
                          help="MxKxN, e.g. 2048x2048x2048")
    estimate.add_argument("--config", type=_config_name, default="C6",
                          help="Table II config name")
    estimate.add_argument("--json", action="store_true", help="machine-readable output")
    estimate.set_defaults(func=_cmd_estimate)

    dse = sub.add_parser("dse", help="explore designs for a workload")
    dse.add_argument("workload", type=_shape, help="MxKxN")
    dse.add_argument("--precision", default="fp32", choices=["fp32", "int8", "int16"])
    dse.add_argument("--top", type=_positive_int, default=10)
    dse.add_argument("--explore-ports", action="store_true")
    _add_obs_flags(dse)
    dse.set_defaults(func=_cmd_dse)

    model = sub.add_parser("model", help="estimate a transformer forward pass")
    model.add_argument("model", type=_model, help="e.g. Llama2-13B, BERT-large")
    model.add_argument("--tokens", type=_positive_int, default=2048)
    model.add_argument("--precision", default="fp32", choices=["fp32", "int8", "int16"])
    model.add_argument("--fixed-config", action="store_true",
                       help="use one configuration for every layer")
    model.set_defaults(func=_cmd_model)

    trace = sub.add_parser("trace", help="show a pipeline Gantt for a run")
    trace.add_argument("workload", type=_shape, help="MxKxN")
    trace.add_argument("--config", type=_config_name, default="C6")
    trace.add_argument("--width", type=_positive_int, default=72)
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser("report", help="run everything, write RESULTS.md")
    report.add_argument("-o", "--output", default=None)
    report.set_defaults(func=_cmd_report)

    roofline = sub.add_parser("roofline", help="render Fig. 15 in the terminal")
    roofline.add_argument("--precision", default="int8", choices=["fp32", "int8", "int16"])
    roofline.add_argument("--config", type=_config_name, default="C11",
                          help="config for tiled points")
    roofline.add_argument("--width", type=_int_at_least(2), default=70)
    roofline.add_argument("--height", type=_positive_int, default=20)
    roofline.set_defaults(func=_cmd_roofline)

    graph = sub.add_parser("graph", help="emit a config's AIE connectivity graph")
    graph.add_argument("--config", type=_config_name, default="C1")
    graph.add_argument("--dot", action="store_true", help="Graphviz DOT output")
    graph.set_defaults(func=_cmd_graph)

    chart = sub.add_parser("chart", help="render an experiment column as bars")
    chart.add_argument("experiment")
    chart.add_argument("--value", required=True, help="numeric column to plot")
    chart.add_argument("--label", default=None, help="label column (default: first)")
    chart.add_argument("--width", type=_positive_int, default=50)
    chart.add_argument("--log", action="store_true")
    chart.set_defaults(func=_cmd_chart)

    serve = sub.add_parser("serve", help="simulate serving a GEMM request stream")
    serve.add_argument("shapes", type=_shape_list,
                       help="comma-separated MxKxN mix, e.g. "
                       "1024x1024x1024,512x512x512")
    serve.add_argument("--configs", type=_config_list, default="C5,C3",
                       help="partition accelerators (Table II names, comma-separated)")
    serve.add_argument("--requests", type=_positive_int, default=10000)
    serve.add_argument("--rate", type=_positive_float, default=None,
                       help="offered load in requests/sec")
    serve.add_argument("--mean-interarrival", type=_positive_float, default=None,
                       help="mean seconds between arrivals (alternative to --rate)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--streaming", action=argparse.BooleanOptionalAction,
                       default=False,
                       help="sketched-percentile report (O(1) memory on "
                            "fault-free runs)")
    serve.add_argument("--quantile-error", type=_unit_fraction, default=0.01,
                       help="relative error bound for streaming percentiles")
    serve.add_argument(
        "--dispatch",
        choices=["auto", "scan"],
        default="auto",
        help="dispatch path (byte-identical, exact or streaming): auto "
             "is the fast path — the k-wide dispatch kernel, compiled C "
             "when a compiler is present and its Python mirror "
             "otherwise; scan is the seed-loop oracle")
    serve.add_argument("--shards", type=_positive_int, default=1, metavar="N",
                       help="partition the trace across N process-parallel "
                            "shard replicas and merge one fleet report")
    serve.add_argument("--start-method",
                       choices=["fork", "spawn", "forkserver", "inline"],
                       default=None,
                       help="multiprocessing start method for --shards "
                            "(default: fork where available, else spawn; "
                            "inline = no pool, serial reference mode)")
    serve.add_argument("--sweep", action="store_true",
                       help="sweep offered load; report the saturation knee")
    serve.add_argument("--loads", type=_load_list, default=None,
                       help="comma-separated offered loads (rps) for --sweep")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="inject a fault schedule: 'chaos' (seeded random) or "
                            "windows like C5:down:0.05:0.1,C3:slow:2.5:0.1:0.3 "
                            "(also clock/dram/drambw/cols — see docs/robustness.md)")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for 'chaos' fault schedules (deterministic)")
    serve.add_argument("--max-retries", type=_non_negative_int, default=3,
                       help="kills a request survives before being shed")
    serve.add_argument("--slo", default=None, metavar="SPEC",
                       help="windowed SLO spec, e.g. 'p99<50ms,avail>0.999,"
                            "shed<0.01': prints a per-window timeline with "
                            "burn-rate alerts (also annotates --sweep points)")
    serve.add_argument("--windows", type=_positive_int, default=100, metavar="N",
                       help="telemetry windows the run's horizon is cut into "
                            "for --slo / --monitor-out (default 100)")
    serve.add_argument("--monitor-out", type=_output_path, default=None,
                       metavar="PATH",
                       help="write the windowed telemetry series as JSON "
                            "(re-evaluate any spec later with 'obs slo')")
    _add_obs_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    bench = sub.add_parser(
        "bench",
        help="timing gates: DSE evaluation throughput and five paired "
             "serving timings (exit 1 on a regression)",
    )
    bench.add_argument("-n", "--repeats", type=_positive_int, default=5,
                       metavar="N", help="repeats per spec (default 5)")
    bench.add_argument("--out-dir", type=_output_dir, default=".",
                       metavar="DIR",
                       help="directory for each spec's CSV/JSON summary")
    bench.set_defaults(func=_cmd_bench)

    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_summary = obs_sub.add_parser(
        "summary", help="per-track utilization/overlap/bottleneck of a trace"
    )
    obs_summary.add_argument("trace", help="Chrome trace-event JSON file")
    obs_summary.set_defaults(func=_cmd_obs_summary)
    obs_slo = obs_sub.add_parser(
        "slo", help="alert timeline of an exported windowed-telemetry JSON"
    )
    obs_slo.add_argument("file", help="JSON written by 'serve --monitor-out'")
    obs_slo.add_argument("--slo", default=None, metavar="SPEC",
                         help="SLO spec to evaluate (default: the spec "
                              "stored in the file, if any)")
    obs_slo.set_defaults(func=_cmd_obs_slo)
    return parser


def _write_trace_file(path: str) -> None:
    from repro.obs.export import ChromeTraceBuilder

    builder = ChromeTraceBuilder()
    builder.add_spans(GLOBAL_TRACER.spans())
    for source in _PENDING_TRACE_SOURCES:
        if hasattr(source, "window_seconds"):  # a ServingMonitor
            builder.add_monitor(source)
        else:
            builder.add_serving_report(source)
    builder.write(path)
    print(f"wrote {path} ({len(builder)} trace events)", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    from repro.perf import get_cache, read_totals

    # per-invocation counters: successive in-process calls (tests, REPLs)
    # must not accumulate into each other's --stats report; cache entries
    # are kept — only the hit/miss counters restart
    GLOBAL_METRICS.reset()
    get_cache().reset_counters()
    _PENDING_TRACE_SOURCES.clear()
    args = build_parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        GLOBAL_TRACER.enable(clear=True)
    try:
        status = args.func(args)
    finally:
        if trace_out:
            GLOBAL_TRACER.disable()
    if status == 0 and trace_out:
        try:
            _write_trace_file(trace_out)
        except OSError as error:
            status = _cannot_write("--trace-out", trace_out, error)
    cache = get_cache()
    GLOBAL_METRICS.counter(
        "repro_cache_hits_total", "Evaluation-cache hits this invocation"
    ).inc(cache.hits)
    GLOBAL_METRICS.counter(
        "repro_cache_misses_total", "Evaluation-cache misses this invocation"
    ).inc(cache.misses)
    metrics_out = getattr(args, "metrics_out", None)
    if status == 0 and metrics_out:
        try:
            with open(metrics_out, "w") as handle:
                handle.write(GLOBAL_METRICS.to_prometheus())
        except OSError as error:
            status = _cannot_write("--metrics-out", metrics_out, error)
        else:
            print(f"wrote {metrics_out}", file=sys.stderr)
    if args.stats:
        totals = read_totals()
        print(f"eval stats   {totals.evals.summary()} "
              f"over {totals.batches} batches", file=sys.stderr)
        if totals.fault_runs:
            print(f"fault stats  {totals.faults.summary()} "
                  f"over {totals.fault_runs} runs", file=sys.stderr)
        for table, counters in get_cache().counters().items():
            print(f"cache        {table}: {counters['hits']} hits / "
                  f"{counters['misses']} misses ({counters['entries']} entries)",
                  file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
