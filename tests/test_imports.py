"""Import budget: a ``versal-gemm`` process loads only what its
subcommand runs.  Each check runs in a fresh interpreter, since this
test process has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SUBPACKAGES = (
    "repro.bench",
    "repro.core",
    "repro.experiments",
    "repro.hw",
    "repro.kernels",
    "repro.mapping",
    "repro.obs",
    "repro.perf",
    "repro.sim",
    "repro.workloads",
)

#: modules a command must leave unloaded (the probe prints which of
#: them are in sys.modules after running the command in-process)
WATCHED = ("numpy", "networkx", "repro.sim._native", "repro.experiments")


#: the model stack a shard worker must not import: its service table
#: arrives seeded, the monitor module only when a monitor is attached,
#: and the fault layer only when the payload carries a fault schedule
WORKER_WATCHED = (
    "repro.core.analytical_model",
    "repro.mapping.charm",
    "repro.mapping.placement",
    "repro.obs.windows",
    "repro.sim.chaos",
)

#: every experiment driver module (all of the package but its runner)
DRIVER_MODULES = tuple(
    f"repro.experiments.{path.stem}"
    for path in sorted((SRC / "repro" / "experiments").glob("*.py"))
    if path.stem not in ("__init__", "runner")
)


def _child_env(tmp_path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["XDG_CACHE_HOME"] = str(tmp_path / "cache")
    return env


def _last_line_of(probe: str, tmp_path) -> str:
    """Run ``probe`` in a fresh interpreter; return its last stdout line."""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_child_env(tmp_path), cwd=tmp_path,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def _loaded_after(
    code: str, tmp_path, watched=WATCHED, newly: bool = False
) -> list[str]:
    """The ``watched`` modules loaded once ``code`` has run; ``newly``
    leaves out those the interpreter had loaded before it (``site`` may
    load stdlib modules at start-up)."""
    before = "set(sys.modules)" if newly else "set()"
    probe = (
        "import json, sys\n"
        f"before = {before}\n"
        f"{code}\n"
        f"print(json.dumps([m for m in {watched!r}\n"
        "                  if m in sys.modules and m not in before]))\n"
    )
    return json.loads(_last_line_of(probe, tmp_path))


def _cli(*argv: str) -> str:
    return (
        "from repro.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
    )


def test_cli_import_loads_no_heavy_module(tmp_path):
    assert _loaded_after("import repro.cli", tmp_path) == []


def test_package_import_loads_no_heavy_module(tmp_path):
    assert _loaded_after("import repro", tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "1024x512x256", "--config", "C5"),
        ("dse", "512x512x512", "--precision", "fp32", "--top", "3"),
    ],
    ids=["estimate", "dse"],
)
def test_model_commands_skip_native_kernel_and_networkx(tmp_path, argv):
    loaded = _loaded_after(
        _cli(*argv), tmp_path, WATCHED + ("concurrent.futures",)
    )
    assert "repro.sim._native" not in loaded
    assert "networkx" not in loaded
    # the scalar model path never needs NumPy, whose import alone costs
    # more than a whole exploration
    assert "numpy" not in loaded
    # a one-job run builds no thread pool
    assert "concurrent.futures" not in loaded


def test_run_loads_only_its_own_driver(tmp_path):
    loaded = _loaded_after(
        _cli("run", "fig13"), tmp_path, ("numpy",) + DRIVER_MODULES
    )
    # fig13's eight-item pipelines stay on the scalar loop
    assert loaded == ["repro.experiments.plio_study"]


def test_serve_does_not_load_networkx(tmp_path):
    loaded = _loaded_after(
        _cli("serve", "512x512x512", "--requests", "200", "--streaming"),
        tmp_path,
        WATCHED + ("repro.sim.chaos",),
    )
    assert "networkx" not in loaded
    assert "repro.experiments" not in loaded
    # a fault-free serve never loads the fault layer
    assert "repro.sim.chaos" not in loaded


def test_cached_kernel_serve_loads_no_compiler_modules(tmp_path):
    serve = _cli("serve", "512x512x512", "--requests", "200")
    # the first serve compiles the kernel into the (empty) cache
    _loaded_after(serve, tmp_path)
    loaded = _loaded_after(
        serve, tmp_path, ("repro.sim._native", "subprocess", "tempfile"),
        newly=True,
    )
    assert loaded == ["repro.sim._native"]


def test_warm_serve_loads_no_model_and_no_pool_modules(tmp_path):
    """A serve that finds its stored service table dispatches on it:
    the model stack, the shard pool and the thread pool stay unloaded."""
    serve = _cli("serve", "512x512x512,1024x1024x1024", "--requests", "200")
    watched = WORKER_WATCHED + ("multiprocessing", "concurrent.futures")
    # the first serve computes the table into the (empty) cache
    assert "repro.core.analytical_model" in _loaded_after(serve, tmp_path, watched)
    assert _loaded_after(serve, tmp_path, watched) == []


_MIX = "1024x1024x1024,512x512x512,2048x1024x512,1024x2048x1024"
_SLO = ("--slo", "p99<50ms,avail>0.999", "--windows", "20")


@pytest.mark.parametrize(
    "flags",
    [
        _SLO,
        ("--streaming",) + _SLO,
        ("--faults", "chaos", "--fault-seed", "3") + _SLO,
        ("--streaming", "--shards", "2", "--start-method", "spawn") + _SLO,
    ],
    ids=["exact", "streaming", "chaos", "spawn-shards"],
)
def test_warm_serve_writes_what_a_cold_serve_writes(tmp_path, flags):
    """Serving from the stored table changes no output byte: stdout,
    the monitor file and the simulated-time trace events are the cold
    run's.  ``chaos`` derates the device in some windows, which loads
    the model on first need."""
    from tests.conformance.test_golden_serve import _sim_events

    argv = [sys.executable, "-m", "repro.cli", "--stats", "serve", _MIX, "--configs",
            "C5,C3", "--requests", "2000", "--rate", "1000", "--seed", "4",
            *flags, "--trace-out", "trace.json", "--monitor-out", "monitor.json"]
    written = []
    for run, table in (("cold", "computed, saved to"), ("warm", "cached at")):
        rundir = tmp_path / run
        rundir.mkdir()
        child = subprocess.run(
            argv, capture_output=True, text=True, env=_child_env(tmp_path),
            cwd=rundir, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert f"\nservices     {table} " in child.stderr
        written.append((
            child.stdout,
            (rundir / "monitor.json").read_bytes(),
            _sim_events((rundir / "trace.json").read_text()),
        ))
    assert written[0] == written[1]


def test_faulted_serve_loads_the_fault_layer(tmp_path):
    loaded = _loaded_after(
        _cli("serve", "512x512x512", "--requests", "200", "--streaming",
             "--faults", "chaos", "--fault-seed", "3"),
        tmp_path,
        ("repro.sim.chaos",),
    )
    assert loaded == ["repro.sim.chaos"]


def test_trace_export_loads_no_masked_arrays(tmp_path):
    """Writing a serve's Perfetto trace leaves ``numpy.ma`` unloaded:
    ``np.unique`` imports it on NumPy 2.4, at 10-15 ms and ~1 MB of RSS
    per process."""
    loaded = _loaded_after(
        _cli("serve", _MIX, "--configs", "C5,C3", "--requests", "2000",
             "--rate", "1000", "--trace-out", str(tmp_path / "trace.json")),
        tmp_path,
        ("numpy.ma",),
    )
    assert loaded == []


def _worker_handoff(tmp_path) -> str:
    """Pickle a real pool payload and one shard task to a file; return
    child code that initialises a worker from it and serves the shard."""
    import pickle

    from repro.core.multi_acc import AcceleratorPartition
    from repro.mapping.configs import config_by_name
    from repro.sim.cluster_serving import ShardedServingCluster
    from repro.sim.serving import ServingSimulator
    from repro.workloads.gemm import GemmShape

    shapes = [GemmShape(1024, 1024, 1024), GemmShape(512, 512, 512)]
    simulator = ServingSimulator(
        AcceleratorPartition([config_by_name("C5"), config_by_name("C3")])
    )
    cluster = ShardedServingCluster(
        simulator, shapes, shards=2, start_method="inline"
    )
    bounds, offsets = cluster.plan(2000, 1e-3, 3)
    (lo, hi), offset = bounds[1], offsets[1]
    handoff = tmp_path / "worker.pickle"
    handoff.write_bytes(pickle.dumps(
        (cluster._payload_bytes, (2000, 1e-3, 3, lo, hi, offset, None))
    ))
    return (
        "import pickle\n"
        "from repro.sim.cluster_serving import _run_shard_task, _worker_init\n"
        f"payload, task = pickle.loads(open({str(handoff)!r}, 'rb').read())\n"
        "_worker_init(payload)\n"
        "result = pickle.loads(_run_shard_task(task))\n"
        f"assert result['report'].count == {hi - lo}\n"
    )


def test_shard_worker_imports_only_the_dispatch_layer(tmp_path):
    """A pool worker initialised from a fault-free, monitor-free payload
    serves its shard without loading the model stack."""
    code = _worker_handoff(tmp_path)
    assert _loaded_after(code, tmp_path, WORKER_WATCHED) == []


def _freeze_count_at_exit(code: str, tmp_path) -> int:
    """``gc.get_freeze_count()`` read by the last atexit handler of a
    fresh interpreter that runs ``code``: registered before ``code``
    runs, it runs after every handler ``code`` registers."""
    probe = (
        "import atexit, gc\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        f"{code}\n"
    )
    return int(_last_line_of(probe, tmp_path))


def test_cli_process_exits_with_a_frozen_heap(tmp_path):
    """The interpreter's final collection skips the permanent generation,
    so a frozen heap is not walked object by object at exit."""
    code = _cli("estimate", "1024x512x256", "--config", "C5") + _cli(
        "serve", "512x512x512,1024x1024x1024", "--requests", "1000"
    )
    assert _freeze_count_at_exit(code, tmp_path) > 0


def test_shard_worker_exits_with_a_frozen_heap(tmp_path):
    assert _freeze_count_at_exit(_worker_handoff(tmp_path), tmp_path) > 0


def test_fresh_process_writes_what_an_in_process_run_writes(
    tmp_path, capsys, monkeypatch
):
    """Every output file is complete when ``main`` returns: none waits
    for an exit-time collection to flush or close it.  The trace and the
    metrics are compared without the samples that time the host.  Each
    run starts from an empty service-table cache, so both evaluate the
    model and count the same evaluations."""
    from repro.cli import main
    from repro.perf import clear_cache
    from tests.conformance.test_golden_serve import (
        _sim_events,
        _strip_host_metrics,
    )

    argv = [
        "serve", "1024x1024x1024,512x512x512", "--configs", "C5,C3",
        "--requests", "1000", "--rate", "1000", "--seed", "3",
        "--slo", "p99<50ms,avail>0.999", "--windows", "20",
        "--trace-out", "trace.json", "--metrics-out", "metrics.prom",
        "--monitor-out", "monitor.json",
    ]
    fresh, in_process = tmp_path / "fresh", tmp_path / "in_process"
    fresh.mkdir()
    in_process.mkdir()
    child = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True, env=_child_env(tmp_path), cwd=fresh,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    monkeypatch.chdir(in_process)
    monkeypatch.setenv("XDG_CACHE_HOME", str(in_process / "cache"))
    clear_cache()  # the cache counters land in the metrics file
    assert main(argv) == 0
    assert child.stdout == capsys.readouterr().out

    def written(directory):
        trace = (directory / "trace.json").read_text()
        return (
            _sim_events(trace),
            len(json.loads(trace)["traceEvents"]),
            _strip_host_metrics((directory / "metrics.prom").read_text()),
            (directory / "monitor.json").read_bytes(),
        )

    assert written(fresh) == written(in_process)


@pytest.mark.parametrize("package", ("repro",) + SUBPACKAGES)
def test_every_export_resolves(package):
    import importlib

    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
        assert name in dir(module), f"{package}.{name} missing from dir()"


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from repro.sim import *", namespace)
    import repro.sim

    assert set(repro.sim.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    import repro.sim

    with pytest.raises(AttributeError, match="no_such_export"):
        repro.sim.no_such_export
    assert not hasattr(repro, "no_such_export")


def test_lazy_export_is_the_module_attribute():
    import repro
    from repro.sim.serving import ServingSimulator

    assert repro.ServingSimulator is ServingSimulator
