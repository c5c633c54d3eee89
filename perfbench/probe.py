"""Run one ``versal-gemm`` invocation with spans around each layer.

    python3 perfbench/probe.py SPANS.json <versal-gemm arguments...>

Behaves like ``python -m repro.cli <arguments...>`` (same stdout, same
exit status) and also writes SPANS.json: the self time and self
resident-set growth of each layer below, and the monotonic clock at
start and end (so the caller can attribute interpreter boot and
teardown).  Spans are kept in memory and written once.

Layers are recorded around calls into the program, never inside it:

* ``import``       -- every ``import`` statement executed, outermost only
* ``native_build`` -- executing ``repro.sim._native`` (compile + self-check
  of the C dispatch kernel), wherever it is first imported
* ``model``        -- analytical-model evaluation: the serving service-table
  prewarm, DSE exploration, experiment drivers, single estimates
* ``tracegen``     -- request-trace generation
* ``dispatch``     -- ``ServingSimulator.run`` and the sharded cluster's
  serve and pool shutdown (worker start-up and transport included)
* ``slo``          -- SLO evaluation and the windowed timeline render
* ``export``       -- trace, monitor and Prometheus file writers
* ``report``       -- the rest of the CLI's ``main``: argument parsing,
  report assembly and rendering

A layer entered while it is already open (an estimate inside a prewarm)
is not counted again.  Only the main thread records spans.
"""

import time

START = time.clock_gettime(time.CLOCK_MONOTONIC)

import builtins  # noqa: E402
import functools  # noqa: E402
import importlib.abc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

NATIVE_MODULE = "repro.sim._native"

#: module -> [(attribute path, layer)] wrapped as soon as the module loads
HOOKS = {
    "repro.sim.serving": [
        ("ServingSimulator.prewarm", "model"),
        ("ServingSimulator.run", "dispatch"),
    ],
    "repro.core.dse": [("DesignSpaceExplorer.explore", "model")],
    "repro.core.analytical_model": [("AnalyticalModel.estimate", "model")],
    "repro.sim.streaming": [("generate_trace_soa", "tracegen")],
    "repro.sim.cluster_serving": [
        ("ShardedServingCluster.serve", "dispatch"),
        ("ShardedServingCluster.close", "dispatch"),
    ],
    "repro.obs.slo": [("evaluate_slo", "slo")],
    "repro.obs.metrics": [("MetricsRegistry.to_prometheus", "export")],
    "repro.cli": [
        ("run_experiment", "model"),
        ("_render_monitor_timeline", "slo"),
        ("_write_trace_file", "export"),
        ("_write_monitor_file", "export"),
    ],
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Layers:
    """Self time and self resident-set growth per layer from nested spans.

    A layer's RSS growth is how far the process's high-water mark rose
    while it was the innermost open span.
    """

    def __init__(self):
        self.self_seconds: dict[str, float] = {}
        self.self_rss_mb: dict[str, float] = {}
        # [layer, seconds covered by children, RSS growth inside children]
        self._stack: list[list] = []
        self._open: dict[str, int] = {}
        self._main = threading.main_thread().ident

    def call(self, layer, fn, *args, **kwargs):
        if self._open.get(layer) or threading.get_ident() != self._main:
            return fn(*args, **kwargs)
        self._open[layer] = 1
        self._stack.append([layer, 0.0, 0.0])
        start, rss = clock(), max_rss_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed, grown = clock() - start, max_rss_mb() - rss
            _, child_seconds, child_rss = self._stack.pop()
            self._open[layer] = 0
            self.self_seconds[layer] = (
                self.self_seconds.get(layer, 0.0) + elapsed - child_seconds
            )
            self.self_rss_mb[layer] = self.self_rss_mb.get(layer, 0.0) + grown - child_rss
            if self._stack:
                self._stack[-1][1] += elapsed
                self._stack[-1][2] += grown


LAYERS = Layers()


def _wrap(layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return LAYERS.call(layer, fn, *args, **kwargs)

    return wrapper


def _patch(module) -> None:
    for path, layer in HOOKS.get(module.__name__, ()):
        owner, _, name = path.rpartition(".")
        target = getattr(module, owner) if owner else module
        if name in vars(target):
            setattr(target, name, _wrap(layer, vars(target)[name]))


class _LoadHook(importlib.abc.MetaPathFinder):
    """Times the native module's execution and patches hooked modules
    right after they execute."""

    def find_spec(self, fullname, path, target=None):
        if fullname != NATIVE_MODULE and fullname not in HOOKS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def timed_exec(module):
            if fullname == NATIVE_MODULE:
                LAYERS.call("native_build", exec_module, module)
            else:
                exec_module(module)
            _patch(module)

        spec.loader.exec_module = timed_exec
        return spec


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.meta_path.insert(0, _LoadHook())
    real_import = builtins.__import__

    def timed_import(*args, **kwargs):
        return LAYERS.call("import", real_import, *args, **kwargs)

    builtins.__import__ = timed_import
    import repro.cli

    status = LAYERS.call("report", repro.cli.main, argv)
    end = clock()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({
            "start": START,
            "end": end,
            "seconds": LAYERS.self_seconds,
            "rss_mb": LAYERS.self_rss_mb,
        }, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
