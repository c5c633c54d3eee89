"""Canonical benchmark scenarios shared by benchmarks/ and the harness.

The serving/eval/obs benchmark scripts and the ``versal-gemm bench``
smoke specs measure the same workloads against the same committed
``BENCH_*.json`` baselines; this module is the single home for the
scenario constants and setup helpers they used to copy-paste —
baseline comparability requires every consumer to agree on them
byte for byte.
"""

from __future__ import annotations

import json

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.workloads.gemm import GemmShape

#: the BENCH_serving.json scenario: request mix, partition, and load
SERVING_SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
    GemmShape(1024, 2048, 1024),
)
SERVING_CONFIGS = ("C5", "C3")
MEAN_INTERARRIVAL = 0.5e-3
SERVING_TRACE_SEED = 7
QUANTILE_ERROR = 0.01

#: the benchmarks/bench_obs_overhead.py scenario (three-shape mix, same
#: partition)
OBS_SHAPES = (
    GemmShape(1024, 1024, 1024),
    GemmShape(512, 512, 512),
    GemmShape(2048, 1024, 512),
)

#: the BENCH_eval.json scenario: the DSE throughput workload
EVAL_WORKLOAD = GemmShape(1024, 1024, 1024)


def build_partition(configs=SERVING_CONFIGS) -> AcceleratorPartition:
    """The named-config partition every serving benchmark dispatches over."""
    return AcceleratorPartition([config_by_name(name) for name in configs])


def dispatch_bytes(report) -> bytes:
    """Serialize dispatch decisions for byte-exact engine comparison."""
    names = report.accelerator_names
    rows = [
        (names[acc], repr(start), repr(finish))
        for acc, start, finish in zip(
            report.accelerator_ids.tolist(),
            report.starts.tolist(),
            report.finishes.tolist(),
        )
    ]
    return json.dumps(rows).encode()


def ranking_bytes(points) -> bytes:
    """Serialize a DSE ranking for byte-exact comparison (full float repr)."""
    rows = [
        {
            "config_grouping": repr(point.config.grouping),
            "num_plios": point.config.num_plios,
            "dram_ports": str(point.config.dram_ports),
            "seconds": repr(point.seconds),
        }
        for point in points
    ]
    return json.dumps(rows, sort_keys=True).encode()
