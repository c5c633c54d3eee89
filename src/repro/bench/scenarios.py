"""Canonical benchmark scenarios of the ``versal-gemm bench`` harness.

The serving scenario's 1M-request streaming percentiles are pinned
exactly in tier-1 (``tests/conformance/test_golden_serve.py``), so
changing a constant here changes that golden too.
"""

from __future__ import annotations

import json

from repro.core.multi_acc import AcceleratorPartition
from repro.mapping.configs import config_by_name
from repro.workloads.gemm import GemmShape

#: the serving scenario: request mix, partition, load and trace seed
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

#: the eval kind's DSE throughput workload
EVAL_WORKLOAD = GemmShape(1024, 1024, 1024)


def build_partition(configs=SERVING_CONFIGS) -> AcceleratorPartition:
    """The named-config partition every serving benchmark dispatches over."""
    return AcceleratorPartition([config_by_name(name) for name in configs])


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
