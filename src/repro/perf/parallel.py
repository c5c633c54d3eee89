"""Deterministic thread fan-out for serving work.

``parallel_map`` runs ``fn`` over a list on a thread pool and returns
the results in input order, so its output is bit-identical to the
serial loop for any pure ``fn``.  Its caller is the load sweep's
points (:func:`repro.sim.serving.load_sweep`): serving work whose
native dispatch kernel and NumPy passes release the GIL, so threads
overlap them.  Model evaluation is pure Python under the GIL and stays
serial.  Threads (not processes) because the simulators hold
unpicklable ``MappingProxyType`` device tables.

An exception from ``fn`` propagates exactly as the serial loop raises
it: the earliest failing item in input order.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on.

    The size of its affinity mask where the platform has one (a
    ``taskset`` pin or a cpuset container shrinks it), else the
    machine's CPU count: the rule of Python 3.13's
    ``os.process_cpu_count``.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a jobs request: ``None``/``0`` means one per usable CPU."""
    if jobs is None or jobs == 0:
        return usable_cpus()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = 1,
) -> list[R]:
    """``[fn(x) for x in items]`` with ``jobs`` worker threads, order preserved.

    ``jobs=1`` (the default) runs the plain serial loop with zero pool
    overhead; ``jobs=0``/``None`` uses one worker per usable CPU.  Each
    item is its own task, so an uneven item costs one worker, not a
    chunk of its neighbours.
    """
    materialized = list(items)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(materialized) <= 1:
        return [fn(item) for item in materialized]
    # the pool module (and the threading it pulls in) loads only when
    # a run fans out
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, materialized))
