"""Deterministic parallel mapping for batched model evaluations.

``parallel_map`` is the one fan-out primitive every batch driver uses:
it chunks the item list, dispatches chunks to a thread pool, and stitches
results back in input order, so parallel output is bit-identical to the
serial output for any pure ``fn``.  Threads (not processes) because the
evaluated objects hold unpicklable ``MappingProxyType`` device tables and
the work is fine-grained; on free-threaded builds the pool scales across
cores, elsewhere it still overlaps any I/O and keeps one code path.

Failure semantics: if a chunk's future raises, the chunk is retried
serially item-by-item — a transient worker failure degrades to the
serial path without losing items, while a deterministic ``fn`` error
surfaces exactly as it would have serially.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: chunks submitted per worker: small enough to amortise dispatch
#: overhead, large enough to balance uneven per-item cost
_CHUNKS_PER_WORKER = 4


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


def default_chunksize(num_items: int, jobs: int) -> int:
    return max(1, math.ceil(num_items / (jobs * _CHUNKS_PER_WORKER)))


def _run_chunk(fn: Callable[[T], R], chunk: Sequence[T]) -> list[R]:
    return [fn(item) for item in chunk]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = 1,
    chunksize: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` with ``jobs`` workers, order preserved.

    ``jobs=1`` (the default) runs the plain serial loop with zero pool
    overhead; ``jobs=0``/``None`` uses one worker per usable CPU.
    Results are always returned in input order regardless of
    completion order.
    """
    materialized = list(items)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(materialized) <= 1:
        return [fn(item) for item in materialized]
    # the pool module (and the threading it pulls in) loads only when
    # a run fans out
    from concurrent.futures import ThreadPoolExecutor

    if chunksize is None:
        chunksize = default_chunksize(len(materialized), jobs)
    chunks = [
        materialized[start : start + chunksize]
        for start in range(0, len(materialized), chunksize)
    ]
    results: list[R] = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
        for future, chunk in zip(futures, chunks):
            try:
                results.extend(future.result())
            except Exception:
                # degrade to serial for this chunk; deterministic fn
                # errors re-raise here with serial semantics
                results.extend(fn(item) for item in chunk)
    return results
