"""The stored service table of ``versal-gemm serve``.

The analytical model is a pure function of (design, GEMM shape), so the
table a serve's prewarm builds — the service time of every
(accelerator, shape) pair, and the pairs the accelerator cannot run —
is the same in every process that serves the same configs and shapes
from the same source.  ``serve`` keeps it as
``$XDG_CACHE_HOME/repro/services-<key>.json`` after a cold prewarm, and
a later serve seeds its simulator from the file instead of importing
and running the model stack.

``<key>`` hashes the bytes of every ``.py`` file of the ``repro``
package (in relative-path order, each with its path), the interpreter
version, the config names in order and the unique shapes in first-seen
order, so any source edit invalidates every table.  The body is JSON:
``float`` repr round-trips exactly, and loading it runs no code, which
a pickle would.  Trust, seal and atomic publish are the native kernel
cache's (:mod:`repro.sim._disk_cache`).  A file that is missing,
unsealed, untrusted or does not cover every pair reads as no table; the
serve then recomputes it and replaces the file.

The table also keeps every *degraded* service a faulted serve has
resolved: the model's estimate for a config on a derated
:class:`~repro.hw.specs.DeviceSpec` (a device-degraded fault window),
keyed by config, :func:`device_fingerprint` and shape, or ``null`` for
a design that does not survive the fault.  A serve that resolves one
the file lacks publishes the grown table after its run, so a warm
faulted serve never runs the model.  An entry that does not parse, or
names a config or shape outside the table, makes the whole file read as
no table.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from collections.abc import Mapping
from typing import Sequence

from repro.sim._disk_cache import cache_dir, publish, read_sealed
from repro.workloads.gemm import GemmShape

#: the ``repro`` package directory, whose sources key every table
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Services = dict[tuple[str, GemmShape], float]
Infeasible = set[tuple[str, GemmShape]]
#: ``(config, device fingerprint, shape)`` -> degraded service, ``None``
#: where the design does not survive the degraded device
Degraded = dict[tuple[str, str, GemmShape], float | None]


def device_fingerprint(device) -> str:
    """A canonical hash of every field of a ``DeviceSpec``: two specs
    with equal fields share it, whatever fault window or label built
    them."""
    fields = []
    for field in dataclasses.fields(device):
        value = getattr(device, field.name)
        if isinstance(value, Mapping):
            value = sorted([str(getattr(key, "name", key)), item]
                           for key, item in value.items())
        fields.append([field.name, value])
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()[:16]


def _source_files() -> list[str]:
    """Every ``.py`` file of the package, as sorted relative paths."""
    return sorted(
        os.path.relpath(os.path.join(root, name), _PACKAGE).replace(os.sep, "/")
        for root, _, names in os.walk(_PACKAGE)
        for name in names
        if name.endswith(".py")
    )


def table_path(config_names: Sequence[str], shapes: Sequence[GemmShape]) -> str:
    """The cache file of the table for ``config_names`` x ``shapes``."""
    digest = hashlib.sha256()
    for relative in _source_files():
        with open(os.path.join(_PACKAGE, relative), "rb") as handle:
            source = handle.read()
        digest.update(f"{relative}\0{len(source)}\0".encode())
        digest.update(source)
    digest.update(json.dumps([
        sys.version,
        list(config_names),
        [str(shape) for shape in dict.fromkeys(shapes)],
    ]).encode())
    return os.path.join(cache_dir(), f"services-{digest.hexdigest()[:16]}.json")


def load(
    path: str, config_names: Sequence[str], shapes: Sequence[GemmShape]
) -> tuple[Services, Infeasible, Degraded] | None:
    """The stored ``(services, infeasible, degraded)`` table at
    ``path``, or ``None`` when there is no usable one covering every
    pair of ``config_names`` x ``shapes``."""
    body = read_sealed(path)
    if body is None:
        return None
    try:
        document = json.loads(body)
        services = {
            (name, GemmShape(*dims)): float(seconds)
            for name, dims, seconds in document["services"]
        }
        infeasible = {
            (name, GemmShape(*dims)) for name, dims in document["infeasible"]
        }
        degraded = {
            (name, str(fingerprint), GemmShape(*dims)): (
                None if seconds is None else float(seconds)
            )
            for name, fingerprint, dims, seconds in document["degraded"]
        }
    except (ValueError, TypeError, KeyError):
        return None
    pairs = {(name, shape) for name in config_names for shape in shapes}
    if services.keys() | infeasible != pairs or services.keys() & infeasible:
        return None
    if any((name, shape) not in pairs for name, _, shape in degraded):
        return None
    return services, infeasible, degraded


def store(
    path: str,
    services: Services,
    infeasible: Infeasible,
    degraded: Degraded | None = None,
) -> bool:
    """Write the table to ``path`` (``degraded`` none means no degraded
    service resolved yet); ``False`` if the cache is unwritable or
    untrusted."""
    document = {
        "services": [
            [name, [shape.m, shape.k, shape.n], seconds]
            for (name, shape), seconds in services.items()
        ],
        "infeasible": [
            [name, [shape.m, shape.k, shape.n]]
            for name, shape in sorted(infeasible)
        ],
        "degraded": [
            [name, fingerprint, [shape.m, shape.k, shape.n], seconds]
            for (name, fingerprint, shape), seconds in (degraded or {}).items()
        ],
    }
    return publish(json.dumps(document).encode(), path)
