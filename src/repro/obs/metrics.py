"""A metrics registry: named counters, gauges, and histograms.

One process-wide :class:`MetricsRegistry` (:data:`GLOBAL_METRICS`)
receives every subsystem's counters — the evaluation-engine stats that
``repro.perf.metrics`` publishes, fault accounting from chaos runs,
serving latency distributions — and renders them two ways:

* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (the ``--metrics-out metrics.prom`` CLI surface);
* :meth:`MetricsRegistry.snapshot` — a JSON-able dict for programmatic
  consumers and tests.

Histograms reuse :class:`repro.sim.streaming.QuantileSketch`, so the
registry inherits its documented relative-error bound and O(buckets)
memory instead of keeping raw samples.  All instruments are
thread-safe: concurrent ``--jobs N`` load-sweep points publish
without lost updates.

Metric naming follows the Prometheus conventions the docs page
describes: ``repro_<subsystem>_<quantity>[_total]``, lowercase, with
units in the name (``_seconds``, ``_total``).
"""

from __future__ import annotations

import copy
import json
import re
import threading
from typing import TYPE_CHECKING, Any, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim -> perf -> obs)
    from repro.sim.streaming import QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "GLOBAL_METRICS",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: quantiles exposed for histograms in both exposition formats
_EXPORT_QUANTILES = (50.0, 90.0, 95.0, 99.0)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{key}="{_escape_label(value)}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value (floats allowed, e.g. seconds)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can move both ways (``set``/``inc``/``dec``/``max_``)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def max_(self, value: float) -> None:
        """Keep the running maximum (e.g. peak worker count)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A quantile-sketch-backed distribution (Prometheus summary style).

    Backed by :class:`repro.sim.streaming.QuantileSketch`: count and sum
    are exact, quantiles carry the sketch's relative-error bound.
    """

    __slots__ = ("name", "labels", "sketch", "_lock")

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        relative_error: float = 0.01,
    ):
        # imported lazily: repro.sim.__init__ pulls in the serving stack,
        # which imports repro.perf.metrics, which imports this module
        from repro.sim.streaming import QuantileSketch

        self.name = name
        self.labels = labels
        self.sketch = QuantileSketch(relative_error)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.sketch.add(value)

    def observe_many(self, values: Iterable[float]) -> None:
        with self._lock:
            self.sketch.add_many(values)

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.sum

    def quantile(self, percentile: float) -> float:
        with self._lock:
            return self.sketch.quantile(percentile)

    def quantiles(self, percentiles: Sequence[float]) -> list[float]:
        with self._lock:
            return self.sketch.quantiles(percentiles)


class _Family:
    """All instruments sharing one metric name (distinct label sets)."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_: str):
        self.name = name
        self.kind = kind
        self.help = help_
        self.children: dict[tuple[tuple[str, str], ...], Any] = {}


class MetricsRegistry:
    """Get-or-create instrument registry with text/JSON exposition."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- instrument accessors ------------------------------------------
    def _get(
        self,
        kind: str,
        name: str,
        help_: str,
        labels: dict[str, str],
        factory,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for key in labels:
            if not _LABEL_RE.match(key):
                raise ValueError(f"invalid label name {key!r}")
        label_key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, help_)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as a {family.kind}"
                )
            if help_ and not family.help:
                family.help = help_
            instrument = family.children.get(label_key)
            if instrument is None:
                instrument = family.children[label_key] = factory(name, label_key)
            return instrument

    def counter(self, name: str, help_: str = "", **labels: str) -> Counter:
        return self._get("counter", name, help_, labels, Counter)

    def gauge(self, name: str, help_: str = "", **labels: str) -> Gauge:
        return self._get("gauge", name, help_, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_: str = "",
        relative_error: float = 0.01,
        **labels: str,
    ) -> Histogram:
        return self._get(
            "summary",
            name,
            help_,
            labels,
            lambda n, key: Histogram(n, key, relative_error),
        )

    def value(self, name: str, **labels: str) -> float:
        """A counter's or gauge's current value, ``0.0`` when absent.

        Unlike :meth:`counter`/:meth:`gauge` this never registers the
        family, so reading a total does not change the exposition.
        """
        label_key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            child = family.children.get(label_key) if family else None
            return child.value if child is not None else 0.0

    def atomic(self) -> threading.RLock:
        """The registry lock, for ``with registry.atomic(): ...``.

        Updates and reads grouped under it are indivisible with respect
        to :meth:`reset`, :meth:`dump`, :meth:`merge_dump` and other
        groups: a batch that publishes several counters is never seen
        half-applied.  Re-entrant, so the grouped calls may use the
        registry's own accessors.
        """
        return self._lock

    # -- maintenance ----------------------------------------------------
    def reset(self, prefix: str | None = None) -> None:
        """Drop every family (or only those whose name starts with
        ``prefix``) — the CLI resets per invocation."""
        with self._lock:
            if prefix is None:
                self._families.clear()
            else:
                for name in [n for n in self._families if n.startswith(prefix)]:
                    del self._families[name]

    def families(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    # -- cross-process merge --------------------------------------------
    def dump(self) -> list[dict]:
        """Picklable, *mergeable* state of every instrument.

        Unlike :meth:`snapshot` (which renders quantiles and drops the
        sketch buckets), a dump carries enough to reconstruct each
        instrument exactly: counter/gauge values and deep copies of the
        histogram sketches.  It contains no locks, so shard workers can
        ship it across a process boundary for the parent's
        :meth:`merge_dump`.
        """
        out: list[dict] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                children = []
                for label_key in sorted(family.children):
                    child = family.children[label_key]
                    if family.kind == "summary":
                        state: Any = copy.deepcopy(child.sketch)
                    else:
                        state = child.value
                    children.append((label_key, state))
                out.append(
                    {
                        "name": name,
                        "kind": family.kind,
                        "help": family.help,
                        "children": children,
                    }
                )
        return out

    def merge_dump(self, dump: list[dict]) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters add, histograms merge their sketches bucket-exactly,
        and gauges keep the running maximum — the gauges this registry
        publishes (peak worker counts, last-run throughput) all read
        sensibly under max when k shard workers report in.  Instruments
        the dump names are created on demand.  The whole dump folds in
        under the registry lock, so a concurrent read grouped under
        :meth:`atomic` sees all of it or none.
        """
        with self._lock:
            for family in dump:
                kind = family["kind"]
                name = family["name"]
                help_ = family["help"]
                for label_key, state in family["children"]:
                    labels = dict(label_key)
                    if kind == "counter":
                        self.counter(name, help_, **labels).inc(state)
                    elif kind == "gauge":
                        self.gauge(name, help_, **labels).max_(state)
                    else:
                        histogram = self.histogram(
                            name,
                            help_,
                            relative_error=state.relative_error,
                            **labels,
                        )
                        with histogram._lock:
                            histogram.sketch.merge(state)

    # -- exposition -----------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {family.help}")
                # sketch-backed distributions expose cumulative buckets,
                # so Prometheus/PromQL can histogram_quantile() them
                kind = "histogram" if family.kind == "summary" else family.kind
                lines.append(f"# TYPE {name} {kind}")
                for label_key in sorted(family.children):
                    child = family.children[label_key]
                    if family.kind == "summary":
                        with child._lock:
                            buckets = child.sketch.cumulative_buckets()
                        for upper, cumulative in buckets:
                            le = f'le="{upper:.9g}"'
                            lines.append(
                                f"{name}_bucket{_format_labels(label_key, le)} "
                                f"{cumulative}"
                            )
                        inf_label = 'le="+Inf"'
                        lines.append(
                            f"{name}_bucket{_format_labels(label_key, inf_label)} "
                            f"{child.count}"
                        )
                        lines.append(
                            f"{name}_sum{_format_labels(label_key)} {child.sum:.9g}"
                        )
                        lines.append(
                            f"{name}_count{_format_labels(label_key)} {child.count}"
                        )
                    else:
                        value = child.value
                        rendered = (
                            str(int(value)) if value == int(value) else f"{value:.9g}"
                        )
                        lines.append(f"{name}{_format_labels(label_key)} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able dict mirroring the exposition content."""
        out: dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                values = []
                for label_key in sorted(family.children):
                    child = family.children[label_key]
                    record: dict[str, Any] = {"labels": dict(label_key)}
                    if family.kind == "summary":
                        record["count"] = child.count
                        record["sum"] = child.sum
                        if child.count:
                            record["quantiles"] = {
                                f"p{int(p) if p == int(p) else p}": value
                                for p, value in zip(
                                    _EXPORT_QUANTILES,
                                    child.quantiles(list(_EXPORT_QUANTILES)),
                                )
                            }
                    else:
                        record["value"] = child.value
                    values.append(record)
                out[name] = {
                    "type": family.kind,
                    "help": family.help,
                    "values": values,
                }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


#: the process-wide registry; ``repro.perf.metrics`` publishes the
#: evaluation/fault stats here and the CLI's ``--metrics-out`` dumps it
GLOBAL_METRICS = MetricsRegistry()
