"""Chaos engineering for the serving simulator: time-varying faults.

:mod:`repro.hw.faults` derives *static* degraded devices (fused-off AIE
columns, lost DDR channels, derated clocks).  This module lifts those
injectors into **time-varying fault schedules** for
:class:`~repro.sim.serving.ServingSimulator`: an accelerator goes down
at ``t`` and comes back at ``t'``, or serves through a degraded
:class:`~repro.hw.specs.DeviceSpec` for a window of the run — the
yield/degradation scenarios a deployed Versal board actually faces.

The pieces:

* :class:`FaultWindow` — one half-open window ``[start, end)`` during
  which an accelerator is ``down`` or ``degraded`` (by a service-time
  ``factor`` or by a replacement ``device`` built with the
  ``repro.hw.faults`` injectors).
* :class:`FaultSchedule` — a validated, ordered set of windows; windows
  for the same accelerator must not overlap, so the accelerator's state
  at any instant is unambiguous.  Schedules compose with ``+``.
* :class:`FaultEvent` / :class:`RecoveryEvent` — the onset/clearance
  records a fault run attaches to its serving report.
* :class:`FaultPolicy` — what happens to a request whose execution a
  fault kills: retry with exponential backoff (bounded by
  ``max_retries``), failing over to surviving accelerators because the
  downed one is unavailable at the retry, and shed with accounting when
  the budget is exhausted or nothing is ever feasible.
* :func:`chaos_schedule` — a **seeded, deterministic** random schedule
  that composes the ``hw.faults`` injectors into outage/degradation
  windows across a partition (the "as many scenarios as you can
  imagine" generator).
* :func:`parse_fault_spec` — the CLI grammar behind
  ``versal-gemm serve --faults SPEC --fault-seed N``.

Determinism guarantee: a schedule is plain data; given the same trace,
schedule, policy, and dispatch path the fault run is bit-reproducible
(and identical between the scan oracle and the ``auto`` fast path —
enforced by ``tests/conformance``).  :func:`chaos_schedule` draws from the same
splitmix hash as trace generation, so ``--fault-seed`` reproduces the
schedule exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.hw.faults import (
    FaultError,
    derate_clock,
    derate_dram,
    disable_aie_columns,
    disable_dram_channels,
)
from repro.hw.specs import DeviceSpec
from repro.sim.streaming import splitmix_uniforms

_KINDS = ("down", "degraded")


@dataclass(frozen=True)
class FaultEvent:
    """A fault's onset: the accelerator leaves healthy service at ``time``."""

    time: float
    accelerator: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class RecoveryEvent:
    """A fault clears: the accelerator returns to healthy service."""

    time: float
    accelerator: str
    kind: str
    detail: str = ""


@dataclass(frozen=True)
class FaultWindow:
    """One accelerator's fault over the half-open window ``[start, end)``.

    ``kind="down"`` makes the accelerator unavailable; ``kind="degraded"``
    keeps it serving but slower — either by a plain service-time
    ``factor`` (>= 1) or through a replacement ``device`` built with the
    :mod:`repro.hw.faults` injectors (the design is re-validated and
    re-estimated on it; a design that does not survive the degraded
    device is treated as down for the window).
    """

    accelerator: str
    start: float
    end: float
    kind: str
    factor: float | None = None
    device: DeviceSpec | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise FaultError(f"fault kind must be one of {_KINDS}, got {self.kind!r}")
        if not (self.start >= 0 and self.end > self.start):
            raise FaultError(
                f"fault window needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.kind == "down":
            if self.factor is not None or self.device is not None:
                raise FaultError("down windows take neither factor nor device")
        else:
            if (self.factor is None) == (self.device is None):
                raise FaultError(
                    "degraded windows take exactly one of factor= or device="
                )
            if self.factor is not None and not self.factor >= 1.0:
                raise FaultError(
                    f"degradation factor must be >= 1, got {self.factor!r}"
                )

    @property
    def detail(self) -> str:
        if self.label:
            return self.label
        if self.kind == "down":
            return "down"
        if self.factor is not None:
            return f"{self.factor:g}x slower"
        return self.device.name

    def duration(self) -> float:
        return self.end - self.start


class FaultSchedule:
    """A validated, time-ordered set of fault windows.

    Windows belonging to the same accelerator must not overlap (the
    accelerator's state at any instant must be unambiguous); windows of
    different accelerators may.  Schedules are immutable plain data and
    compose with ``+``.
    """

    def __init__(self, windows: Sequence[FaultWindow] = ()):
        ordered = sorted(windows, key=lambda w: (w.start, w.end, w.accelerator))
        last_end: dict[str, float] = {}
        for window in ordered:
            previous = last_end.get(window.accelerator)
            if previous is not None and window.start < previous:
                raise FaultError(
                    f"overlapping fault windows for {window.accelerator!r} "
                    f"(window starting at {window.start} overlaps one ending "
                    f"at {previous})"
                )
            last_end[window.accelerator] = window.end
        self.windows: tuple[FaultWindow, ...] = tuple(ordered)

    # -- construction helpers ------------------------------------------
    @staticmethod
    def down(accelerator: str, start: float, end: float) -> "FaultSchedule":
        return FaultSchedule([FaultWindow(accelerator, start, end, "down")])

    @staticmethod
    def degraded(
        accelerator: str,
        start: float,
        end: float,
        *,
        factor: float | None = None,
        device: DeviceSpec | None = None,
        label: str = "",
    ) -> "FaultSchedule":
        return FaultSchedule(
            [
                FaultWindow(
                    accelerator, start, end, "degraded",
                    factor=factor, device=device, label=label,
                )
            ]
        )

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(self.windows + other.windows)

    def __len__(self) -> int:
        return len(self.windows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self.windows == other.windows

    # -- queries --------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.windows

    def accelerators(self) -> tuple[str, ...]:
        return tuple(sorted({w.accelerator for w in self.windows}))

    def for_accelerator(self, name: str) -> tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.accelerator == name)

    def events(self) -> list[FaultEvent | RecoveryEvent]:
        """Onset/clearance records, ordered by (time, accelerator)."""
        records: list[FaultEvent | RecoveryEvent] = []
        for window in self.windows:
            records.append(
                FaultEvent(window.start, window.accelerator, window.kind, window.detail)
            )
            records.append(
                RecoveryEvent(window.end, window.accelerator, window.kind, window.detail)
            )
        records.sort(key=lambda e: (e.time, e.accelerator, isinstance(e, RecoveryEvent)))
        return records

    def transitions(self) -> tuple[float, ...]:
        """Every instant the schedule changes some accelerator's state."""
        times = {w.start for w in self.windows} | {w.end for w in self.windows}
        return tuple(sorted(times))

    def windows_overlapping(self, start: float, end: float) -> tuple[FaultWindow, ...]:
        """Fault windows intersecting the half-open span ``[start, end)``.

        The windowed-timeline renderers use this to mark which telemetry
        windows had a fault active (a window touching only the span's
        ``end`` instant does not count, matching half-open semantics).
        """
        if not end > start:
            raise FaultError(f"need start < end, got [{start}, {end})")
        return tuple(
            window
            for window in self.windows
            if window.start < end and window.end > start
        )

    def downtime(self, horizon: float) -> dict[str, float]:
        """Seconds each faulted accelerator spends *down* within
        ``[0, horizon]`` (degraded windows keep the accelerator serving,
        so they do not count)."""
        out: dict[str, float] = {}
        for window in self.windows:
            if window.kind != "down":
                continue
            overlap = max(0.0, min(window.end, horizon) - min(window.start, horizon))
            out[window.accelerator] = out.get(window.accelerator, 0.0) + overlap
        return out


@dataclass(frozen=True)
class FaultPolicy:
    """What happens to requests a fault interrupts.

    A killed request retries after an exponential backoff
    ``min(backoff_base * backoff_factor**(attempt-1), backoff_cap)``
    measured from the kill instant; the downed accelerator is
    unavailable at the retry, so the request *fails over* to whatever
    survives.  After ``max_retries`` kills the request is **shed** with
    accounting (it appears in the report's shed list, never as
    completed).
    """

    max_retries: int = 3
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    backoff_cap: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base <= 0:
            raise ValueError("backoff_base must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")

    def backoff(self, attempt: int) -> float:
        """Backoff before re-attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_cap,
        )


DEFAULT_FAULT_POLICY = FaultPolicy()


# ----------------------------------------------------------------------
# seeded chaos composition
# ----------------------------------------------------------------------

#: device injectors a chaos schedule composes for degraded windows, in
#: the order the seeded draw indexes them
_CHAOS_INJECTORS = (
    ("clock derate 0.8", lambda device: derate_clock(device, 0.8)),
    ("dram derate 0.5", lambda device: derate_dram(device, 0.5)),
    ("1 dram channel down", lambda device: disable_dram_channels(device, 1)),
    ("1 aie column fused", lambda device: disable_aie_columns(device, 1)),
)


def chaos_schedule(
    accelerators: Sequence[str],
    horizon: float,
    seed: int = 0,
    *,
    device: DeviceSpec | None = None,
    outages_per_accelerator: int = 2,
    mean_outage_fraction: float = 0.08,
    down_fraction: float = 0.5,
) -> FaultSchedule:
    """A seeded, deterministic random fault schedule over a partition.

    Each accelerator gets ``outages_per_accelerator`` windows spread
    over ``[0, horizon)``: one per equal time slot, with seeded start,
    duration (around ``mean_outage_fraction`` of the horizon, clamped
    inside the slot so windows never overlap), and kind — ``down`` with
    probability ``down_fraction``, otherwise ``degraded`` through one of
    the :mod:`repro.hw.faults` injectors when ``device`` is given (a
    plain service-time factor in ``[1.5, 3.5)`` otherwise).

    The draw comes from the same splitmix hash as trace generation, so
    a ``(accelerators, horizon, seed)`` triple always produces the same
    schedule — chaos runs are replayable.
    """
    if horizon <= 0:
        raise FaultError("chaos horizon must be positive")
    if outages_per_accelerator < 1:
        raise FaultError("need at least one outage per accelerator")
    if not accelerators:
        raise FaultError("need at least one accelerator")
    windows: list[FaultWindow] = []
    draws_per_window = 4
    for acc_index, name in enumerate(sorted(accelerators)):
        base = acc_index * outages_per_accelerator * draws_per_window
        uniforms = splitmix_uniforms(
            seed,
            np.arange(
                base, base + outages_per_accelerator * draws_per_window,
                dtype=np.uint64,
            ),
        )
        slot = horizon / outages_per_accelerator
        for outage in range(outages_per_accelerator):
            u_start, u_len, u_kind, u_pick = uniforms[
                outage * draws_per_window : (outage + 1) * draws_per_window
            ]
            slot_begin = outage * slot
            start = slot_begin + float(u_start) * slot * 0.5
            duration = min(
                horizon * mean_outage_fraction * (0.5 + float(u_len)),
                slot_begin + slot - start,
            )
            end = start + duration
            if end <= start:
                continue
            if float(u_kind) < down_fraction:
                windows.append(FaultWindow(name, start, end, "down"))
            elif device is not None:
                label, injector = _CHAOS_INJECTORS[
                    int(float(u_pick) * len(_CHAOS_INJECTORS))
                ]
                windows.append(
                    FaultWindow(
                        name, start, end, "degraded",
                        device=injector(device), label=label,
                    )
                )
            else:
                factor = 1.5 + 2.0 * float(u_pick)
                windows.append(
                    FaultWindow(name, start, end, "degraded", factor=factor)
                )
    return FaultSchedule(windows)


# ----------------------------------------------------------------------
# CLI spec grammar
# ----------------------------------------------------------------------

_SPEC_HELP = (
    "fault spec: 'chaos' (seeded random schedule) or comma-separated "
    "windows ACC:down:T0:T1, ACC:slow:FACTOR:T0:T1, ACC:clock:FRACTION:T0:T1, "
    "ACC:dram:CHANNELS:T0:T1, ACC:drambw:FRACTION:T0:T1, ACC:cols:N:T0:T1"
)


def parse_fault_spec(
    spec: str,
    accelerators: Sequence[str],
    *,
    device: DeviceSpec | None = None,
    seed: int = 0,
    horizon: float = 1.0,
) -> FaultSchedule:
    """Parse the CLI's ``--faults`` grammar into a :class:`FaultSchedule`.

    ``spec`` is either ``chaos`` / ``chaos:K`` (a seeded random schedule
    with ``K`` outages per accelerator over ``horizon``) or a
    comma-separated list of explicit windows::

        C5:down:0.05:0.10          accelerator C5 down in [0.05, 0.10)
        C3:slow:2.5:0.10:0.30      C3 serves 2.5x slower
        C5:clock:0.8:0.0:0.2       C5 on a derate_clock(0.8) device
        C3:dram:2:0.1:0.4          C3 with 2 DRAM channels disabled
        C5:drambw:0.5:0.1:0.4      C5 with DRAM bandwidth derated to 50%
        C3:cols:1:0.2:0.5          C3 with one AIE column fused off
    """
    spec = spec.strip()
    if not spec:
        raise FaultError("empty fault spec; " + _SPEC_HELP)
    if spec == "chaos" or spec.startswith("chaos:"):
        outages = 2
        if spec.startswith("chaos:"):
            try:
                outages = int(spec.split(":", 1)[1])
            except ValueError:
                raise FaultError(f"bad chaos outage count in {spec!r}") from None
        return chaos_schedule(
            accelerators, horizon, seed,
            device=device, outages_per_accelerator=outages,
        )
    known = set(accelerators)
    schedule = FaultSchedule()
    for item in (token.strip() for token in spec.split(",") if token.strip()):
        parts = item.split(":")
        name = parts[0]
        if name not in known:
            raise FaultError(
                f"unknown accelerator {name!r} in fault spec "
                f"(partition has {sorted(known)})"
            )
        try:
            if len(parts) == 4 and parts[1] == "down":
                start, end = float(parts[2]), float(parts[3])
                schedule = schedule + FaultSchedule.down(name, start, end)
                continue
            if len(parts) == 5:
                kind, value = parts[1], parts[2]
                start, end = float(parts[3]), float(parts[4])
                if kind == "slow":
                    schedule = schedule + FaultSchedule.degraded(
                        name, start, end,
                        factor=float(value), label=f"{float(value):g}x slower",
                    )
                    continue
                if kind in ("clock", "dram", "drambw", "cols"):
                    if device is None:
                        raise FaultError(
                            f"{kind!r} windows need a device to degrade"
                        )
                    injected = {
                        "clock": lambda: derate_clock(device, float(value)),
                        "drambw": lambda: derate_dram(device, float(value)),
                        "dram": lambda: disable_dram_channels(device, int(value)),
                        "cols": lambda: disable_aie_columns(device, int(value)),
                    }[kind]()
                    schedule = schedule + FaultSchedule.degraded(
                        name, start, end,
                        device=injected, label=f"{kind} {value}",
                    )
                    continue
        except FaultError:
            raise
        except ValueError:
            raise FaultError(f"bad fault window {item!r}; " + _SPEC_HELP) from None
        raise FaultError(f"bad fault window {item!r}; " + _SPEC_HELP)
    if schedule.is_empty:
        raise FaultError("fault spec produced no windows; " + _SPEC_HELP)
    return schedule
