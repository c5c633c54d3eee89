"""Experiment kinds the repeated-run harness drives.

Every experiment implements the same tiny protocol: :meth:`prepare`
resolves shared state once, then :meth:`run_repeat` runs one repeat
and returns its metrics, and :meth:`close` releases what
:meth:`prepare` acquired.  Both kinds are pure wall-clock
measurements:

* ``eval`` — DSE evaluation-engine throughput, with the ranking
  identity of its serial and cached legs;
* ``paired`` — two legs of one serving path timed against each other.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import AbstractContextManager, ExitStack
from typing import Any, Callable

from repro.bench.scenarios import EVAL_WORKLOAD, ranking_bytes


class Experiment:
    """One benchmarkable experiment kind (see module docstring)."""

    kind = "abstract"

    def params(self) -> dict[str, Any]:
        """JSON-serializable parameters, recorded into result entries."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Resolve shared state once before any repeat runs."""

    def close(self) -> None:
        """Release what :meth:`prepare` acquired (after the last repeat)."""

    def run_repeat(self) -> dict[str, float]:
        """One repeat; returns this repeat's metric sample."""
        raise NotImplementedError


class EvalThroughputExperiment(Experiment):
    """N repeats of the DSE evaluation-engine throughput measurement.

    Serial seed-path exploration vs the memoized one, with
    byte-identical ranking verification.
    """

    kind = "eval"
    workload = EVAL_WORKLOAD
    #: DSE candidate-space bound
    max_aies = 48
    #: explorations timed per leg and repeat (the shape of a DSE session)
    inner_repeats = 3

    def params(self) -> dict[str, Any]:
        return {
            "workload": str(self.workload),
            "max_aies": self.max_aies,
            "inner_repeats": self.inner_repeats,
        }

    def _explorer(self, cache):
        from repro.core.dse import DesignSpaceExplorer

        from repro.kernels.precision import Precision

        return DesignSpaceExplorer(
            Precision.FP32,
            max_aies=self.max_aies,
            explore_ports=True,
            cache=cache,
        )

    def _timed(self, explorer):
        started = time.perf_counter()
        result = explorer.explore(self.workload)
        return time.perf_counter() - started, result

    def run_repeat(self) -> dict[str, float]:
        from repro.perf.cache import EvalCache, NullCache

        # A leg's time is that of inner_repeats explorations on a fresh
        # cache: the first one cold, the rest served by what it cached.
        # Each round times every leg's cold and warm exploration back to
        # back, and each is then taken at its minimum over the rounds, so
        # a slow slice of the host costs one sample rather than sinking
        # a whole leg (and with it a speedup ratio).
        legs = (("serial", NullCache), ("cached", EvalCache))
        cold = {name: math.inf for name, _ in legs}
        warm = dict(cold)
        results = {}
        for _ in range(self.inner_repeats):
            for name, cache in legs:
                explorer = self._explorer(cache())
                seconds, results[name] = self._timed(explorer)
                cold[name] = min(cold[name], seconds)
                # the serial leg has no cache: its every exploration is cold
                if name != "serial":
                    seconds = self._timed(explorer)[0]
                warm[name] = min(warm[name], seconds)
        leg = {
            name: cold[name] + (self.inner_repeats - 1) * warm[name]
            for name in cold
        }
        # every leg explores the same candidate set inner_repeats times
        candidates = self._explorer(NullCache()).candidates()
        evaluations = self.inner_repeats * len(candidates)
        identical = ranking_bytes(results["serial"]) == ranking_bytes(
            results["cached"]
        )
        return {
            "serial_seconds": leg["serial"],
            "cached_seconds": leg["cached"],
            "serial_evals_per_sec": evaluations / leg["serial"],
            "cached_evals_per_sec": evaluations / leg["cached"],
            "speedup_cached": leg["serial"] / leg["cached"],
            "rankings_identical": 1.0 if identical else 0.0,
        }


#: one timed leg: runs its workload once and returns nothing
Leg = Callable[[], object]


class PairedExperiment(Experiment):
    """Two legs of one measurement, timed back to back in every repeat.

    ``setup`` is a context-manager factory: :meth:`prepare` enters it
    and it yields the ``(base, change)`` legs, already warmed, and
    :meth:`close` exits it (a shard pool, say, is shut there).  A
    repeat collects garbage, runs each leg once untimed, then runs
    ``rounds`` rounds, each timing both legs back to back
    and each leading with the leg the previous round ran second, so a
    host that speeds up or slows down mid-run moves both legs alike
    rather than one; legs of a few milliseconds take several rounds
    to outlast the host's jitter.  A repeat reports each leg's mean
    seconds per round, ``ratio``, the median over its rounds of
    ``change_s / base_s`` (one hiccup in either leg moves one round's
    ratio, not the repeat's), and, given ``requests``,
    ``extra_ns_per_request``: what the change leg adds per request in
    absolute terms.  ``side`` returns further metrics,
    measured after the rounds of each repeat.
    """

    kind = "paired"

    def __init__(
        self,
        name: str,
        setup: Callable[[], AbstractContextManager[tuple[Leg, Leg]]],
        requests: int = 0,
        rounds: int = 1,
        side: Callable[[], dict[str, float]] | None = None,
    ):
        if rounds < 1:
            raise ValueError("need at least one round")
        self.name = name
        self.setup = setup
        self.requests = requests
        self.rounds = rounds
        self.side = side
        self._legs: dict[str, Leg] | None = None
        self._stack: ExitStack | None = None
        self._turn = 0

    def params(self) -> dict[str, Any]:
        return {"pair": self.name, "requests": self.requests, "rounds": self.rounds}

    def prepare(self) -> None:
        self.close()
        self._stack = ExitStack()
        base, change = self._stack.enter_context(self.setup())
        self._legs = {"base": base, "change": change}
        self._turn = 0

    def close(self) -> None:
        if self._stack is not None:
            self._legs = None
            stack, self._stack = self._stack, None
            stack.close()

    def _time(self, leg: str) -> float:
        started = time.perf_counter()
        self._legs[leg]()
        return time.perf_counter() - started

    def run_repeat(self) -> dict[str, float]:
        if self._legs is None:
            self.prepare()
        # the previous repeat's garbage is collected outside the timing,
        # and each leg then runs once untimed, so the first timed round
        # is not charged what the collection left cold
        gc.collect()
        for leg in self._legs.values():
            leg()
        rounds = []
        for _ in range(self.rounds):
            order = ("base", "change") if self._turn % 2 == 0 else ("change", "base")
            self._turn += 1
            rounds.append({leg: self._time(leg) for leg in order})
        base = sum(seconds["base"] for seconds in rounds) / self.rounds
        change = sum(seconds["change"] for seconds in rounds) / self.rounds
        metrics = {
            "base_seconds": base,
            "change_seconds": change,
            "ratio": statistics.median(s["change"] / s["base"] for s in rounds),
        }
        if self.requests:
            metrics["extra_ns_per_request"] = (change - base) / self.requests * 1e9
        if self.side is not None:
            metrics.update(self.side())
        return metrics
