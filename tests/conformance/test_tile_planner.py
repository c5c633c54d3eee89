"""Differential conformance of the DRAM-level tile planner.

``plan_tiling`` searches the ``(am, an)`` PL-tile multiples and picks
``ak`` in closed form.  It must choose exactly what the full
``(am, ak, an)`` search chooses.  The oracle below is that search, kept
verbatim (minus the custom-objective hook, which only ever defaulted to
DRAM traffic): it builds a ``TilePlan`` for every cell and keeps the
first one with the least ``(traffic, tile count)``.

Swept: every Table II configuration against the Table III workloads,
the four-shape serving mix and hypothesis shapes up to 9000 per
dimension, single and double buffered, at the device budget and at
overridden ones — including a budget below the minimal plan, which must
raise the same ``ValueError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.specs import VCK5000, DeviceSpec
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import ALL_CONFIGS, config_by_name
from repro.mapping.tiling import TilePlan, plan_tiling
from repro.workloads.dnn import DNN_WORKLOADS
from repro.workloads.gemm import GemmShape

#: the serving mix every perfbench serve offers
SERVE_SHAPES = tuple(
    GemmShape.parse(text)
    for text in ("1024x1024x1024", "512x512x512", "2048x1024x512", "1024x2048x1024")
)
SHAPES = tuple(w.shape for w in DNN_WORKLOADS) + SERVE_SHAPES

#: None = the device's usable PL memory; the others override it
BUDGETS = (None, VCK5000.pl_usable_bytes // 3, VCK5000.pl_memory_bytes)


def oracle_plan_tiling(
    workload: GemmShape,
    native: GemmShape,
    precision: Precision,
    device: DeviceSpec = VCK5000,
    double_buffered: bool = True,
    max_multiple: int = 16,
    budget_bytes: int | None = None,
) -> TilePlan:
    """The full ``(am, ak, an)`` search ``plan_tiling`` replaced."""
    padded = workload.padded_to(native)
    limits = (
        min(max_multiple, padded.m // native.m),
        min(max_multiple, padded.k // native.k),
        min(max_multiple, padded.n // native.n),
    )
    best: TilePlan | None = None
    best_key: tuple[float, float] | None = None
    for am in range(1, limits[0] + 1):
        for ak in range(1, limits[1] + 1):
            for an in range(1, limits[2] + 1):
                plan = TilePlan(workload, native, precision, (am, ak, an), double_buffered)
                if not plan.fits(device, budget_bytes):
                    continue
                score = float(plan.traffic().total)
                key = (score, float(plan.num_dram_tiles))
                if best_key is None or key < best_key:
                    best, best_key = plan, key
    if best is None:
        minimal = TilePlan(workload, native, precision, (1, 1, 1), double_buffered)
        budget = device.pl_usable_bytes if budget_bytes is None else budget_bytes
        raise ValueError(
            f"no tile plan fits: native {native} needs "
            f"{minimal.pl_footprint_bytes()} B, budget is {budget} B"
        )
    return best


def _outcome(planner, workload, design, double_buffered, budget):
    """The chosen multiples, or the ``ValueError`` text."""
    try:
        plan = planner(
            workload,
            design.native_size,
            design.precision,
            double_buffered=double_buffered,
            budget_bytes=budget,
        )
    except ValueError as error:
        return str(error)
    return plan.multiples


def _assert_same(workload, design, double_buffered, budget):
    expected = _outcome(oracle_plan_tiling, workload, design, double_buffered, budget)
    actual = _outcome(plan_tiling, workload, design, double_buffered, budget)
    assert actual == expected, (design.config.name, str(workload), double_buffered, budget)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_table_shapes_match_the_full_search(config):
    design = CharmDesign(config)
    for workload in SHAPES:
        for double_buffered in (True, False):
            for budget in BUDGETS:
                _assert_same(workload, design, double_buffered, budget)


@settings(max_examples=150, deadline=None)
@given(
    config=st.sampled_from(ALL_CONFIGS),
    m=st.integers(1, 9000),
    k=st.integers(1, 9000),
    n=st.integers(1, 9000),
    double_buffered=st.booleans(),
    budget=st.sampled_from(BUDGETS),
)
def test_random_shapes_match_the_full_search(config, m, k, n, double_buffered, budget):
    _assert_same(GemmShape(m, k, n), CharmDesign(config), double_buffered, budget)


@pytest.mark.parametrize("double_buffered", [True, False])
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_budget_at_and_below_the_minimal_plan(config, double_buffered):
    design = CharmDesign(config)
    workload = GemmShape(2048, 2048, 2048)
    minimal = TilePlan(
        workload, design.native_size, design.precision, (1, 1, 1), double_buffered
    ).pl_footprint_bytes()
    _assert_same(workload, design, double_buffered, minimal)
    assert _outcome(plan_tiling, workload, design, double_buffered, minimal) == (1, 1, 1)
    below = _outcome(plan_tiling, workload, design, double_buffered, minimal - 1)
    assert below == f"no tile plan fits: native {design.native_size} needs {minimal} B, budget is {minimal - 1} B"
    _assert_same(workload, design, double_buffered, minimal - 1)


def _tied_cells(workload, design, budget):
    """Every fitting ``(am, ak, an)`` with the least (traffic, tiles)."""
    keys = {}
    native = design.native_size
    padded = workload.padded_to(native)
    for am in range(1, min(16, padded.m // native.m) + 1):
        for ak in range(1, min(16, padded.k // native.k) + 1):
            for an in range(1, min(16, padded.n // native.n) + 1):
                plan = TilePlan(workload, native, design.precision, (am, ak, an))
                if plan.fits(VCK5000, budget):
                    keys[(am, ak, an)] = (plan.traffic().total, plan.num_dram_tiles)
    best = min(keys.values())
    return sorted(cell for cell, key in keys.items() if key == best)


@pytest.mark.parametrize(
    "workload, budget, tied",
    [
        # one (am, an): ak = 3, 4 and 5 all leave two K tiles
        ("32x768x128", 1_000_000, [(1, 3, 1), (1, 4, 1), (1, 5, 1)]),
        # one (am, ak): an = 2 and 3 both leave two N tiles
        ("96x512x512", 800_000, [(3, 1, 2), (3, 1, 3)]),
    ],
)
def test_ties_go_to_the_first_cell_of_the_full_search(workload, budget, tied):
    """Hand-built ties: the winner is the smallest ``(am, ak, an)``.

    The largest feasible ``ak`` and the last-visited ``(am, an)`` reach
    the same key, so a planner that kept either would pick a different
    plan than the full search.
    """
    design = CharmDesign(config_by_name("C1"))
    shape = GemmShape.parse(workload)
    assert _tied_cells(shape, design, budget) == tied
    assert plan_tiling(
        shape, design.native_size, design.precision, budget_bytes=budget
    ).multiples == tied[0]
    _assert_same(shape, design, True, budget)
