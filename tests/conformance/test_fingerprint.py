"""Differential conformance of the design fingerprint.

``design_fingerprint`` keys every evaluation-cache level, so two designs
must share a fingerprint exactly when the model cannot tell them apart.
Its ``_freeze`` returns exact-type scalar leaves before any ABC check
and caches each dataclass type's field names.  The oracle below is the
straightforward recursion it replaced, kept verbatim; both must produce
equal fingerprints over every DSE candidate (all precisions, with and
without the DRAM-port axis: 1443 designs), the Table II configurations,
and the devices ``SensitivityAnalysis`` perturbs.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Hashable, Mapping

import pytest

from repro.core.dse import DesignSpaceExplorer
from repro.core.sensitivity import SensitivityAnalysis
from repro.hw.dram import DramPorts
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import ALL_CONFIGS, config_by_name
from repro.perf.cache import NullCache, design_fingerprint
from repro.workloads.gemm import GemmShape


# the fingerprint recursion as it stood before the leaf fast path and
# the field-name cache, verbatim
def _freeze(value: Any) -> Hashable:
    """Recursively convert a value into a hashable canonical form."""
    if isinstance(value, enum.Enum):
        return (type(value).__qualname__, value.name)
    if isinstance(value, Mapping):
        return tuple(
            sorted(((_freeze(k), _freeze(v)) for k, v in value.items()), key=repr)
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((_freeze(v) for v in value), key=repr))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__qualname__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    return value


def _assert_same(designs):
    for design in designs:
        expected = _freeze(design)
        actual = design_fingerprint(design)
        assert actual == expected, design.config.name


@pytest.mark.parametrize("explore_ports", [False, True])
@pytest.mark.parametrize("precision", list(Precision), ids=str)
def test_dse_candidates(precision, explore_ports):
    designs = DesignSpaceExplorer(precision, explore_ports=explore_ports).candidates()
    assert designs
    _assert_same(designs)


def test_table_ii_configs():
    designs = [CharmDesign(config) for config in ALL_CONFIGS]
    _assert_same(designs)
    _assert_same([design.with_single_buffering() for design in designs])
    _assert_same([design.with_ports(DramPorts(2, 1)) for design in designs])


class _Recording(SensitivityAnalysis):
    """Keeps every perturbed design the analysis evaluates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.designs: list[CharmDesign] = []

    def _evaluate(self, parameter, value, design):
        self.designs.append(design)
        return super()._evaluate(parameter, value, design)


@pytest.mark.parametrize("config", ["C3", "C6", "C7"])
def test_sensitivity_perturbed_devices(config):
    base = CharmDesign(config_by_name(config))
    analysis = _Recording(base, GemmShape(2048, 2048, 2048), cache=NullCache())
    analysis.summary()
    analysis.dram_channel_bandwidth([12.8e9, 25.6e9, 51.2e9])
    devices = {_freeze(design.device) for design in analysis.designs}
    assert len(devices) > 1  # the sweep really perturbed the device
    _assert_same(analysis.designs)
