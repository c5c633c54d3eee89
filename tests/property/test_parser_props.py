"""Property-based tests: spec and shape parsers fail only with ValueError.

Every user-facing text grammar (``--slo``, ``--faults`` and the
``MxKxN`` shape notation) must either return a value or raise
``ValueError`` (``FaultError`` is a subclass) for any input, so the CLI
can turn a bad argument into a one-line error instead of a traceback.
Inputs mix arbitrary text with grammar fragments, so the strategies
reach the numeric-conversion paths and not only the first syntax check.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.hw.specs import VCK5000
from repro.obs.slo import parse_slo
from repro.sim.chaos import parse_fault_spec
from repro.workloads.gemm import GemmShape

NUMBERS = ["0", "1", "-1", "0.5", "2.5", "1e999", "1e-999", "nan", "inf", "", "x"]


def _joined(fragments, separator="", max_size=6):
    return st.lists(st.sampled_from(fragments), max_size=max_size).map(
        separator.join
    )


slo_texts = st.one_of(
    st.text(max_size=40),
    _joined(["p99", "p0", "p100", "p99.9", "<", "<=", ">", "avail", "shed",
             "ns", "us", "ms", "s", ",", " ", *NUMBERS], max_size=8),
)
shape_texts = st.one_of(
    st.text(max_size=40),
    _joined(["x", "X", "1", "0", "-3", "1e3", "512", " ", "a", "_1"], max_size=7),
)
fault_windows = st.builds(
    lambda parts: ":".join(parts),
    st.lists(
        st.sampled_from(["C5", "C3", "C9", "down", "slow", "clock", "dram",
                         "drambw", "cols", *NUMBERS]),
        max_size=6,
    ),
)
fault_texts = st.one_of(
    st.text(max_size=40),
    st.lists(fault_windows, max_size=4).map(",".join),
    st.sampled_from(["", "0", "-1", "3", "x", "1.5", "99"]).map("chaos:{}".format),
)


def _value_or_value_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@given(slo_texts)
def test_parse_slo_raises_only_value_error(text):
    spec = _value_or_value_error(parse_slo, text)
    if spec is not None:
        for objective in spec.objectives:
            if objective.threshold_seconds is not None:
                assert 0 < objective.threshold_seconds < math.inf


@given(fault_texts)
def test_parse_fault_spec_raises_only_value_error(text):
    _value_or_value_error(
        lambda spec: parse_fault_spec(spec, ["C5", "C3"], device=VCK5000), text
    )


@given(shape_texts)
def test_gemm_shape_parse_raises_only_value_error(text):
    shape = _value_or_value_error(GemmShape.parse, text)
    if shape is not None:
        assert min(shape.m, shape.k, shape.n) > 0


@pytest.mark.parametrize("spec", ["p99<1e999s", "p50<2e308", "p99.9<1e400ms"])
def test_parse_slo_rejects_non_finite_threshold_by_clause(spec):
    with pytest.raises(ValueError, match="finite") as error:
        parse_slo(spec)
    assert spec in str(error.value)
