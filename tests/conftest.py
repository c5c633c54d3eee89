"""Shared fixtures for the test suite."""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings

# the compiled dispatch kernel is cached under $XDG_CACHE_HOME; give the
# test run (and every subprocess it starts) its own, so tests neither
# read nor leave files in the user's cache
_KERNEL_CACHE = tempfile.mkdtemp(prefix="repro-test-cache-")
os.environ["XDG_CACHE_HOME"] = _KERNEL_CACHE
atexit.register(shutil.rmtree, _KERNEL_CACHE, ignore_errors=True)


@pytest.fixture(autouse=True)
def _no_stored_service_tables():
    """Every test starts from an empty service-table cache: a serve that
    finds a table stored by an earlier test evaluates nothing, which
    would make eval counters depend on test order.  The compiled kernel
    in the same directory is kept."""
    directory = os.path.join(_KERNEL_CACHE, "repro")
    if os.path.isdir(directory):
        for name in os.listdir(directory):
            if name.startswith("services-"):
                os.unlink(os.path.join(directory, name))

# property tests explore deterministically so the suite gives the same
# verdict on every run (counterexamples are hunted during development,
# not at release-verification time)
settings.register_profile(
    "deterministic",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

from repro.hw.specs import VCK5000
from repro.kernels.precision import Precision
from repro.mapping.charm import CharmDesign
from repro.mapping.configs import ALL_CONFIGS, config_by_name
from repro.workloads.gemm import GemmShape


@pytest.fixture
def device():
    return VCK5000


@pytest.fixture(params=[c.name for c in ALL_CONFIGS])
def any_config(request):
    """Parametrised over every Table II configuration."""
    return config_by_name(request.param)


@pytest.fixture
def c1_design():
    return CharmDesign(config_by_name("C1"))


@pytest.fixture
def c6_design():
    return CharmDesign(config_by_name("C6"))


@pytest.fixture
def c11_design():
    return CharmDesign(config_by_name("C11"))


@pytest.fixture
def square_2048():
    return GemmShape(2048, 2048, 2048)


@pytest.fixture(params=[Precision.FP32, Precision.INT8])
def precision(request):
    return request.param
