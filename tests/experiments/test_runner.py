"""The experiment runner's driver table."""

import pytest

from repro.experiments import available_experiments, run_experiment
from repro.experiments.runner import DRIVERS, resolve_driver

EXPECTED_IDS = [
    "buffering", "dram_ports",
    "ext_chaos", "ext_consistency", "ext_conv", "ext_decode", "ext_energy",
    "ext_faults", "ext_fragmentation", "ext_fusion", "ext_multi_acc",
    "ext_sensitivity", "ext_serving", "ext_spmm", "ext_transformer",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig5", "fig6", "fig7", "fig8", "fig9",
    "insights", "model_accuracy", "questions",
    "table1", "table2", "table3",
]


def test_available_experiments_keeps_every_id():
    assert available_experiments() == EXPECTED_IDS


@pytest.mark.parametrize("experiment_id", sorted(DRIVERS))
def test_every_entry_resolves_to_a_callable(experiment_id):
    module, _, function = DRIVERS[experiment_id].partition(":")
    driver = resolve_driver(experiment_id)
    assert callable(driver)
    assert driver.__module__ == f"repro.experiments.{module}"
    assert driver.__name__ == function


def test_ids_resolve_case_insensitively():
    assert resolve_driver("FIG13") is resolve_driver("fig13")


def test_unknown_id_names_the_known_ones():
    with pytest.raises(KeyError) as error:
        run_experiment("fig99")
    assert error.value.args[0] == (
        "unknown experiment 'fig99'; known: " + ", ".join(EXPECTED_IDS)
    )
