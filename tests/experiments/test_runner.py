"""The experiment runner's driver table, and the claim each id supports."""

from collections import Counter
from pathlib import Path

import pytest

from repro.experiments import available_experiments, run_experiment
from repro.experiments.research_questions import RESEARCH_QUESTIONS
from repro.experiments.runner import DRIVERS, resolve_driver

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

EXPECTED_IDS = [
    "buffering", "dram_ports",
    "ext_chaos", "ext_consistency", "ext_decode", "ext_energy",
    "ext_faults", "ext_fragmentation", "ext_fusion", "ext_multi_acc",
    "ext_sensitivity", "ext_serving",
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


def _id_rows() -> list[dict[str, str]]:
    """EXPERIMENTS.md table rows whose first cell is a backticked id,
    each as {column header: cell}."""
    rows, header = [], None
    for line in EXPERIMENTS_MD.read_text().splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if header is None:
            header = cells
        elif cells[0].startswith("`") and cells[0].endswith("`"):
            rows.append(dict(zip(header, cells), ID=cells[0].strip("`")))
    return rows


def test_every_id_has_exactly_one_row_in_experiments_md():
    counts = Counter(row["ID"] for row in _id_rows())
    assert counts == dict.fromkeys(DRIVERS, 1)


def test_every_extension_row_names_its_claim():
    extensions = [row for row in _id_rows() if row["ID"].startswith("ext_")]
    assert extensions and all(row.get("Claim") for row in extensions)


def test_research_questions_cite_known_ids():
    cited = {i for q in RESEARCH_QUESTIONS for i in q.experiments}
    assert cited <= set(DRIVERS)
