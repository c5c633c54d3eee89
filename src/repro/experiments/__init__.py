"""Experiment drivers: one per table/figure of the paper.

:data:`repro.experiments.runner.DRIVERS` names every driver by module
and function; :func:`run_experiment` (or the CLI) imports only the
module of the experiment it runs, so importing this package loads no
driver.
"""

from repro.experiments.runner import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)

__all__ = ["ExperimentResult", "available_experiments", "run_experiment"]
