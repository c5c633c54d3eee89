"""The names of the hardware configurations, without building them.

:mod:`repro.mapping.configs` builds each configuration's grouping and
port setup, which loads the DRAM, NoC and grouping models; a command
that only checks a ``--configs`` name needs none of that.  These tuples
list the same names in the same order (a tier-1 test pins them to the
registry), and :func:`check_config_name` raises the registry's own
error for a name it lacks.
"""

from __future__ import annotations

#: Table II's configurations, in table order
TABLE2_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11")
#: the INT16 extension configurations
INT16_NAMES = ("I1", "I2", "I3")

_CANONICAL = {name.lower(): name for name in TABLE2_NAMES + INT16_NAMES}


def check_config_name(name: str) -> str:
    """The registry's spelling of the configuration ``name`` names (in
    any letter case), so that ``c5`` and ``C5`` key the same stored
    state; ``KeyError`` naming the Table II configurations otherwise."""
    canonical = _CANONICAL.get(name.lower())
    if canonical is None:
        known = ", ".join(TABLE2_NAMES)
        raise KeyError(f"unknown config {name!r}; known: {known}")
    return canonical
