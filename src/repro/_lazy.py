"""Lazy package exports (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` the table of what its
eager ``from module import name`` lines used to import, and binds the
returned pair as its module-level ``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.sim.engine": ("PipelineSimulator", "PipelineStage"),
    })

A name's module is imported the first time the name is looked up, and
the value is then cached in the package namespace, so importing a
package costs nothing until one of its exports is used.
``from package import *`` resolves ``__all__`` through ``__getattr__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``'s export ``table``.

    ``table`` maps a module to the names it provides.
    """
    sources = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(sources))

    return __getattr__, __dir__
