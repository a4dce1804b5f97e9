"""Lazy re-export namespaces (PEP 562).

Every ``repro`` package namespace re-exports names from its submodules.
Importing them all eagerly would make every run pay for every layer:
a baseline-NIC run would load the ALPU stack, every observability
consumer and the analysis CLIs.  A namespace built by :func:`attach`
instead imports a submodule the first time one of its names is read,
then caches the value in the package's globals, so later reads are
plain attribute hits::

    __getattr__, __dir__, __all__ = attach(globals(), {
        "engine": ("Engine", "SimulationError"),
        "units": ("ns", "us"),
    })

``from package import *`` and ``from package import Name`` both work:
each goes through the module ``__getattr__``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def attach(
    namespace: dict, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for one package namespace.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    submodule (relative to the package) to the names it re-exports.
    """
    package = namespace["__name__"]
    home = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return __getattr__, __dir__, list(home)
