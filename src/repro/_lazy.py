"""Deferred re-exports for package ``__init__`` modules (PEP 562).

Every channel buffer imports ``repro.telemetry`` for the hub, every
process module imports ``repro.kpn``, and the routing processes import
one marker from ``repro.analysis`` — so whatever those packages import
eagerly is paid by every cold start, including the exporters, profiler,
linters and checkers that only tools around a run ever call.  A package
lists such names here instead; the defining submodule is imported the
first time one of them is asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable


def lazy_exports(package: str,
                 exports: Dict[str, Iterable[str]]) -> Callable[[str], object]:
    """A module ``__getattr__`` for ``package``.

    ``exports`` maps each submodule to the public names it defines; they
    are appended to the package's ``__all__``, which lists only its eager
    names.  The returned hook resolves those names (and the submodules
    themselves) on first access and stores them in the package
    namespace, so the hook runs once per name.
    """
    owner = {name: sub for sub, names in exports.items() for name in names}
    module = sys.modules[package]
    setattr(module, "__all__", [*getattr(module, "__all__", ()), *owner])

    def __getattr__(name: str):
        sub = owner.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
