"""PEP 562 lazy package namespaces.

Each ``repro`` package lists its public names once, in a ``name ->
module`` table, and gets its ``__all__``, ``__getattr__`` and
``__dir__`` from :func:`lazy_namespace`.  A name's module is imported
on first access, so importing a package imports none of the modules
behind its surface: ``import repro.cli`` loads neither NumPy nor the
checker until a command needs them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple

__all__ = ["lazy_namespace"]


def lazy_namespace(package: str, table: Mapping[str, str]
                   ) -> Tuple[List[str], Callable[[str], object],
                              Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package.

    Args:
        package: The package's ``__name__``.
        table: Public name -> module that defines it, in ``__all__``
            order.

    Attribute lookup fetches the name from its module at call time, so
    a module attribute rebound after import is what callers see.  A
    public name outside the table resolves to the submodule of that
    name, as it did when the package imported its submodules eagerly;
    anything else raises :class:`AttributeError`.
    """

    def __getattr__(name: str) -> object:
        module = table.get(name)
        if module is not None:
            return getattr(importlib.import_module(module), name)
        if not name.startswith("_"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
