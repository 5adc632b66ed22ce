"""Package facades that load a member module on the first read of a name
it re-exports (PEP 562), so importing one submodule of a package does
not import all of its siblings."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, members: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, which
    re-exports each name of ``members[module]`` from its submodule
    ``module``.  The first read of a name (``from package import name``
    included) imports that submodule and keeps the value in the
    package's namespace, so no later read reaches the hook."""
    owner = {name: module for module, names in members.items()
             for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f"{package}.{owner[name]}"), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__
