"""Every ``repro`` subpackage re-exports exactly what its callers reach
through it.

A package ``__init__`` that re-exports a name gives it a second import
path.  That path stays only while some Python file under ``src/``,
``tests/``, ``bench/``, ``benchmarks/`` or ``examples/`` uses it:
``from repro.pkg import Name`` (or its relative form inside ``src/``),
a ``pkg.Name`` attribute read through an imported package, or a
``repro.pkg.Name`` cross-reference in a docstring.  ``__all__`` lists
exactly the names the ``__init__`` binds.  The top-level ``repro``
package is pinned by ``test_resilience.py``'s ``test_top_level_exports``
instead.  ``make loc``'s "package re-exports (sum of __all__)" row
counts the names this file keeps in step.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCANNED = ("src", "tests", "bench", "benchmarks", "examples")
PACKAGES = sorted(p.parent.name for p in (SRC / "repro").glob("*/__init__.py"))
DOTTED = re.compile(r"\brepro\.(\w+)\.(\w+)")


def _module_of(path: Path):
    """A ``src/`` file's dotted module name and whether it is a package
    ``__init__``; ``(None, False)`` outside ``src/``."""
    if SRC not in path.parents:
        return None, False
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


def _source(node: ast.ImportFrom, module, is_package):
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    parts = parts[:len(parts) - node.level + is_package]
    return ".".join(parts + ([node.module] if node.module else []))


def _asks(path: Path):
    """``(module, name)`` for each name ``path`` reaches through a module
    by import, attribute read or dotted reference."""
    module, is_package = _module_of(path)
    text = path.read_text()
    for match in DOTTED.finditer(text):
        yield f"repro.{match[1]}", match[2]
    tree = ast.parse(text, str(path))
    aliases = {}  # local name -> the dotted module it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.split(".")[0]
                aliases[local] = a.name if a.asname else local
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module, is_package)
            for a in node.names:
                yield source, a.name
                aliases[a.asname or a.name] = f"{source}.{a.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain, base = [node.attr], node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id in aliases:
            parts = [*aliases[base.id].split("."), *reversed(chain)]
            for cut in range(2, len(parts)):
                yield ".".join(parts[:cut]), parts[cut]


def _callers():
    """``{"repro.pkg": {name, ...}}``: what each package is asked for by
    files other than its own ``__init__``."""
    used: dict = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            module, is_package = _module_of(path)
            for owner, name in _asks(path):
                if not (is_package and owner == module):
                    used.setdefault(owner, set()).add(name)
    return used


def _init_names(package: str):
    """The names the ``__init__``'s own statements bind, and its
    ``__all__``."""
    tree = ast.parse((SRC / "repro" / package / "__init__.py").read_text())
    bound, exported = set(), None
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
                elif isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return bound, exported


@pytest.fixture(scope="module")
def callers():
    return _callers()


@pytest.mark.parametrize("package", PACKAGES)
def test_all_lists_exactly_the_bound_names(package):
    bound, exported = _init_names(package)
    assert exported is not None, f"repro.{package} has no __all__"
    assert len(exported) == len(set(exported)), f"repro.{package}: duplicate"
    omitted = sorted(bound - set(exported))
    unbound = sorted(set(exported) - bound)
    assert not omitted, f"repro.{package} binds {omitted} but __all__ omits them"
    assert not unbound, f"repro.{package}.__all__ lists unbound {unbound}"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_reexport_has_a_caller(package, callers):
    bound, _ = _init_names(package)
    unused = sorted(bound - callers.get(f"repro.{package}", set()))
    assert not unused, \
        f"repro.{package} re-exports {unused}, which no caller reaches through it"
