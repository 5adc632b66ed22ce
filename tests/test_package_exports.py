"""Every ``repro`` subpackage re-exports exactly what its callers reach
through it.

A package ``__init__`` that re-exports a name gives it a second import
path.  That path stays only while some Python file under ``src/``,
``tests/``, ``bench/``, ``benchmarks/`` or ``examples/`` uses it:
``from repro.pkg import Name`` (or its relative form inside ``src/``),
a ``pkg.Name`` attribute read through an imported package, or a
``repro.pkg.Name`` cross-reference in a docstring.  ``__all__`` lists
exactly the names the ``__init__`` binds, by import or through its
``lazy_exports`` map (``repro._lazy``).  The top-level ``repro``
package is pinned by ``test_resilience.py``'s ``test_top_level_exports``
instead.  ``make loc``'s "package re-exports (sum of __all__)" row
counts the names this file keeps in step.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
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


def _lazy_map(node):
    """The ``{module: names}`` map of a ``__getattr__, __dir__ =
    lazy_exports(__name__, {module: names})`` statement, or ``None`` for
    any other statement."""
    call = getattr(node, "value", None)
    if not (isinstance(node, ast.Assign) and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "lazy_exports"):
        return None
    return ast.literal_eval(call.args[1])


def _lazy_members(node):
    """The names a ``lazy_exports`` statement binds, or ``None`` for any
    other assignment."""
    members = _lazy_map(node)
    if members is None:
        return None
    return {name for names in members.values() for name in names}


def _init_names(package: str):
    """The names the ``__init__``'s own statements bind (its lazy
    re-export map's included; the import of the ``lazy_exports`` hook is
    not a re-export), and its ``__all__``."""
    tree = ast.parse((SRC / "repro" / package / "__init__.py").read_text())
    bound, exported = set(), None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "_lazy":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and (
                lazy := _lazy_members(node)) is not None:
            bound.update(lazy)
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


def _facade_map(package: str):
    """The ``lazy_exports`` map of ``repro.<package>``'s ``__init__``, or
    ``None`` for an eager one."""
    tree = ast.parse((SRC / "repro" / package / "__init__.py").read_text())
    return next((members for node in tree.body
                 if (members := _lazy_map(node)) is not None), None)


LAZY_FACADES = [p for p in PACKAGES if _facade_map(p) is not None]


@pytest.mark.parametrize("package", LAZY_FACADES)
def test_a_lazy_facade_keeps_each_name_it_resolves(package):
    """Each name of a lazy facade's map reads as its member module's own
    object and stays in the package namespace after the first read, so
    no later read reaches the hook; ``dir()`` lists every ``__all__``
    name, and a name outside the map raises ``AttributeError``."""
    facade = importlib.import_module(f"repro.{package}")
    assert set(facade.__all__) <= set(dir(facade))
    for module, names in _facade_map(package).items():
        member = importlib.import_module(f"repro.{package}.{module}")
        for name in names:
            value = getattr(facade, name)
            assert value is getattr(member, name), f"repro.{package}.{name}"
            assert vars(facade)[name] is value, f"repro.{package}.{name}"
    with pytest.raises(AttributeError,
                       match=f"module 'repro.{package}' has no attribute"):
        getattr(facade, "no_such_export")


#: Modules no bench workload runs; only an eager package facade loads
#: them into a bench worker.
UNUSED_BY_BENCH = (
    "repro.observability.memprof", "repro.observability.regress",
    "repro.observability.monitor", "repro.observability.request_trace",
    "repro.scenarios", "repro.longctx", "repro.longctx.layout",
    "repro.longctx.mappings", "repro.longctx.model", "repro.longctx.volume",
    "repro.pipeline_sim.overlap", "repro.fusion.passes",
    "repro.training.data_parallel", "repro.training.lr_scheduler",
    "repro.training.serialization", "repro.reporting.report",
)


def test_bench_imports_load_no_unused_member():
    """The ``repro`` imports of ``bench/workloads.py`` and
    ``bench/worker.py``, run in a fresh interpreter, load none of
    :data:`UNUSED_BY_BENCH`; then every facade's ``__all__`` resolves."""
    imports = [ast.unparse(node)
               for name in ("workloads.py", "worker.py")
               for node in ast.walk(ast.parse((ROOT / "bench" / name).read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                   (getattr(node, "module", None) or a.name).startswith("repro")
                   for a in node.names)]
    script = "\n".join(imports + [
        "import importlib, sys",
        f"print(sorted(set({UNUSED_BY_BENCH!r}) & set(sys.modules)))",
        f"for package in {PACKAGES!r}:",
        "    facade = importlib.import_module('repro.' + package)",
        "    for name in facade.__all__:",
        "        getattr(facade, name)",
    ])
    done = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", \
        f"a bench worker's imports load {done.stdout.strip()}"
