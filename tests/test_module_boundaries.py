"""No module of the ``usc`` package uses another module's private names:
neither ``from .x import _name`` nor ``x._name`` on a package module ``x``.
Only ``cli.main`` prints an ``error:`` line: every other failure raises.
Every exception class of ``usc.errors`` is raised somewhere. And the
package's ``pyproject.toml`` dependencies are exactly the modules outside
the standard library that it imports."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "usc"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _package_module(node: ast.ImportFrom):
    """The package module an import reads from, '' for the package itself,
    None for anything outside the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module is not None:
        head, _, rest = node.module.partition(".")
        if head == "usc":
            return rest
    return None


def private_uses(source: str):
    """(line, name) of each private name of another package module that
    ``source`` imports or reads as an attribute of that module."""
    tree = ast.parse(source)
    modules = {}  # local name -> package module it is bound to
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = _package_module(node)
            if module is None:
                continue
            for alias in node.names:
                if module == "" and alias.name in MODULES:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    uses.append((node.lineno, f"{module}.{alias.name}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, module = alias.name.partition(".")
                if head == "usc" and module in MODULES and alias.asname:
                    modules[alias.asname] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            uses.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(uses)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_uses_no_private_name_of_another(path):
    assert private_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, named", [
    ("from .io import _decode", "io._decode"),
    ("from .geometry import Box3D, _volume as volume", "geometry._volume"),
    ("from usc.io import _decode", "io._decode"),
    ("from . import io as uio\nuio._decode('')", "io._decode"),
    ("from usc import geometry\ngeometry._volume", "geometry._volume"),
    ("import usc.io as uio\nuio._decode", "io._decode"),
])
def test_private_use_is_found(source, named):
    assert [name for _, name in private_uses(source)] == [named]


@pytest.mark.parametrize("source", [
    "from .io import load_dataset",
    "from . import io\nio.__name__",
    "from dataclasses import _MISSING_TYPE",
    "self._cache",
    "import os\nos._exit",
])
def test_public_or_outside_use_is_allowed(source):
    assert private_uses(source) == []


def _leading_text(node) -> str:
    """The literal text a string or f-string expression starts with."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def error_printers(source: str):
    """Names of the functions in ``source`` (``<module>`` for top-level code)
    that call ``print`` with a first argument, a string or f-string, starting
    with ``error:``."""
    names = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print" and node.args
                and _leading_text(node.args[0]).startswith("error:")):
            names.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return names


def test_only_cli_main_prints_an_error_line():
    printers = {(path.stem, name) for path in PACKAGE.glob("*.py")
                for name in error_printers(path.read_text(encoding="utf-8"))}
    assert printers == {("cli", "main")}


@pytest.mark.parametrize("source, named", [
    ("def f():\n    print('error: x', file=sys.stderr)", {"f"}),
    ("def f(e):\n    print(f'error: {e}')", {"f"}),
    ("def f():\n    def g():\n        print('error:')\n    print('ok')", {"g"}),
    ("print('error: at import')", {"<module>"}),
    ("def f():\n    print('warning: x')\n    print(f'{e} error: x')", set()),
    ("def f():\n    log('error: x')", set()),
])
def test_error_printer_is_found(source, named):
    assert error_printers(source) == named


def raised_names(source: str):
    """Names that ``source`` raises directly: ``raise Name`` or
    ``raise Name(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                           for path in PACKAGE.glob("*.py")
                           if path.stem != "errors"))
    assert defined - raised == set()


@pytest.mark.parametrize("source, named", [
    ("raise SchemaError('x', path)", {"SchemaError"}),
    ("raise ZeroVariance", {"ZeroVariance"}),
    ("try:\n    f()\nexcept ParseError:\n    raise", set()),
    ("raise ValueError('x') from UscError", {"ValueError"}),
    ("raise errors.BehindCamera('x')", set()),
    ("except_ = BehindVehicle('x')", set()),
])
def test_raised_name_is_found(source, named):
    assert raised_names(source) == named


def third_party_imports(source: str):
    """Top-level names of the modules that ``source`` imports from outside
    the standard library and the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"usc"}


def _normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def test_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    declared = {_normalized(re.match(r"[A-Za-z0-9._-]+", requirement).group())
                for requirement in requirements}
    imported = set().union(*(third_party_imports(path.read_text(encoding="utf-8"))
                             for path in PACKAGE.glob("*.py")))
    assert {_normalized(name) for name in imported} == declared


@pytest.mark.parametrize("source, named", [
    ("import numpy as np", {"numpy"}),
    ("from orjson import loads", {"orjson"}),
    ("import numpy.linalg, json", {"numpy"}),
    ("def f():\n    import scipy", {"scipy"}),
    ("import os.path\nfrom __future__ import annotations", set()),
    ("from .io import load_dataset\nfrom . import io", set()),
    ("from usc.io import load_dataset\nimport usc", set()),
])
def test_third_party_import_is_found(source, named):
    assert third_party_imports(source) == named
