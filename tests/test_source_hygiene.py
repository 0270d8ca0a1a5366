"""Static checks of the package source: every import and every private
module-level name of a ``commonfix`` module is used in that module, every
public module-level function and class is read somewhere in the package
or exported, the package exports exactly what its ``__init__`` imports,
and every exported function and class has a docstring."""

import ast
import inspect
from pathlib import Path

import pytest

import commonfix

SRC = Path(__file__).resolve().parents[1] / "src" / "commonfix"
MODULES = sorted(SRC.glob("*.py"))


def _loaded_names(tree: ast.Module) -> set[str]:
    """The names the module reads, including those it exports by ``__all__``."""
    names = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = _loaded_names(tree)
    assert [n for n in _imported(tree) if n not in loaded] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_referenced(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = _loaded_names(tree)
    assert [n for n in _private_definitions(tree) if n not in loaded] == []


def test_every_public_definition_is_read_or_exported():
    # a public function or class that no module reads and ``__init__`` does
    # not export has lost its last caller: dead code, or a reference that
    # only the tests call and the package should export
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    read = set().union(*(_loaded_names(tree) for tree in trees.values()))
    unread = [
        f"{stem}.{name}" for stem, tree in trees.items()
        for name in _public_definitions(tree) if name not in read
    ]
    assert unread == []


def test_modules_found():
    assert {"cli.py", "mappings.py", "verifier.py"} <= {p.name for p in MODULES}


def test_all_lists_exactly_the_package_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = _imported(tree)
    assert sorted(commonfix.__all__) == sorted(set(imported)) == sorted(imported)
    star: dict = {}
    exec("from commonfix import *", star)
    assert [n for n in commonfix.__all__ if n not in star] == []


def test_every_exported_function_and_class_has_a_docstring():
    # read from the source, since a dataclass without one gets a generated __doc__
    docs = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                docs[f"commonfix.{path.stem}", node.name] = ast.get_docstring(node)
    exported = [getattr(commonfix, name) for name in commonfix.__all__]
    defined = [o for o in exported if inspect.isfunction(o) or inspect.isclass(o)]
    assert [o.__name__ for o in defined if not docs.get((o.__module__, o.__name__))] == []


def _numpy_sines(tree: ast.Module) -> list[int]:
    """Lines that name numpy's sine: ``np.sin``, ``numpy.sin`` or an import of it."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "sin"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            lines += [node.lineno for a in node.names if a.name == "sin"]
    return sorted(lines)


def test_numpy_sine_is_never_called():
    # The oscillator's orbits, and so the certificate and defect bytes, take
    # sin(1/x) from math.sin: numpy documents no rounding for its sine, and
    # its bits may differ between the numpy versions the package supports.
    assert _numpy_sines(ast.parse("import numpy as np\nnp.sin(1.0)\nfrom numpy import sin")) == [2, 3]
    found = {p.name: _numpy_sines(ast.parse(p.read_text(encoding="utf-8"))) for p in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}
