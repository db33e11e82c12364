"""Source hygiene of ``src/mconvex``: every module-level import is read in
its module outside import statements, every module-level private name is referenced somewhere in
the package besides its definition, and every public function or class
is too, or is exported in ``mconvex.__all__`` or traced by the benchmark
(``perfbench.tracing.LAYERS``), every method or property of a
package class is referenced by name in the package, and every rung of
``ranges.Path`` is named outside its definition, so unused code gets
deleted rather than left behind."""

import ast
import pathlib
import sys

import pytest

import mconvex

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import LAYERS  # noqa: E402

PACKAGE = ROOT / "src" / "mconvex"
TREES = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
MODULES = sorted(name for name in TREES if name != "__init__.py")


def _reads(tree: ast.AST) -> list[str]:
    """Every name ``tree`` reads outside import statements: bare names
    and attributes."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _references(tree: ast.AST) -> list[str]:
    """``_reads``, and the names a ``from`` import takes."""
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    return _reads(tree) + imported


def _private_definitions(tree: ast.Module) -> list[str]:
    """The module-level names of ``tree`` with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    # a name counts as used only where the module reads it, not where
    # another import statement brings it in again
    tree = TREES[module]
    used = set(_reads(tree))
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_referenced(module):
    used = {name for tree in TREES.values() for name in _references(tree)}
    unreferenced = [
        name for name in _private_definitions(TREES[module]) if name not in used
    ]
    assert unreferenced == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_function_or_class_is_used_exported_or_traced(module):
    kept = {name for tree in TREES.values() for name in _references(tree)}
    kept |= set(mconvex.__all__)
    kept |= {name for funcs in LAYERS.values() for _, name in funcs}
    unused = [
        node.name
        for node in TREES[module].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in kept
    ]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_every_method_or_property_is_referenced(module):
    # dunder methods are called by the language, not by name
    used = {name for tree in TREES.values() for name in _references(tree)}
    unreferenced = [
        f"{node.name}.{item.name}"
        for node in TREES[module].body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and not item.name.startswith("__")
        and item.name not in used
    ]
    assert unreferenced == []


def test_every_path_is_named_outside_its_definition():
    # a rung that no return site names answers nothing: delete it
    (path,) = [node for node in TREES["ranges.py"].body
               if isinstance(node, ast.ClassDef) and node.name == "Path"]
    rungs = [t.id for node in path.body if isinstance(node, ast.Assign)
             for t in node.targets]
    named = {
        node.attr for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "Path"
    }
    assert rungs and [r for r in rungs if r not in named] == []
