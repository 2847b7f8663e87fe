"""Dead names in the package source, found with the standard library's ``ast``.

A module-level import that the module never reads, and a function local that
is assigned but never read, are left behind when code around them goes away.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tetrainst"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _own_stores(fn):
    """Names stored in ``fn``'s own scope, not in the functions nested in it."""
    stores, declared = set(), set()
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return stores - declared


def unused_imports(tree):
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    return imported - _loads(tree)


def unread_locals(tree):
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # a nested function reading a local counts as a read
            dead = _own_stores(fn) - _loads(fn)
            found.update(f"{fn.name}.{name}" for name in dead if not name.startswith("_"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(_tree(path)) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_function_locals(path):
    assert unread_locals(_tree(path)) == set()


def test_the_scan_finds_dead_names():
    tree = ast.parse(
        "import os\n"
        "from fractions import Fraction\n"
        "def f(fp):\n"
        "    ns = fp.registry.rank\n"
        "    used = 1\n"
        "    def g():\n"
        "        return used\n"
        "    return g\n"
    )
    assert unused_imports(tree) == {"os", "Fraction"}
    assert unread_locals(tree) == {"f.ns"}
