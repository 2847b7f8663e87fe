"""Dead names in the package source, found with the standard library's ``ast``.

A module-level import that the module never reads, a function local that is
assigned but never read, and a function, class or method that no code in the
package or its tests reads, are left behind when code around them goes away.
Nor does the package keep a definition for the tests alone: what no package
code reads is public or a span of the benchmark.

No module imports another package module's private name.  Characters are
shared by the caches, so outside ``algebra.py`` no code may write into a
character's ``terms`` dict.  The benchmark's tracer wraps the functions
``perfbench/workloads.json`` names per layer, so each must exist.
"""

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

import tetrainst

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tetrainst"
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


def _definitions(tree):
    """``(name, node, is_method)`` of the top-level functions and classes and
    the non-dunder methods; a decorated one is left out, as its decorator may
    register it."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.decorator_list:
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.decorator_list
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ):
                    yield item.name, item, True


def _reads(tree):
    """How often each name is read, keyed by ``(name, read as an attribute)``."""
    return Counter(
        (n.attr, True) if isinstance(n, ast.Attribute) else (n.id, False)
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _reads_of(reads, name, is_method):
    """The reads that can reach a definition: a method is read only as an
    attribute (``x.sum``, never the builtin ``sum``), a top-level function or
    class also as a variable."""
    return reads[name, True] + (0 if is_method else reads[name, False])


def dead_definitions(package, tests):
    """Names defined in the ``package`` trees that nothing outside their own
    definition reads, in the package or the ``tests`` trees; names are
    matched alone, whatever object they are read from."""
    reads = sum(map(_reads, package + tests), Counter())
    return {
        name
        for tree in package
        for name, node, is_method in _definitions(tree)
        if _reads_of(reads, name, is_method) == _reads_of(_reads(node), name, is_method)
    }


def private_imports(tree):
    """Private names (a leading underscore, dunders aside) that ``tree``
    imports from a module of the package."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "tetrainst")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    }


_DICT_MUTATORS = {"__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem", "setdefault", "update"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def terms_writes(tree):
    """Line numbers that store to, delete from or call a mutating dict method
    on some ``x.terms``, or rebind ``x.terms`` itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_terms(node.value) and not isinstance(node.ctx, ast.Load):
            found.add(node.lineno)
        elif _is_terms(node) and not isinstance(node.ctx, ast.Load):
            found.add(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_MUTATORS
            and _is_terms(node.func.value)
        ):
            found.add(node.lineno)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(_tree(path)) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_function_locals(path):
    assert unread_locals(_tree(path)) == set()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "algebra.py"], ids=lambda p: p.name)
def test_characters_are_not_written_outside_algebra(path):
    assert terms_writes(_tree(path)) == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(_tree(path)) == set()


def test_no_dead_definitions():
    package = [_tree(p) for p in sorted(SRC.glob("*.py"))]
    tests = [_tree(p) for p in sorted(TESTS.glob("*.py"))]
    assert dead_definitions(package, tests) == set()


def test_no_definition_is_read_only_by_tests():
    """Every definition that no package code reads is in ``tetrainst.__all__``
    or is a benchmark span; the rest belongs in ``tests/reference.py``.

    It sees what :func:`dead_definitions` sees, so it misses a decorated
    definition (a classmethod, a property), a dunder, a name that package
    code reads under the same name from another object, and a name that only
    another test-only definition reads.
    """
    package = [_tree(p) for p in sorted(SRC.glob("*.py"))]
    entry_points = set(tetrainst.__all__) | {name for _, name in _spans()}
    assert dead_definitions(package, []) - entry_points == set()


def _spans():
    """``(layer, name)`` of each function the benchmark's tracer wraps."""
    layers = json.loads((TESTS.parent / "perfbench" / "workloads.json").read_text())["layers"]
    return [(layer, name) for layer, spec in layers.items() for name in spec.get("spans", ())]


def test_perfbench_spans_exist():
    missing = [
        f"{layer}.{name}"
        for layer, name in _spans()
        if not callable(getattr(importlib.import_module(f"tetrainst.{layer}"), name, None))
    ]
    assert missing == []


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


def test_the_scan_finds_dead_definitions():
    package = ast.parse(
        "class VariableRegistry:\n"
        "    def slot(self, i, l):\n"
        "        return i\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other, VariableRegistry)\n"
        "class Character:\n"
        "    def dual(self):\n"
        "        return self\n"
        "@main.command()\n"
        "def compute():\n"
        "    pass\n"
        "def half(c):\n"
        "    return Character().dual() if c else half(1)\n"
        "class Series:\n"
        "    def sum(self, xs):\n"
        "        return sum(xs)\n"
        "def total(xs):\n"
        "    return sum(xs) + Series.rank\n"
    )
    tests = ast.parse("def test_half():\n    assert half(1) and total([1])\n")
    # a read inside the definition itself does not count, and the builtin
    # sum(...) is no read of the method Series.sum
    assert dead_definitions([package], [tests]) == {"VariableRegistry", "slot", "sum"}
    assert dead_definitions([package], []) == {"VariableRegistry", "slot", "half", "sum", "total"}


def test_the_scan_finds_private_imports():
    tree = ast.parse(
        "from . import __version__\n"
        "from .vertex import PBAR, _half_block\n"
        "from tetrainst.algebra import _root as root\n"
        "from fractions import _gcd\n"
        "def f():\n"
        "    from ..series import _coeffs\n"
    )
    # a dunder and another package's private name are allowed
    assert private_imports(tree) == {"_half_block", "_root", "_coeffs"}


def test_the_scan_finds_writes_into_terms():
    tree = ast.parse(
        "def f(V, W, m):\n"
        "    V.terms[m] = 1\n"
        "    del V.terms[m]\n"
        "    V.terms[m] += 2\n"
        "    W.Q.terms.update({m: 1})\n"
        "    V.terms.pop(m, None)\n"
        "    V.terms = {}\n"
        "    V.terms |= {m: 1}\n"
        "    n = V.terms[m] + len(V.terms) + V.terms.get(m, 0)\n"
        "    return {k: c for k, c in V.terms.items()}, dict(W.terms), n\n"
    )
    assert terms_writes(tree) == {2, 3, 4, 5, 6, 7, 8}
