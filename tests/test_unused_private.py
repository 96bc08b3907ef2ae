"""Every private name and every attribute of the package is used in its module.

A `_`-prefixed function, class, constant or method is private to its
module, and so is every method of a `_`-prefixed class, so one that the
module never loads is dead code.  So is an attribute that the module stores
but never reads: appending to it or assigning to one of its items is a
store, not a read.  No linter ships with the project, so this walks each
module's syntax tree.  Dunder names such as ``__all__`` are not private and
are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from test_unused_imports import annotation_nodes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proofscope"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module body defines, with the line of its definition."""
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if _is_private(name):
                names.setdefault(name, node.lineno)
    return names


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in annotation_nodes(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                loaded |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return loaded


def private_methods(tree: ast.Module) -> dict[str, int]:
    """Each private method a class of the module defines, with its line.
    Every method of a private class is private, dunders aside."""
    return {
        node.name: node.lineno
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef)
        and not node.name.startswith("__")
        and (node.name.startswith("_") or _is_private(cls.name))
    }


# Methods whose call, as a statement of its own, only adds to a container.
_STORING_METHODS = {"add", "append", "extend", "insert", "update"}


def _stores(node: ast.Attribute, parents: dict[ast.AST, ast.AST]) -> bool:
    """True if node only stores into its attribute: x.a = v, x.a[i] = v, or
    x.a.append(v) as a statement of its own."""
    if not isinstance(node.ctx, ast.Load):
        return True
    parent = parents[node]
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return not isinstance(parent.ctx, ast.Load)
    call = parents[parent]
    return (
        isinstance(parent, ast.Attribute)
        and parent.attr in _STORING_METHODS
        and isinstance(call, ast.Call)
        and call.func is parent
        and isinstance(parents[call], ast.Expr)
    )


def attribute_uses(tree: ast.Module) -> tuple[dict[str, int], set[str]]:
    """The attributes the module stores, each with the line of its first
    store, and those it reads."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    stored: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if _stores(node, parents):
                stored.setdefault(node.attr, node.lineno)
            else:
                read.add(node.attr)
    return stored, read


def test_modules_found():
    assert len(MODULES) >= 5


def test_detects_an_unused_private_name():
    tree = ast.parse("_USED = 1\n_DEAD = 2\nclass _Gone: pass\ndef f(): return _USED\n")
    unused = set(private_definitions(tree)) - loaded_names(tree)
    assert unused == {"_DEAD", "_Gone"}


def test_detects_an_unused_private_method_and_a_write_only_attribute():
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self):\n"
        "        self.done = []\n"
        "        self.seen = set()\n"
        "        self.kept = {}\n"
        "    def _used(self):\n"
        "        self.done.append(False)\n"
        "        self.done[0] = True\n"
        "        self.seen.add(1)\n"
        "        self.kept[0] = 1\n"
        "        return len(self.seen) + self.kept.get(0)\n"
        "    def _dead(self):\n"
        "        return self._used()\n"
    )
    stored, read = attribute_uses(tree)
    assert set(private_methods(tree)) - loaded_names(tree) - read == {"_dead"}
    assert set(stored) - read == {"done"}


def test_every_method_of_a_private_class_is_private():
    tree = ast.parse(
        "class _Layout:\n"
        "    def __init__(self):\n"
        "        self.n = 1\n"
        "    def var(self):\n"
        "        return self.n\n"
        "    def pred_var(self):\n"
        "        return self.n\n"
        "class Public:\n"
        "    def unread(self):\n"
        "        return 0\n"
        "_Layout().var()\n"
    )
    assert set(private_methods(tree)) - loaded_names(tree) - attribute_uses(tree)[1] == {
        "pred_var"
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loaded = loaded_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in private_definitions(tree).items()
        if name not in loaded
    )
    assert not unused, f"{path.name} defines private names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_method_and_attribute_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stored, read = attribute_uses(tree)
    loaded = loaded_names(tree) | read
    unused = sorted(
        f"{name} (line {line})"
        for name, line in private_methods(tree).items()
        if name not in loaded
    )
    unread = sorted(f"{name} (line {line})" for name, line in stored.items() if name not in read)
    assert not unused, f"{path.name} defines private methods it never uses: {unused}"
    assert not unread, f"{path.name} stores attributes it never reads: {unread}"
