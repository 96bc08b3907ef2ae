"""Every module-level private name of the package is used in its module.

A `_`-prefixed function, class or constant is private to its module, so one
that the module never loads is dead code.  No linter ships with the project,
so this walks each module's syntax tree.  Dunder names such as ``__all__``
are not private and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from test_unused_imports import annotation_nodes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proofscope"
MODULES = sorted(PACKAGE.glob("*.py"))


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
            if name.startswith("_") and not name.startswith("__"):
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


def test_modules_found():
    assert len(MODULES) >= 5


def test_detects_an_unused_private_name():
    tree = ast.parse("_USED = 1\n_DEAD = 2\nclass _Gone: pass\ndef f(): return _USED\n")
    unused = set(private_definitions(tree)) - loaded_names(tree)
    assert unused == {"_DEAD", "_Gone"}


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
