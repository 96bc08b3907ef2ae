"""Every public module-level function and class of the package is used.

A function or class whose name has no leading underscore counts as used
when some module under ``src/`` or ``perfbench/`` refers to it outside its
own definition (a recursive call is not a use), when the package's
``__init__`` exports it, or when ``pyproject.toml`` names it, as it names
the console-script entry point.  Tests do not count: code that only a test
calls is dead code with a test.  No linter ships with the project, so this
walks each module's syntax tree.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path

import pytest

from test_unused_private import loaded_names

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "proofscope"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each public function or class the module body defines, by name."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef)
        and not node.name.startswith("_")
    }


@functools.cache
def references(tree: ast.AST) -> set[str]:
    """Names read and attributes named in tree, string annotations included."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return loaded_names(tree) | attributes


def exported(init: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unused_public(
    path: Path, trees: dict[Path, ast.Module], exports: set[str], config: str
) -> list[str]:
    """The public definitions of path that nothing outside them refers to."""
    tree = trees[path]
    elsewhere = set().union(*(references(t) for p, t in trees.items() if p != path))
    unused = []
    for name, node in public_definitions(tree).items():
        here = set().union(*(references(n) for n in tree.body if n is not node))
        if name in elsewhere | here | exports or re.search(rf"\b{name}\b", config):
            continue
        unused.append(f"{name} (line {node.lineno})")
    return unused


def test_modules_found():
    assert len(MODULES) >= 5 and len(SOURCES) > len(MODULES)


def test_detects_an_unused_public_definition():
    trees = {
        Path("a.py"): ast.parse(
            "def dead(n):\n    return dead(n - 1) if n else 0\n"
            "def used(): pass\n"
            "def local(): pass\n"
            "def exported(): pass\n"
            "def entry(): pass\n"
            "class Gone: pass\n"
            "x = local()\n"
        ),
        Path("b.py"): ast.parse("from a import used\nused()\n"),
    }
    unused = unused_public(Path("a.py"), trees, {"exported"}, 'x = "a:entry"')
    assert unused == ["dead (line 1)", "Gone (line 7)"]


@pytest.fixture(scope="module")
def trees() -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SOURCES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_definition_is_used(path, trees):
    exports = exported(trees[PACKAGE / "__init__.py"])
    config = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    unused = unused_public(path, trees, exports, config)
    assert not unused, f"{path.name} defines public names nothing uses: {unused}"
