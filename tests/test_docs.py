"""README against the code: every call its library section spells out
names the parameters of the function or method it documents, and its
shared-flags table lists the options every subcommand takes."""

import argparse
import inspect
import re
from pathlib import Path

import pytest

import proofscope
from proofscope import QuerySession, Theory
from proofscope.cli import _build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
# `name(a, b)` for a proofscope export, `session.name(a, b)` for a
# QuerySession method, `theory.name(a, b)` for a Theory method.
CALL_RE = re.compile(r"`(?:(session|theory)\.)?(\w+)\(([^`()]*)\)`")
OWNERS = {"": proofscope, "session": QuerySession, "theory": Theory}


def library_calls() -> list[tuple[str, str, list[str]]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    return [
        (owner, name, [p for p in params.split(", ") if p])
        for owner, name, params in CALL_RE.findall(section)
        if hasattr(OWNERS[owner], name)
    ]


CALLS = library_calls()


def test_library_section_spells_out_the_analyses():
    names = {name for _, name, _ in CALLS}
    assert {"consistency_triple", "enumerate_minima", "decide", "run_engine"} <= names


@pytest.mark.parametrize(
    "owner, name, params",
    CALLS,
    ids=[f"{owner or 'proofscope'}.{name}" for owner, name, _ in CALLS],
)
def test_readme_parameters_match_signature(owner, name, params):
    signature = inspect.signature(getattr(OWNERS[owner], name))
    assert params == [p for p in signature.parameters if p != "self"]


def shared_options() -> set[str]:
    """The options that every subcommand of the parser takes."""
    [subparsers] = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    per_command = [
        {opt for action in sub._actions for opt in action.option_strings}
        for sub in subparsers.choices.values()
    ]
    return set.intersection(*per_command) - {"-h", "--help"}


def test_shared_flags_table_lists_the_shared_options():
    text = README.read_text(encoding="utf-8")
    table = text.split("\nShared flags:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    listed = [
        token.rstrip(",")
        for row in rows
        for token in row.split("`")[1].split()
        if token.startswith("-")
    ]
    assert len(listed) == len(set(listed))
    assert set(listed) == shared_options()
