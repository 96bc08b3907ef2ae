"""README against the code: every call its library section spells out
names the parameters of the function or method it documents, and its flag
tables list the options of each subcommand: the shared table those every
subcommand takes, the engine table those every subcommand that runs engines
takes besides, and the subcommand table the rest, each under the subcommands
that take it."""

import argparse
import inspect
import re
from pathlib import Path

import pytest

import proofscope
from proofscope import QuerySession, Theory
from proofscope.cli import NEEDED_CAPABILITY, _build_parser

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


def options_by_command() -> dict[str, set[str]]:
    """The options each subcommand of the parser takes."""
    [subparsers] = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {opt for action in sub._actions for opt in action.option_strings}
        - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }


def table_rows(title: str) -> list[list[str]]:
    """The cells of each row of the README table after the line `title`."""
    text = README.read_text(encoding="utf-8")
    table = text.split(f"\n{title}\n\n", 1)[1].split("\n\n", 1)[0]
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()
        if line.startswith("| `")
    ]


def flags(cell: str) -> list[str]:
    """The flags a table cell names, e.g. `-I, --include-dir DIR`."""
    return [token.strip("`,") for token in cell.split() if token.strip("`").startswith("-")]


def listed_flags(title: str) -> set[str]:
    listed = [flag for row in table_rows(title) for flag in flags(row[0])]
    assert len(listed) == len(set(listed))
    return set(listed)


SHARED = set.intersection(*options_by_command().values())
# The options every subcommand that runs engines takes, beyond the shared ones.
ENGINE = set.intersection(
    *(opts for cmd, opts in options_by_command().items() if cmd in NEEDED_CAPABILITY)
) - SHARED


def test_shared_flags_table_lists_the_shared_options():
    assert listed_flags("Shared flags:") == SHARED


def test_engine_flags_table_lists_the_engine_options():
    assert ENGINE
    title = "Engine flags, taken by every subcommand but `symbols`, which runs no engine:"
    assert listed_flags(title) == ENGINE
    assert not options_by_command()["symbols"] & ENGINE


def test_subcommand_flags_table_lists_each_subcommands_own_options():
    documented: dict[str, set[str]] = {cmd: set() for cmd in options_by_command()}
    for row in table_rows("Subcommand flags:"):
        for cmd in row[1].replace("`", "").split(", "):
            documented[cmd] |= set(flags(row[0]))
    for cmd, opts in options_by_command().items():
        assert documented[cmd] == opts - SHARED - ENGINE, cmd
