"""Golden reports: the output of the bundled problems must not drift.

Each ``<case>.json`` file in tests/golden/ is the report of one case below,
run from the repository root with ``--json``, and with ``--timeout 30``
on every subcommand but ``symbols``, which takes no engine flags; each
``<case>.txt`` file is the text report of a case in TEXT_CASES, run without
``--json``.  ``exit_codes.json`` holds the exit code of every case.  A fresh
report must equal its file apart from the elapsed time, so a change that
alters a verdict, a minimum, a witness, an engine-call count or the text
layout shows up here.  When a change alters a report on purpose, regenerate
the files from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like code.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from pathlib import Path

import jsonschema
import pytest

from proofscope.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"
TWO_MINIMA = "src/proofscope/data/problems/two_minima.p"
# No conjecture: reproving it needs --unsat-mode.
DEPENDENT = "src/proofscope/data/problems/dependent_axioms.p"
PUZ001 = "src/proofscope/data/problems/PUZ001+1.p"

CASES = {
    "two_minima.symbols": ["symbols", TWO_MINIMA],
    "two_minima.minimize": ["minimize", TWO_MINIMA],
    "two_minima.reprove-syntactic": ["reprove", TWO_MINIMA, "--method", "syntactic"],
    "two_minima.reprove-semantic": ["reprove", TWO_MINIMA, "--method", "semantic"],
    "two_minima.independence-naive": ["independence", TWO_MINIMA, "--method", "naive"],
    "two_minima.independence-failfast": [
        "independence", TWO_MINIMA, "--method", "failfast",
    ],
    "two_minima.independence-random": [
        "independence", TWO_MINIMA, "--method", "random", "--trials", "10", "--seed", "3",
    ],
    "two_minima.consistency": ["consistency", TWO_MINIMA],
    "dependent_axioms.symbols": ["symbols", DEPENDENT],
    "dependent_axioms.minimize": ["minimize", DEPENDENT, "--unsat-mode"],
    "dependent_axioms.reprove-syntactic": [
        "reprove", DEPENDENT, "--method", "syntactic", "--unsat-mode",
    ],
    "dependent_axioms.reprove-semantic": [
        "reprove", DEPENDENT, "--method", "semantic", "--unsat-mode",
    ],
    "dependent_axioms.independence-naive": ["independence", DEPENDENT, "--method", "naive"],
    "dependent_axioms.independence-failfast": [
        "independence", DEPENDENT, "--method", "failfast",
    ],
    "dependent_axioms.independence-random": [
        "independence", DEPENDENT, "--method", "random", "--trials", "10", "--seed", "3",
    ],
    "dependent_axioms.consistency": ["consistency", DEPENDENT],
    "PUZ001+1.minimize": ["minimize", PUZ001],
    # The only bundled problem with constants, equality and Skolem symbols.
    "PUZ001+1.symbols": ["symbols", PUZ001],
    "PUZ001+1.consistency": ["consistency", PUZ001],
}
# One text report per subcommand on each small problem, and two on PUZ001.
TEXT_CASES = [
    f"{problem}.{shape}"
    for problem in ("two_minima", "dependent_axioms")
    for shape in (
        "symbols", "reprove-syntactic", "minimize", "independence-naive", "consistency",
    )
] + ["PUZ001+1.symbols", "PUZ001+1.consistency"]
ELAPSED = re.compile(r"elapsed: \d+\.\d\ds$", re.MULTILINE)


def run(case: str, json_output: bool = True) -> tuple[int, str]:
    """The exit code and standard output of one case.  Run from the
    repository root: the report echoes the problem path."""
    argv = CASES[case]
    if argv[0] != "symbols":
        argv = argv + ["--timeout", "30"]
    out = io.StringIO()
    code = main(argv + ["--json"] if json_output else argv, out=out, err=io.StringIO())
    return code, out.getvalue()


def golden(case: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))


def golden_text(case: str) -> str:
    return (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")


def golden_exit_code(case: str) -> int:
    return json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case]


def without_elapsed(node):
    if isinstance(node, dict):
        return {k: without_elapsed(v) for k, v in node.items() if k != "elapsed_seconds"}
    if isinstance(node, list):
        return [without_elapsed(v) for v in node]
    return node


@pytest.fixture()
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(at_root, schema, case):
    code, out = run(case)
    got = json.loads(out)
    assert without_elapsed(got) == without_elapsed(golden(case))
    assert code == golden_exit_code(case)
    jsonschema.validate(got, schema)


@pytest.mark.parametrize("case", TEXT_CASES)
def test_text_report_matches_golden(at_root, case):
    code, out = run(case, json_output=False)
    assert ELAPSED.sub("elapsed: *s", out) == golden_text(case)
    assert code == golden_exit_code(case)


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    exit_codes = {}
    for case in CASES:
        exit_codes[case], out = run(case)
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(json.loads(out), indent=2) + "\n", encoding="utf-8")
        print(path.relative_to(ROOT), file=sys.stderr)
    for case in TEXT_CASES:
        path = GOLDEN_DIR / f"{case}.txt"
        _, out = run(case, json_output=False)
        path.write_text(ELAPSED.sub("elapsed: *s", out), encoding="utf-8")
        print(path.relative_to(ROOT), file=sys.stderr)
    EXIT_CODES.write_text(json.dumps(exit_codes, indent=2) + "\n", encoding="utf-8")
    print(EXIT_CODES.relative_to(ROOT), file=sys.stderr)
