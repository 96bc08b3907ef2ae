"""Golden reports: the JSON of the bundled problems must not drift.

Each file in tests/golden/ is the report of one case below, run with
``--json --parallel 1 --timeout 30`` from the repository root.  A fresh
report must equal its file apart from ``elapsed_seconds``, so a change that
alters a verdict, a minimum, a witness or an engine-call count shows up here.
When a change alters a report on purpose, regenerate the files from the
repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like code.
"""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

import pytest

from proofscope.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
TWO_MINIMA = "src/proofscope/data/problems/two_minima.p"
# No conjecture: reproving it needs --unsat-mode.
DEPENDENT = "src/proofscope/data/problems/dependent_axioms.p"
PUZ001 = "src/proofscope/data/problems/PUZ001+1.p"

CASES = {
    "two_minima.minimize": ["minimize", TWO_MINIMA],
    "two_minima.reprove-syntactic": ["reprove", TWO_MINIMA, "--method", "syntactic"],
    "two_minima.independence-naive": ["independence", TWO_MINIMA, "--method", "naive"],
    "two_minima.consistency": ["consistency", TWO_MINIMA],
    "dependent_axioms.minimize": ["minimize", DEPENDENT, "--unsat-mode"],
    "dependent_axioms.reprove-syntactic": [
        "reprove", DEPENDENT, "--method", "syntactic", "--unsat-mode",
    ],
    "dependent_axioms.independence-naive": ["independence", DEPENDENT, "--method", "naive"],
    "dependent_axioms.consistency": ["consistency", DEPENDENT],
    "PUZ001+1.minimize": ["minimize", PUZ001],
}
SMALL_CASES = [case for case in CASES if not case.startswith("PUZ001")]


def report(case: str, parallel: int = 1) -> dict:
    """The JSON report of one case.  Run from the repository root: the
    report echoes the problem path."""
    argv = CASES[case] + ["--json", "--parallel", str(parallel), "--timeout", "30"]
    out = io.StringIO()
    main(argv, out=out, err=io.StringIO())
    return json.loads(out.getvalue())


def golden(case: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))


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
def test_report_matches_golden(at_root, case):
    assert without_elapsed(report(case)) == without_elapsed(golden(case))


@pytest.mark.parametrize("case", SMALL_CASES)
def test_parallel_report_matches_golden(at_root, case):
    """On the thread pool, the first engine phase of a batch runs before
    pruning can use its results, so only the engine-call count and the
    echoed parallelism may differ."""
    expected = without_elapsed(golden(case))
    got = without_elapsed(report(case, parallel=2))
    for data in (expected, got):
        data.pop("engine_calls")
        data["config"].pop("parallelism")
    assert got == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in CASES:
        path = GOLDEN_DIR / f"{case}.json"
        path.write_text(json.dumps(report(case), indent=2) + "\n", encoding="utf-8")
        print(path.relative_to(ROOT), file=sys.stderr)
