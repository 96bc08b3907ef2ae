"""Shared fixtures and independent oracles for the test suite.

The oracles here (interpretation enumeration, truth tables) are deliberately
written against the formula evaluator only, independent of the clausifier,
prover, and model-finder code paths they are used to check.
"""

from __future__ import annotations

import itertools
import json
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

from proofscope.engines import BuiltinModelFinder, BuiltinProver, EngineLimits
from proofscope.logic import (
    EQUALITY,
    Atom,
    Binary,
    Formula,
    Interpretation,
    Not,
    Quantified,
    Truth,
    evaluate,
)
from proofscope.tptp import Theory, parse_problem

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("ci")

PROBLEM_DIR = Path(__file__).resolve().parents[1] / "src" / "proofscope" / "data" / "problems"
PUZ001 = PROBLEM_DIR / "PUZ001+1.p"
STUB_ENGINE = (
    Path(__file__).resolve().parents[1] / "src" / "proofscope" / "data" / "stub_engine.py"
)


def mk(text: str) -> Theory:
    return parse_problem(text)


@pytest.fixture(scope="session")
def prover():
    return BuiltinProver()


@pytest.fixture(scope="session")
def model_finder():
    return BuiltinModelFinder()


@pytest.fixture(scope="session")
def schema():
    """The JSON report schema."""
    text = resources.files("proofscope.data").joinpath("report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="session")
def limits():
    return EngineLimits(timeout=30.0, max_domain_size=4)


@pytest.fixture(scope="session")
def puz001() -> Theory:
    from proofscope.tptp import parse_file

    return parse_file(str(PUZ001))


# ---------------------------------------------------------------------------
# Oracle: brute-force interpretation enumeration


def formula_signature(formulas) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function arities occurring in the given formulas."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}

    def term(t):
        if not isinstance(t, str):
            funcs.setdefault(t[0], len(t[1]))
            for a in t[1]:
                term(a)

    def walk(f: Formula):
        if isinstance(f, Atom):
            if f.pred != EQUALITY:
                preds.setdefault(f.pred, len(f.args))
            for a in f.args:
                term(a)
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, Binary):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Quantified):
            walk(f.body)

    for f in formulas:
        walk(f)
    return preds, funcs


def enumerate_interpretations(formulas, size: int):
    """Yield every interpretation of the formulas' signature at this size."""
    preds, funcs = formula_signature(formulas)
    domain = range(size)
    pred_items = sorted(preds.items())
    func_items = sorted(funcs.items())
    pred_tuples = [
        list(itertools.product(domain, repeat=arity)) for _, arity in pred_items
    ]
    func_tuples = [
        list(itertools.product(domain, repeat=arity)) for _, arity in func_items
    ]
    pred_choices = [
        list(itertools.product([False, True], repeat=len(tuples)))
        for tuples in pred_tuples
    ]
    func_choices = [
        list(itertools.product(domain, repeat=len(tuples))) for tuples in func_tuples
    ]
    for pred_assign in itertools.product(*pred_choices) if pred_items else [()]:
        for func_assign in itertools.product(*func_choices) if func_items else [()]:
            predicates = {
                name: dict(zip(tuples, values))
                for (name, _), tuples, values in zip(
                    pred_items, pred_tuples, pred_assign
                )
            }
            functions = {
                name: dict(zip(tuples, values))
                for (name, _), tuples, values in zip(
                    func_items, func_tuples, func_assign
                )
            }
            yield Interpretation(size, predicates, functions)


def has_model_upto(formulas, max_size: int) -> bool:
    """Brute-force satisfiability check over domains 1..max_size."""
    formulas = list(formulas)
    for size in range(1, max_size + 1):
        for interp in enumerate_interpretations(formulas, size):
            if all(evaluate(interp, f) for f in formulas):
                return True
    return False


def prop_satisfiable(formulas) -> bool:
    """Truth-table satisfiability for quantifier-free, function-free formulas."""
    return has_model_upto(list(formulas), 1)


def prop_entails(premises, conclusion) -> bool:
    """Truth-table entailment for propositional formulas."""
    premises = list(premises)
    for interp in enumerate_interpretations(premises + [conclusion], 1):
        if all(evaluate(interp, f) for f in premises) and not evaluate(
            interp, conclusion
        ):
            return False
    return True


def clause_as_formula(clause) -> Formula:
    """View a clause as a universally closed disjunction of its literals."""
    literals, _ = clause
    lits = []
    variables: set[str] = set()
    for positive, pred, args in literals:
        for a in args:
            _add_variables(a, variables)
        atom = Atom(pred, args)
        lits.append(atom if positive else Not(atom))
    if not lits:
        return Truth(False)
    body = lits[0]
    for lit in lits[1:]:
        body = Binary("|", body, lit)
    if variables:
        return Quantified("!", tuple(sorted(variables)), body)
    return body


def _add_variables(t, variables: set[str]) -> None:
    if isinstance(t, str):
        variables.add(t)
    else:
        for a in t[1]:
            _add_variables(a, variables)


def random_closed_formula(rng, depth: int) -> Formula:
    """Small random closed formula over {p/1, q/0, f/1, a, b} for fuzzing."""
    if depth == 0:
        roll = rng.random()
        if roll < 0.45:
            return Atom("p", (random_term(rng),))
        if roll < 0.7:
            return Atom("q")
        if roll < 0.9:
            return Atom(EQUALITY, (random_term(rng), random_term(rng)))
        return Truth(rng.random() < 0.5)
    roll = rng.random()
    sub = random_closed_formula(rng, depth - 1)
    if roll < 0.25:
        return Not(sub)
    if roll < 0.6:
        op = rng.choice(["&", "|", "=>", "<=>"])
        return Binary(op, sub, random_closed_formula(rng, depth - 1))
    kind = "!" if rng.random() < 0.5 else "?"
    return Quantified(kind, ("X",), _open_over_x(rng, random_closed_formula(rng, depth - 1)))


def random_term(rng):
    roll = rng.random()
    if roll < 0.5:
        return ("a", ())
    if roll < 0.8:
        return ("f", (("a", ()),))
    return ("b", ())


def random_open_term(rng, variables=("X0", "X1", "X2"), depth: int = 2):
    """Small random clause-form term over {f/1, a, b} and the given variables."""
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(variables)
    if roll < 0.55 or depth == 0:
        return ("a", ())
    if roll < 0.7:
        return ("b", ())
    return ("f", (random_open_term(rng, variables, depth - 1),))


def random_literals(rng, max_literals: int = 3, variables=("X0", "X1", "X2")):
    """1 to max_literals random clause-form literals over {p/1, q/0, =} whose
    terms come from random_open_term."""
    out = []
    for _ in range(rng.randint(1, max_literals)):
        positive = rng.random() < 0.5
        roll = rng.random()
        if roll < 0.45:
            args = (random_open_term(rng, variables),)
            out.append((positive, "p", args))
        elif roll < 0.6:
            out.append((positive, "q", ()))
        else:
            args = (random_open_term(rng, variables), random_open_term(rng, variables))
            out.append((positive, EQUALITY, args))
    return tuple(out)


def _open_over_x(rng, f: Formula) -> Formula:
    """Replace some occurrences of the constant a with the variable X."""

    def replace(term):
        if isinstance(term, str):
            return term
        if term[0] == "a" and rng.random() < 0.5:
            return "X"
        if term[1]:
            return (term[0], tuple(replace(t) for t in term[1]))
        return term

    def walk(g):
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(replace(t) for t in g.args))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, Binary):
            return Binary(g.op, walk(g.left), walk(g.right))
        return g  # nested quantifiers keep their own bound structure

    return walk(f)


def stub_spec(mode: str, *extra: str, engine_id: str | None = None, caps=("proves",)):
    """EngineSpec invoking the bundled stub engine script."""
    from proofscope.engines import EngineSpec

    return EngineSpec(
        id=engine_id or f"stub-{mode}",
        executable=sys.executable,
        argument_template=(str(STUB_ENGINE), "--mode", mode, *extra, "{problem}"),
        capabilities=frozenset(caps),
    )
