"""Formula operations, evaluation, and clausification tests."""

import pytest

from proofscope.clauses import clausify
from proofscope.logic import (
    App,
    Atom,
    Binary,
    Equality,
    EvaluationError,
    Interpretation,
    Not,
    Quantified,
    Truth,
    Var,
    evaluate,
    free_variables,
)

from conftest import clause_as_formula, enumerate_interpretations, mk


class TestFreeVariables:
    def test_open_atom(self):
        assert free_variables(Atom("p", (Var("X"),))) == {"X"}

    def test_closed(self):
        f = Quantified("!", ("X",), Atom("p", (Var("X"),)))
        assert free_variables(f) == frozenset()

    def test_partially_bound(self):
        f = Quantified("!", ("X",), Atom("p", (Var("X"), Var("Y"))))
        assert free_variables(f) == {"Y"}

    def test_nested_terms(self):
        f = Equality(App("f", (Var("X"),)), App("a"))
        assert free_variables(f) == {"X"}


class TestEvaluate:
    def test_propositional(self):
        m = Interpretation(1, {"p": {(): True}}, {})
        assert evaluate(m, Atom("p")) is True

    def test_forall_false(self):
        m = Interpretation(2, {"p": {(0,): True, (1,): False}}, {})
        f = Quantified("!", ("X",), Atom("p", (Var("X"),)))
        assert evaluate(m, f) is False

    def test_two_distinct_elements(self):
        m = Interpretation(2, {}, {})
        f = Quantified(
            "?", ("X", "Y"), Not(Equality(Var("X"), Var("Y")))
        )
        assert evaluate(m, f) is True
        assert evaluate(Interpretation(1, {}, {}), f) is False

    def test_function_tables(self):
        m = Interpretation(2, {"p": {(0,): False, (1,): True}}, {"f": {(0,): 1, (1,): 0}, "a": {(): 0}})
        f = Atom("p", (App("f", (App("a"),)),))
        assert evaluate(m, f) is True

    def test_missing_symbol_raises(self):
        m = Interpretation(1, {}, {})
        with pytest.raises(EvaluationError):
            evaluate(m, Atom("p"))

    def test_partial_function_table_raises(self):
        m = Interpretation(2, {}, {"f": {(0,): 1}, "b": {(): 1}})
        f = Equality(App("f", (App("b"),)), App("b"))
        with pytest.raises(EvaluationError):
            evaluate(m, f)

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Interpretation(1, {"p": {}}, {}), Atom("p", (Var("X"),)))

    def test_all_connectives(self):
        m = Interpretation(1, {"p": {(): True}, "q": {(): False}}, {})
        p, q = Atom("p"), Atom("q")
        assert evaluate(m, Binary("&", p, q)) is False
        assert evaluate(m, Binary("|", p, q)) is True
        assert evaluate(m, Binary("=>", p, q)) is False
        assert evaluate(m, Binary("<=", p, q)) is True
        assert evaluate(m, Binary("<=>", p, q)) is False
        assert evaluate(m, Binary("<~>", p, q)) is True
        assert evaluate(m, Binary("~|", p, q)) is False
        assert evaluate(m, Binary("~&", p, q)) is True


class TestClausify:
    def test_conjunction_splits_with_origins(self):
        out = clausify([("a1", Binary("&", Atom("p"), Atom("q")))])
        assert len(out) == 2
        assert all(c.origins == frozenset({"a1"}) for c in out)
        preds = {c.literals[0].pred for c in out}
        assert preds == {"p", "q"}

    def test_skolem_constant(self):
        f = Quantified("?", ("X",), Atom("p", (Var("X"),)))
        out = clausify([("a1", f)])
        assert len(out) == 1
        lit = out[0].literals[0]
        assert lit.pred == "p" and isinstance(lit.args[0], App)
        assert lit.args[0].head == "sk1"

    def test_skolem_function_under_universal(self):
        f = Quantified(
            "!", ("X",), Quantified("?", ("Y",), Atom("r", (Var("X"), Var("Y"))))
        )
        out = clausify([("a1", f)])
        lit = out[0].literals[0]
        assert lit.args[1].head == "sk1"
        assert len(lit.args[1].args) == 1  # depends on the universal variable

    def test_skolem_fresh_against_input_signature(self):
        f = Binary(
            "&",
            Atom("p", (App("sk1"),)),
            Quantified("?", ("X",), Atom("q", (Var("X"),))),
        )
        out = clausify([("a1", f)])
        heads = {
            lit.args[0].head
            for c in out
            for lit in c.literals
            if lit.args and isinstance(lit.args[0], App)
        }
        assert "sk1" in heads  # the input one survives
        assert "sk2" in heads  # the fresh one skips the taken name

    def test_distinct_origins_per_formula(self):
        named = [
            ("a1", Quantified("!", ("X",), Binary("|", Atom("p", (Var("X"),)), Atom("q", (Var("X"),))))),
            ("a2", Not(Atom("p", (App("c"),)))),
        ]
        out = clausify(named)
        assert len(out) == 2
        assert out[0].origins == frozenset({"a1"})
        assert out[1].origins == frozenset({"a2"})

    def test_truth_constants(self):
        assert clausify([("a1", Truth(True))]) == ()
        out = clausify([("a1", Truth(False))])
        assert len(out) == 1 and not out[0].literals
        # p | $true is a tautology: no clauses
        assert clausify([("a1", Binary("|", Atom("p"), Truth(True)))]) == ()
        # p & $false contributes an empty clause
        out = clausify([("a1", Binary("&", Atom("p"), Truth(False)))])
        assert any(not c.literals for c in out)

    def test_deterministic(self):
        f = Quantified("?", ("X",), Atom("p", (Var("X"),)))
        assert clausify([("a1", f)]) == clausify([("a1", f)])

    @pytest.mark.parametrize(
        "text",
        [
            "fof(a1, axiom, p & q).",
            "fof(a1, axiom, p <=> q).",
            "fof(a1, axiom, p <~> q).",
            "fof(a1, axiom, ~(p | q)).",
            "fof(a1, axiom, ! [X] : (p(X) => q(X))).",
            "fof(a1, axiom, ? [X] : (p(X) & ~q(X))).",
            "fof(a1, axiom, ! [X] : ? [Y] : r(X, Y)).",
            "fof(a1, axiom, (p ~& q) | (p ~| q)).",
            "fof(a1, axiom, a = b).",
            "fof(a1, axiom, ? [X] : X != a).",
        ],
    )
    def test_equisatisfiable_at_small_sizes(self, text):
        """Clausification preserves models of size <= 3, by brute force."""
        theory = mk(text)
        originals = [f.formula for f in theory.formulas]
        clause_formulas = [
            clause_as_formula(c)
            for c in clausify([(f.name, f.formula) for f in theory.formulas])
        ]
        for size in (1, 2, 3):
            orig_sat = any(
                all(evaluate(m, f) for f in originals)
                for m in enumerate_interpretations(originals, size)
            )
            clause_sat = any(
                all(evaluate(m, f) for f in clause_formulas)
                for m in enumerate_interpretations(clause_formulas, size)
            )
            assert orig_sat == clause_sat, f"size {size}: {orig_sat} vs {clause_sat}"
