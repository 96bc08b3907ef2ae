"""Formula operations, evaluation, and clausification tests."""

import pytest

from proofscope.clauses import TooManyClauses, clause_signature, clausify
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
        assert all(origins == frozenset({"a1"}) for _, origins in out)
        preds = {literals[0][1] for literals, _ in out}
        assert preds == {"p", "q"}

    def test_skolem_constant(self):
        f = Quantified("?", ("X",), Atom("p", (Var("X"),)))
        out = clausify([("a1", f)])
        assert len(out) == 1
        _, pred, args = out[0][0][0]
        assert pred == "p" and not isinstance(args[0], str)
        assert args[0][0] == "sk1"

    def test_skolem_function_under_universal(self):
        f = Quantified(
            "!", ("X",), Quantified("?", ("Y",), Atom("r", (Var("X"), Var("Y"))))
        )
        out = clausify([("a1", f)])
        _, _, args = out[0][0][0]
        assert args[1][0] == "sk1"
        assert len(args[1][1]) == 1  # depends on the universal variable

    def test_skolem_fresh_against_input_signature(self):
        f = Binary(
            "&",
            Atom("p", (App("sk1"),)),
            Quantified("?", ("X",), Atom("q", (Var("X"),))),
        )
        out = clausify([("a1", f)])
        heads = {
            args[0][0]
            for literals, _ in out
            for _, _, args in literals
            if args and not isinstance(args[0], str)
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
        assert out[0][1] == frozenset({"a1"})
        assert out[1][1] == frozenset({"a2"})

    def test_truth_constants(self):
        assert clausify([("a1", Truth(True))]) == ()
        out = clausify([("a1", Truth(False))])
        assert len(out) == 1 and not out[0][0]
        # p | $true is a tautology: no clauses
        assert clausify([("a1", Binary("|", Atom("p"), Truth(True)))]) == ()
        # p & $false contributes an empty clause
        out = clausify([("a1", Binary("&", Atom("p"), Truth(False)))])
        assert any(not literals for literals, _ in out)

    def test_signature_lists_function_symbols_in_pre_order(self):
        """The model finder breaks symmetry by the order of the constants in
        clause_signature, so that order is pre-order over the clauses."""
        t = mk("fof(a1, axiom, p(f(a, g(b)), c) | ~q(h(d))). fof(a2, axiom, e = k(a, m)).")
        preds, funcs = clause_signature(clausify([(f.name, f.formula) for f in t.formulas]))
        assert list(preds.items()) == [("p", 2), ("q", 1)]
        assert list(funcs.items()) == [
            ("f", 2), ("a", 0), ("g", 1), ("b", 0), ("c", 0), ("h", 1), ("d", 0),
            ("e", 0), ("k", 2), ("m", 0),
        ]

    def test_limit_stops_before_the_clauses_outgrow_it(self):
        f = mk("fof(a1, axiom, p <=> (p <=> (p <=> (p <=> (p <=> p))))).").formulas[0].formula
        assert len(clausify([("a1", f)])) == len(clausify([("a1", f)], 2619)) == 2619
        with pytest.raises(TooManyClauses):
            clausify([("a1", f)], 2618)
        with pytest.raises(TooManyClauses):
            clausify([("a1", Atom("p")), ("a2", Atom("q"))], 1)

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
            "fof(a1, axiom, ~(p & q)).",
            "fof(a1, axiom, ~(p => q)).",
            "fof(a1, axiom, ~(p <= q)).",
            "fof(a1, axiom, ~(p <=> q)).",
            "fof(a1, axiom, ~(p <~> q)).",
            "fof(a1, axiom, ~(p ~| q) & ~(p ~& q)).",
            "fof(a1, axiom, ~ ! [X] : ? [Y] : r(X, Y)).",
            "fof(a1, axiom, ~ ? [X] : (p(X) | ~q(X))).",
            "fof(a1, axiom, ~ ? [X] : ! [Y] : ~ ! [Z] : (r(X, Y) | r(Y, Z))).",
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


# The exact clause form of each connective under both polarities, of
# quantifiers under negation, of truth-constant operands and of a
# distribution: clauses and literals in order, with the V<n> and sk<n> names.
# The model finder breaks symmetry by constant order and the prover's search
# follows clause order, so a clausifier that changes any of this changes
# their answers or their effort.
CLAUSIFY_PINS = [
    (
        "(! [X] : ? [Y] : r(X, Y)) & (? [Z] : ! [W] : s(Z, W))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))),),
            ((True, "s", (("sk2", ()), "V2")),),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) & (? [Z] : ! [W] : s(Z, W)))",
        [
            ((False, "r", (("sk1", ()), "V1")), (False, "s", ("V2", ("sk2", ("V2",))))),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) | (? [Z] : ! [W] : s(Z, W))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))), (True, "s", (("sk2", ()), "V2"))),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) | (? [Z] : ! [W] : s(Z, W)))",
        [
            ((False, "r", (("sk1", ()), "V1")),),
            ((False, "s", ("V2", ("sk2", ("V2",)))),),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) => (? [Z] : ! [W] : s(Z, W))",
        [
            ((False, "r", (("sk1", ()), "V1")), (True, "s", (("sk2", ()), "V2"))),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) => (? [Z] : ! [W] : s(Z, W)))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))),),
            ((False, "s", ("V2", ("sk2", ("V2",)))),),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) <= (? [Z] : ! [W] : s(Z, W))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))), (False, "s", ("V2", ("sk2", ("V2",))))),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) <= (? [Z] : ! [W] : s(Z, W)))",
        [
            ((False, "r", (("sk1", ()), "V1")),),
            ((True, "s", (("sk2", ()), "V2")),),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) <=> (? [Z] : ! [W] : s(Z, W))",
        [
            ((False, "r", (("sk1", ()), "V1")), (True, "s", (("sk2", ()), "V2"))),
            ((True, "r", ("V3", ("sk3", ("V3",)))), (False, "s", ("V4", ("sk4", ("V4",))))),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) <=> (? [Z] : ! [W] : s(Z, W)))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))), (False, "r", (("sk3", ()), "V3"))),
            ((True, "r", ("V1", ("sk1", ("V1",)))), (True, "s", (("sk4", ()), "V4"))),
            ((False, "s", ("V2", ("sk2", ("V2",)))), (False, "r", (("sk3", ()), "V3"))),
            ((False, "s", ("V2", ("sk2", ("V2",)))), (True, "s", (("sk4", ()), "V4"))),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) <~> (? [Z] : ! [W] : s(Z, W))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))), (False, "r", (("sk3", ()), "V3"))),
            ((True, "r", ("V1", ("sk1", ("V1",)))), (True, "s", (("sk4", ()), "V4"))),
            ((False, "s", ("V2", ("sk2", ("V2",)))), (False, "r", (("sk3", ()), "V3"))),
            ((False, "s", ("V2", ("sk2", ("V2",)))), (True, "s", (("sk4", ()), "V4"))),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) <~> (? [Z] : ! [W] : s(Z, W)))",
        [
            ((False, "r", (("sk1", ()), "V1")), (True, "s", (("sk2", ()), "V2"))),
            ((True, "r", ("V3", ("sk3", ("V3",)))), (False, "s", ("V4", ("sk4", ("V4",))))),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) ~| (? [Z] : ! [W] : s(Z, W))",
        [
            ((False, "r", (("sk1", ()), "V1")),),
            ((False, "s", ("V2", ("sk2", ("V2",)))),),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) ~| (? [Z] : ! [W] : s(Z, W)))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))), (True, "s", (("sk2", ()), "V2"))),
        ],
    ),
    (
        "(! [X] : ? [Y] : r(X, Y)) ~& (? [Z] : ! [W] : s(Z, W))",
        [
            ((False, "r", (("sk1", ()), "V1")), (False, "s", ("V2", ("sk2", ("V2",))))),
        ],
    ),
    (
        "~((! [X] : ? [Y] : r(X, Y)) ~& (? [Z] : ! [W] : s(Z, W)))",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)))),),
            ((True, "s", (("sk2", ()), "V2")),),
        ],
    ),
    (
        "~ ! [X] : ? [Y] : r(X, Y)",
        [
            ((False, "r", (("sk1", ()), "V1")),),
        ],
    ),
    (
        "~ ? [X] : ! [Y] : ~ ! [Z] : r(X, Y, Z)",
        [
            ((True, "r", ("V1", ("sk1", ("V1",)), "V2")),),
        ],
    ),
    (
        "((? [X] : p(X)) | $true) & (? [Y] : q(Y))",
        [
            ((True, "q", (("sk2", ()),)),),
        ],
    ),
    (
        "($true | ~ ? [X] : p(X)) & (! [Y] : q(Y))",
        [
            ((True, "q", ("V2",)),),
        ],
    ),
    (
        "(! [X] : p(X)) & $false",
        [
            ((True, "p", ("V1",)),),
            (),
        ],
    ),
    (
        "~ ($false | ? [X] : p(X))",
        [
            ((False, "p", ("V1",)),),
        ],
    ),
    (
        "(p & q) | (r & s)",
        [
            ((True, "p", ()), (True, "r", ())),
            ((True, "p", ()), (True, "s", ())),
            ((True, "q", ()), (True, "r", ())),
            ((True, "q", ()), (True, "s", ())),
        ],
    ),
    (
        "(p & q) <=> (r | s)",
        [
            ((False, "p", ()), (False, "q", ()), (True, "r", ()), (True, "s", ())),
            ((True, "p", ()), (False, "r", ())),
            ((True, "p", ()), (False, "s", ())),
            ((True, "q", ()), (False, "r", ())),
            ((True, "q", ()), (False, "s", ())),
        ],
    ),
    (
        "(p | q) | (q | p)",
        [
            ((True, "p", ()), (True, "q", ())),
        ],
    ),
    (
        "p(sk1) & ? [X] : q(X, sk2)",
        [
            ((True, "p", (("sk1", ()),)),),
            ((True, "q", (("sk3", ()), ("sk2", ()))),),
        ],
    ),
]


@pytest.mark.parametrize("text, expected", CLAUSIFY_PINS, ids=[p[0] for p in CLAUSIFY_PINS])
def test_clausify_is_pinned(text, expected):
    f = mk(f"fof(a1, axiom, {text}).").formulas[0].formula
    assert clausify([("a1", f)]) == tuple((lits, frozenset({"a1"})) for lits in expected)


def test_clausify_names_run_on_across_formulas():
    t = mk("fof(a1, axiom, ! [X] : ? [Y] : r(X, Y)). fof(a2, axiom, ? [X] : ! [Y] : r(X, Y)).")
    assert clausify([(f.name, f.formula) for f in t.formulas]) == (
        (((True, "r", ("V1", ("sk1", ("V1",)))),), frozenset({"a1"})),
        (((True, "r", (("sk2", ()), "V2")),), frozenset({"a2"})),
    )
