"""Formula operations, evaluation, and clausification tests."""

import hashlib
import random
import time

import pytest

from proofscope.clauses import (
    ORIGIN_CONJECTURE,
    OutOfBudget,
    clause_signature,
    clausify,
    query_formulas,
)
from proofscope.logic import (
    EQUALITY,
    Atom,
    Binary,
    EvaluationError,
    Interpretation,
    Not,
    Quantified,
    Truth,
    evaluate,
    free_variables,
)

from proofscope.tptp import MAX_NESTING, parse_file, render_theory, signature_of

from conftest import (
    PROBLEM_DIR,
    clause_as_formula,
    enumerate_interpretations,
    mk,
    random_closed_formula,
)


class TestFreeVariables:
    def test_open_atom(self):
        assert free_variables(Atom("p", ("X",))) == {"X"}

    def test_closed(self):
        f = Quantified("!", ("X",), Atom("p", ("X",)))
        assert free_variables(f) == frozenset()

    def test_partially_bound(self):
        f = Quantified("!", ("X",), Atom("p", ("X", "Y")))
        assert free_variables(f) == {"Y"}

    def test_nested_terms(self):
        f = Atom(EQUALITY, (("f", ("X",)), ("a", ())))
        assert free_variables(f) == {"X"}


class TestEvaluate:
    def test_propositional(self):
        m = Interpretation(1, {"p": {(): True}}, {})
        assert evaluate(m, Atom("p")) is True

    def test_forall_false(self):
        m = Interpretation(2, {"p": {(0,): True, (1,): False}}, {})
        f = Quantified("!", ("X",), Atom("p", ("X",)))
        assert evaluate(m, f) is False

    def test_two_distinct_elements(self):
        m = Interpretation(2, {}, {})
        f = Quantified(
            "?", ("X", "Y"), Not(Atom(EQUALITY, ("X", "Y")))
        )
        assert evaluate(m, f) is True
        assert evaluate(Interpretation(1, {}, {}), f) is False

    def test_function_tables(self):
        m = Interpretation(2, {"p": {(0,): False, (1,): True}}, {"f": {(0,): 1, (1,): 0}, "a": {(): 0}})
        f = Atom("p", (("f", (("a", ()),)),))
        assert evaluate(m, f) is True

    def test_missing_symbol_raises(self):
        m = Interpretation(1, {}, {})
        with pytest.raises(EvaluationError):
            evaluate(m, Atom("p"))

    def test_partial_function_table_raises(self):
        m = Interpretation(2, {}, {"f": {(0,): 1}, "b": {(): 1}})
        f = Atom(EQUALITY, (("f", (("b", ()),)), ("b", ())))
        with pytest.raises(EvaluationError):
            evaluate(m, f)

    def test_open_formula_rejected(self):
        with pytest.raises(ValueError):
            evaluate(Interpretation(1, {"p": {}}, {}), Atom("p", ("X",)))

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


class TestQueryFormulas:
    def test_premises_in_order_then_the_negated_conjecture(self):
        t = mk("fof(b, axiom, q). fof(c, conjecture, p). fof(a, axiom, p => q).")
        assert query_formulas(t) == [
            ("b", Atom("q")),
            ("a", Binary("=>", Atom("p"), Atom("q"))),
            (ORIGIN_CONJECTURE, Not(Atom("p"))),
        ]

    def test_nothing_is_added_without_a_conjecture(self):
        t = mk("fof(b, axiom, q). fof(a, axiom, ~q).")
        assert query_formulas(t) == [("b", Atom("q")), ("a", Not(Atom("q")))]
        assert query_formulas(t.restrict(set())) == []


class TestClausify:
    def test_conjunction_splits_with_origins(self):
        out = clausify([("a1", Binary("&", Atom("p"), Atom("q")))])
        assert len(out) == 2
        assert all(origins == frozenset({"a1"}) for _, origins in out)
        preds = {literals[0][1] for literals, _ in out}
        assert preds == {"p", "q"}

    def test_skolem_constant(self):
        f = Quantified("?", ("X",), Atom("p", ("X",)))
        out = clausify([("a1", f)])
        assert len(out) == 1
        _, pred, args = out[0][0][0]
        assert pred == "p" and not isinstance(args[0], str)
        assert args[0][0] == "sk1"

    def test_skolem_function_under_universal(self):
        f = Quantified(
            "!", ("X",), Quantified("?", ("Y",), Atom("r", ("X", "Y")))
        )
        out = clausify([("a1", f)])
        _, _, args = out[0][0][0]
        assert args[1][0] == "sk1"
        assert len(args[1][1]) == 1  # depends on the universal variable

    def test_skolem_fresh_against_input_signature(self):
        f = Binary(
            "&",
            Atom("p", (("sk1", ()),)),
            Quantified("?", ("X",), Atom("q", ("X",))),
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
            ("a1", Quantified("!", ("X",), Binary("|", Atom("p", ("X",)), Atom("q", ("X",))))),
            ("a2", Not(Atom("p", (("c", ()),)))),
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
        with pytest.raises(OutOfBudget):
            clausify([("a1", f)], 2618)
        with pytest.raises(OutOfBudget):
            clausify([("a1", Atom("p")), ("a2", Atom("q"))], 1)

    def test_deterministic(self):
        f = Quantified("?", ("X",), Atom("p", ("X",)))
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


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _clausify_or_name(named, limit=5000):
    try:
        return clausify(named, limit)
    except OutOfBudget:
        return "TooManyClauses"


def test_clausify_output_is_pinned_on_random_formulas():
    """The exact clause sets of 3,000 seeded sets of three random depth-3
    formulas, by digest."""
    rng = random.Random(18)
    out = [
        _clausify_or_name([(f"a{i}", random_closed_formula(rng, 3)) for i in range(3)])
        for _ in range(3000)
    ]
    assert _digest(out) == "27f0188010de8b884c7e984e4f47b41a74c25d8290db77bb718c0aa233ee3298"


def test_bundled_problems_render_and_clausify_as_pinned():
    out = []
    for path in sorted(PROBLEM_DIR.glob("*.p")):
        t = parse_file(str(path))
        clauses = clausify([(f.name, f.formula) for f in t.formulas])
        out.append((render_theory(t), signature_of(t), clauses))
    assert _digest(out) == "9359f687a0149d3c4a257ff0a0c170f19993c5058fe1753b31c29f14a009d6f9"


def _nested_iff(depth: int, leaf: str) -> str:
    return "$true <=> (" * depth + leaf + ")" * depth


def _a2(n: int):
    return (((True, "r", ((f"sk{n}", (f"V{n}",)), f"V{n}")),), frozenset({"a2"}))


@pytest.mark.parametrize(
    "text, expected",
    [
        (_nested_iff(14, "$true"), (_a2(1),)),
        (
            _nested_iff(14, "! [X] : ? [Y] : r(X, Y)"),
            ((((True, "r", ("V1", ("sk1", ("V1",)))),), frozenset({"a1"})), _a2(16385)),
        ),
        (
            _nested_iff(8, "! [X] : (p(X) <=> ? [Y] : r(X, Y))"),
            (
                (((False, "p", ("V1",)), (True, "r", ("V1", ("sk1", ("V1",))))), frozenset({"a1"})),
                (((True, "p", ("V1",)), (False, "r", ("V1", "V2"))), frozenset({"a1"})),
                _a2(385),
            ),
        ),
    ],
    ids=["true", "quantified", "quantified-iff"],
)
def test_nested_biconditionals_are_pinned(text, expected):
    """The clauses of a deep <=> chain, and the V<n>/sk<n> names that its
    walks take, which run on into the formula after it."""
    t = mk(f"fof(a1, axiom, {text}). fof(a2, axiom, ! [X] : ? [Y] : r(Y, X)).")
    assert clausify([(f.name, f.formula) for f in t.formulas]) == expected


def test_nested_biconditionals_clausify_in_linear_time():
    t = mk(f"fof(a1, axiom, {_nested_iff(MAX_NESTING, '$true')}).")
    start = time.perf_counter()
    assert clausify([("a1", t.formulas[0].formula)]) == ()
    assert time.perf_counter() - start < 0.5


def test_shared_operand_gets_each_binders_substitution():
    """One <=> node object under both ! [X] and ? [X]: each of its walks
    substitutes its own binder's X."""
    body = Binary("<=>", Atom("q"), Atom("p", ("X",)))
    f = Binary("&", Quantified("!", ("X",), body), Quantified("?", ("X",), body))
    sk1 = ("sk1", ())
    assert [lits for lits, _ in clausify([("a1", f)])] == [
        ((False, "q", ()), (True, "p", ("V1",))),
        ((True, "q", ()), (False, "p", ("V1",))),
        ((False, "q", ()), (True, "p", (sk1,))),
        ((True, "q", ()), (False, "p", (sk1,))),
    ]
