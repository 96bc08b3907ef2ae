"""Finite model finder tests: soundness, least sizes, exhaustion, limits."""

import random
import time

import pytest
from hypothesis import assume, given, strategies as st

from proofscope import modelfinder
from proofscope.clauses import clause_signature, clausify, contains_equality
from proofscope.engines import EngineLimits
from proofscope.logic import Not, evaluate
from proofscope.modelfinder import (
    ModelKind,
    find_model,
    model_to_text,
    verify_model,
)
from proofscope.logic import Atom, Interpretation, Not, Quantified

from conftest import enumerate_interpretations, mk, random_closed_formula


def formulas_of(text):
    return [(f.name, f.formula) for f in mk(text).formulas]


def flat_clause(formula_text):
    [(literals, _)] = clausify(formulas_of(f"fof(a1, axiom, {formula_text})."))
    return modelfinder._flatten(literals)


GROUP_AXIOMS = """
fof(assoc, axiom, ![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))).
fof(left_identity, axiom, ![X]: mult(e,X) = X).
fof(left_inverse, axiom, ![X]: mult(inv(X),X) = e).
"""


class TestFlatten:
    """Paradox-style flattening: a positive equation with a function term on
    one side is one function-cell literal, a negative variable equation is
    substituted away."""

    def test_associativity_has_six_variables(self):
        flat = flat_clause("![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))")
        assert flat.nvars == 6
        assert not any(lit[0] == "eq" for lit in flat.literals)

    def test_left_identity_has_two_variables(self):
        flat = flat_clause("![X]: mult(e,X) = X")
        assert flat.nvars == 2
        assert [lit[0] for lit in flat.literals] == ["func", "func"]

    def test_negative_variable_equation_is_substituted(self):
        flat = flat_clause("![X]: f(X) != X")
        assert flat.nvars == 1
        assert flat.literals == (("func", "f", (0,), 0, False),)

    def test_variable_equation_stays(self):
        flat = flat_clause("![X,Y]: X = Y")
        assert flat.nvars == 2
        assert flat.literals == (("eq", 0, 1),)

    def test_variables_are_numbered_densely(self):
        flat = flat_clause("![X,Y,Z]: (X != Y | Y != Z | r(X, Z))")
        assert flat.nvars == 1
        assert flat.literals == (("pred", "r", (0, 0), True),)


class TestFindModel:
    def test_single_fact_size_one(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p(a))."),
            EngineLimits(timeout=10, max_domain_size=3),
        )
        assert out.kind == ModelKind.ModelFound
        assert out.model.domain_size == 1

    def test_least_size_two(self):
        formulas = formulas_of("fof(a1, axiom, ! [X] : ? [Y] : X != Y).")
        # oracle: no size-1 interpretation satisfies it
        fs = [f for _, f in formulas]
        assert not any(
            all(evaluate(m, f) for f in fs) for m in enumerate_interpretations(fs, 1)
        )
        out = find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))
        assert out.kind == ModelKind.ModelFound
        assert out.model.domain_size == 2

    def test_least_size_three(self):
        formulas = formulas_of(
            "fof(a1, axiom, ? [X,Y,Z] : (X != Y & X != Z & Y != Z))."
        )
        out = find_model(formulas, EngineLimits(timeout=10, max_domain_size=4))
        assert out.kind == ModelKind.ModelFound
        assert out.model.domain_size == 3

    def test_propositional_contradiction_exhausts(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p). fof(a2, axiom, ~p)."),
            EngineLimits(timeout=10, max_domain_size=3),
        )
        assert out.kind == ModelKind.ExhaustedUpTo
        assert out.exhausted_size == 3
        assert out.model is None

    def test_function_totality(self):
        out = find_model(
            formulas_of(
                "fof(a1, axiom, ! [X] : p(f(X))). fof(a2, axiom, ? [X] : ~p(X))."
            ),
            EngineLimits(timeout=10, max_domain_size=4),
        )
        assert out.kind == ModelKind.ModelFound
        m = out.model
        table = m.functions["f"]
        assert set(table.keys()) == {(i,) for i in range(m.domain_size)}

    def test_resource_out(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p)."),
            EngineLimits(timeout=0.000001, max_domain_size=3),
        )
        assert out.kind == ModelKind.ResourceOut

    def test_symbol_at_two_arities_is_an_input_error(self, monkeypatch):
        """The parser rejects such a theory, the library API does not: the
        finder names the clash before it grounds anything."""

        def no_grounding(*args):
            raise AssertionError("grounded a clashing signature")

        monkeypatch.setattr(modelfinder, "_ground", no_grounding)
        formulas = [
            ("a", Quantified("?", ("X",), Atom("p", (("f", ("X",)),)))),
            ("b", Not(Not(Atom("p")))),
        ]
        with pytest.raises(ValueError, match=r"symbol p used with arity 1 and arity 0"):
            find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))

    def test_determinism(self):
        formulas = formulas_of(
            "fof(a1, axiom, ! [X] : (p(X) | q(X))). fof(a2, axiom, ? [X] : ~p(X))."
        )
        a = find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))
        b = find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))
        assert a.model == b.model

    def test_dreadbury_countermodel_for_wrong_killer(self, puz001):
        """The mystery has a unique answer, so a charles-based accusation
        admits a countermodel."""
        axioms = [(p.name, p.formula) for p in puz001.premises]
        wrong = mk("fof(goal, conjecture, killed(charles, agatha)).").conjecture
        out = find_model(
            axioms + [("$neg", Not(wrong.formula))],
            EngineLimits(timeout=30, max_domain_size=4),
        )
        assert out.kind == ModelKind.ModelFound
        assert verify_model(out.model, [f for _, f in axioms])


class TestTextbookFamilies:
    def test_least_non_abelian_group_has_six_elements(self, monkeypatch):
        ground_sizes = {}
        ground = modelfinder._ground

        def counting_ground(flats, layout, constants, deadline):
            out = ground(flats, layout, constants, deadline)
            ground_sizes[layout.n] = len(out[0])
            return out

        monkeypatch.setattr(modelfinder, "_ground", counting_ground)
        formulas = formulas_of(
            GROUP_AXIOMS + "fof(nc, axiom, ~ ![X,Y]: mult(X,Y) = mult(Y,X))."
        )
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=6))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 6)
        assert verify_model(out.model, [f for _, f in formulas])
        assert ground_sizes[6] < 60_000  # 235,477 with a variable per side

    def test_five_pigeons_do_not_fit_four_holes(self):
        formulas = formulas_of(
            """
            fof(distinct, axiom, p1 != p2 & p1 != p3 & p1 != p4 & p1 != p5
                & p2 != p3 & p2 != p4 & p2 != p5 & p3 != p4 & p3 != p5 & p4 != p5).
            fof(pigeons, axiom, pigeon(p1) & pigeon(p2) & pigeon(p3)
                & pigeon(p4) & pigeon(p5)).
            fof(holes, axiom, ![X]: (hole(X) <=> (X = h1 | X = h2 | X = h3 | X = h4))).
            fof(placed, axiom, ![X]: (pigeon(X) => ?[H]: (hole(H) & in(X,H)))).
            fof(no_share, axiom, ![X,Y,H]: ((in(X,H) & in(Y,H)) => X = Y)).
            """
        )
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=5))
        assert (out.kind, out.exhausted_size) == (ModelKind.ExhaustedUpTo, 5)

    def test_element_of_order_four_needs_four_elements(self):
        formulas = formulas_of(
            GROUP_AXIOMS
            + """
            fof(order, axiom, mult(a,mult(a,mult(a,a))) = e).
            fof(order_1, axiom, a != e).
            fof(order_2, axiom, mult(a,a) != e).
            fof(order_3, axiom, mult(a,mult(a,a)) != e).
            """
        )
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=5))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 4)
        assert verify_model(out.model, [f for _, f in formulas])


class TestVerifyModel:
    def test_accepts_true(self):
        m = Interpretation(1, {"p": {(): True}}, {})
        assert verify_model(m, [Atom("p")])

    def test_rejects_false(self):
        m = Interpretation(1, {"p": {(): False}}, {})
        assert not verify_model(m, [Atom("p")])

    def test_past_the_deadline_is_a_timeout(self):
        m = Interpretation(1, {"p": {(0,): True}}, {})
        f = Quantified("!", ("X",), Atom("p", ("X",)))
        assert verify_model(m, [f], time.monotonic() + 60)
        with pytest.raises(TimeoutError):
            verify_model(m, [f], time.monotonic() - 1)

    def test_verification_keeps_to_the_call_budget(self):
        """The tautology makes no clause, so grounding never meets its 20
        variables; verifying the size-2 model tries 2**20 assignments, which
        takes seconds, and stops at the deadline instead."""
        xs = ", ".join(f"X{i}" for i in range(20))
        formulas = formulas_of(
            f"fof(a1, axiom, a != b). fof(a2, axiom, ! [{xs}] : (p(X0) | ~p(X0)))."
        )
        start = time.monotonic()
        out = find_model(formulas, EngineLimits(timeout=1.0, max_domain_size=2))
        assert out.kind == ModelKind.ResourceOut
        assert time.monotonic() - start < 2

    def test_every_returned_model_passes(self):
        texts = [
            "fof(a1, axiom, p(a) & ~p(b)).",
            "fof(a1, axiom, ! [X] : (p(X) => q(X))). fof(a2, axiom, ? [X] : p(X)).",
            "fof(a1, axiom, ? [X,Y] : (r(X, Y) & X != Y)).",
            "fof(a1, axiom, ! [X] : ? [Y] : r(X, Y)). fof(a2, axiom, ! [X] : ~r(X, X)).",
        ]
        for text in texts:
            formulas = formulas_of(text)
            out = find_model(formulas, EngineLimits(timeout=20, max_domain_size=4))
            assert out.kind == ModelKind.ModelFound, text
            assert verify_model(out.model, [f for _, f in formulas])


class TestRandomizedSoundness:
    """Randomized small formulas: every found model verifies, and exhaustion
    agrees with the brute-force enumerator."""

    def test_two_hundred_random_runs(self):
        from conftest import random_closed_formula

        rng = random.Random(20240811)
        found = exhausted = 0
        for i in range(220):
            formula = random_closed_formula(rng, 2)
            out = find_model(
                [("gen", formula)], EngineLimits(timeout=10, max_domain_size=2)
            )
            if out.kind == ModelKind.ModelFound:
                found += 1
                assert evaluate(out.model, formula), f"run {i}: model fails"
                assert out.model.domain_size <= 2
            elif out.kind == ModelKind.ExhaustedUpTo:
                exhausted += 1
                # the brute-force enumerator agrees nothing exists up to 2
                for size in (1, 2):
                    for m in enumerate_interpretations([formula], size):
                        assert not evaluate(m, formula), f"run {i}: missed model"
        assert found + exhausted == 220
        assert found >= 100  # the generator is not degenerate


def least_model_size(formulas, max_size):
    for size in range(1, max_size + 1):
        for m in enumerate_interpretations(formulas, size):
            if all(evaluate(m, f) for f in formulas):
                return size
    return None


@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3),
    depth=st.integers(1, 2),
)
def test_finder_agrees_with_enumeration_on_constants_and_equality(seeds, depth):
    """Sets of random formulas whose clauses use the constants a and b and
    equality, so the constant ordering and both flattening rewrites apply:
    the least model size up to 3, or its absence, is the brute-force one."""
    formulas = [random_closed_formula(random.Random(s), depth) for s in seeds]
    named = [(f"f{i}", f) for i, f in enumerate(formulas)]
    clauses = clausify(named)
    assume({"a", "b"} <= clause_signature(clauses)[1].keys())
    assume(contains_equality(clauses))
    want = least_model_size(formulas, 3)
    out = find_model(named, EngineLimits(timeout=30, max_domain_size=3))
    if want is None:
        assert (out.kind, out.exhausted_size) == (ModelKind.ExhaustedUpTo, 3)
    else:
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, want)
        assert verify_model(out.model, formulas)


class TestModelText:
    def test_stable_rendering(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p(a) & ~q(b))."),
            EngineLimits(timeout=10, max_domain_size=3),
        )
        text = model_to_text(out.model)
        assert text.splitlines()[0].startswith("domain size:")
        assert model_to_text(out.model) == text


class TestAgreementWithSaturation:
    def test_refute_satisfiable_implies_model_found(self):
        """Where saturation genuinely closes as Satisfiable on the curated
        corpus, the model finder must find the (known finite) model rather
        than exhaust."""
        from proofscope.prover import refute
        from proofscope.verdicts import SzsStatus
        from corpus import ORACLE_THEORIES

        checked = 0
        for name, text in ORACLE_THEORIES:
            theory = mk(text).without_conjecture()
            outcome = refute(theory, EngineLimits(timeout=10))
            if outcome.status != SzsStatus.Satisfiable:
                continue
            formulas = [(f.name, f.formula) for f in theory.premises]
            found = find_model(formulas, EngineLimits(timeout=20, max_domain_size=3))
            assert found.kind == ModelKind.ModelFound, name
            checked += 1
        assert checked >= 15  # the corpus is mostly satisfiable axiom sets
