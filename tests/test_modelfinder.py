"""Finite model finder tests: soundness, least sizes, exhaustion, limits."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import assume, given, strategies as st

from proofscope import modelfinder
from proofscope.analysis import QuerySession, consistency_triple
from proofscope.clauses import clause_signature, clausify, contains_equality
from proofscope.engines import BuiltinModelFinder, EngineLimits
from proofscope.logic import Not, evaluate
from proofscope.modelfinder import (
    ModelKind,
    find_model,
    model_to_text,
    verify_model,
)
from proofscope.logic import Atom, Interpretation, Not, Quantified
from proofscope.tptp import parse_file

from conftest import PUZ001, enumerate_interpretations, mk, random_closed_formula


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

PIGEONHOLE_5_4 = """
fof(distinct, axiom, p1 != p2 & p1 != p3 & p1 != p4 & p1 != p5
    & p2 != p3 & p2 != p4 & p2 != p5 & p3 != p4 & p3 != p5 & p4 != p5).
fof(pigeons, axiom, pigeon(p1) & pigeon(p2) & pigeon(p3)
    & pigeon(p4) & pigeon(p5)).
fof(holes, axiom, ![X]: (hole(X) <=> (X = h1 | X = h2 | X = h3 | X = h4))).
fof(placed, axiom, ![X]: (pigeon(X) => ?[H]: (hole(H) & in(X,H)))).
fof(no_share, axiom, ![X,Y,H]: ((in(X,H) & in(Y,H)) => X = Y)).
"""


def power(k):
    """a multiplied by itself k times, as mult(a,mult(a,...))."""
    return "a" if k == 1 else f"mult(a,{power(k - 1)})"


def cyclic_order(k):
    """Group axioms and an element a of order exactly k: the least model is Z_k."""
    lines = [f"fof(order, axiom, {power(k)} = e)."]
    lines += [f"fof(order_{j}, axiom, {power(j)} != e)." for j in range(1, k)]
    return GROUP_AXIOMS + "\n".join(lines)


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


# A signature for random flat clauses: name -> arity.
FLAT_PREDS = {"p": 0, "q": 1, "r": 2}
FLAT_FUNCS = {"c": 0, "f": 1, "g": 2}


@st.composite
def flat_clauses(draw):
    nvars = draw(st.integers(1, 4))
    var = st.integers(0, nvars - 1)
    literals = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["pred", "func", "eq"]))
        if kind == "eq":
            literals.append(("eq", draw(var), draw(var)))
            continue
        table = FLAT_PREDS if kind == "pred" else FLAT_FUNCS
        name = draw(st.sampled_from(sorted(table)))
        args = tuple(draw(var) for _ in range(table[name]))
        if kind == "pred":
            literals.append(("pred", name, args, draw(st.booleans())))
        else:
            literals.append(("func", name, args, draw(var), draw(st.booleans())))
    return modelfinder.FlatClause(nvars, tuple(literals))


@given(flat=flat_clauses(), n=st.integers(1, 4))
def test_compiled_literals_agree_with_the_layout(flat, n):
    """At every assignment, a compiled pred or func literal is the signed
    pred_var or func_var of its instance, and a compiled equation is zero
    exactly where its two variables are equal."""
    layout = modelfinder._VarLayout(FLAT_PREDS, FLAT_FUNCS, n)
    literals, equations = modelfinder._compile(flat, layout)
    assignments = list(itertools.product(range(n), repeat=flat.nvars))
    want_literals, want_equations = [], []
    for lit in flat.literals:
        if lit[0] == "eq":
            want_equations.append([a[lit[1]] == a[lit[2]] for a in assignments])
            continue
        if lit[0] == "pred":
            cells = [layout.pred_var(lit[1], tuple(a[i] for i in lit[2])) for a in assignments]
        else:
            cells = [
                layout.func_var(lit[1], tuple(a[i] for i in lit[2]), a[lit[3]])
                for a in assignments
            ]
        want_literals.append([v if lit[-1] else -v for v in cells])
    assert [list(modelfinder._values(f, n)) for f in literals] == want_literals
    assert [
        [v == 0 for v in modelfinder._values(f, n)] for f in equations
    ] == want_equations


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


def record_ground_sizes(monkeypatch):
    """A dict that fills with the CNF size _ground returns per domain size."""
    ground_sizes = {}
    ground = modelfinder._ground

    def counting_ground(flats, layout, *rest):
        out = ground(flats, layout, *rest)
        ground_sizes[layout.n] = len(out[0])
        return out

    monkeypatch.setattr(modelfinder, "_ground", counting_ground)
    return ground_sizes


NON_ABELIAN = GROUP_AXIOMS + "fof(nc, axiom, ~ ![X,Y]: mult(X,Y) = mult(Y,X))."


class TestTextbookFamilies:
    def test_least_non_abelian_group_has_six_elements(self, monkeypatch):
        ground_sizes = record_ground_sizes(monkeypatch)
        formulas = formulas_of(NON_ABELIAN)
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=6))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 6)
        assert verify_model(out.model, [f for _, f in formulas])
        assert ground_sizes[6] < 60_000  # 235,477 with a variable per side

    def test_five_pigeons_do_not_fit_four_holes(self):
        formulas = formulas_of(PIGEONHOLE_5_4)
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=5))
        assert (out.kind, out.exhausted_size) == (ModelKind.ExhaustedUpTo, 5)

    def test_element_of_order_four_needs_four_elements(self):
        formulas = formulas_of(cyclic_order(4))
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=5))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 4)
        assert verify_model(out.model, [f for _, f in formulas])


GROUP_COMMUTATIVITY = GROUP_AXIOMS + (
    "fof(commutative, conjecture, ![X,Y]: mult(X,Y) = mult(Y,X))."
)

# Per problem: the largest domain searched, the domain sizes its consistency
# queries ground in order, and the sha256 of the reprs of every _ground output
# and of every _dpll result, one per line.
STAGE_PINS = {
    "cyclic_order_2": (
        5, [1, 2],
        "f8556080c78e4d7782847e09dd5965a68b31d8168b3873c12b1025daecfec081",
        "682b8ea9f7175c89cb328693af1869773b36e88f36aa25c812ea20883a438782",
    ),
    "cyclic_order_3": (
        5, [1, 2, 3],
        "70d569293ecf2a8e3af44f65bee342b60e9adac7f6fd46df08359fb90ff74b6d",
        "4b193ad93998150cce93b58de14af631d9cc17398d16e04bbbd8221d5acaaa07",
    ),
    "cyclic_order_4": (
        5, [1, 2, 3, 4],
        "b58139e5ef561367458d629090b49a90c49bc732171e26a10100dfb3bef380a0",
        "1999a774b2d20448d7a2fd66be3f87ede0db7f58340da795ebb9ed1106e374bd",
    ),
    "cyclic_order_5": (
        5, [1, 2, 3, 4, 5],
        "019ad072f9ce506f52d4ecc18e90a673f71dc3799ebae4a8ee1cf23c7d60039a",
        "640e05679e06493dffa14bafe4f5c7c3b7cbe3fe6752d6a0f64806f1c3565fea",
    ),
    "group_commutativity": (
        6, [1, 1, 1, 2, 3, 4, 5, 6],
        "ec5890e484046ec8616216c34a0ecf12704d4f64c5915c1072bd94064b12495d",
        "d7bf377d7b1a8bc2c7f891e2e457de3e92916a320cce8942a0c8cd7f7371b790",
    ),
    "pigeonhole_5_4": (
        5, [1, 2, 3, 4, 5],
        "f79dfd3dde025d05e95f4b4b67996eece0e79a5fc3e169fd1d442e548239fa22",
        "9bc2b72de5acdefc8b4b8bc59c0c79826cb5e6ed2eb35451134e395746b482e6",
    ),
    "puz001": (
        4, [1, 2, 3, 1, 2, 3, 1, 2, 3, 4],
        "abe913c6fe96d973dfe4870b6a0feafef9171a1af44ca6ef94635df9be5c9638",
        "401cd3a8f6aa472e6ad77b934d8ce4dbf1beb3a4774ac0cd37a49337c5788e01",
    ),
}


def pinned_theory(name):
    if name == "group_commutativity":
        return mk(GROUP_COMMUTATIVITY)
    if name == "pigeonhole_5_4":
        return mk(PIGEONHOLE_5_4)
    if name == "puz001":
        return parse_file(str(PUZ001))
    return mk(cyclic_order(int(name.rsplit("_", 1)[1])))


@pytest.mark.parametrize("name", sorted(STAGE_PINS))
def test_grounding_and_solving_are_pinned(name, monkeypatch):
    """The CNF of every size tried and the DPLL answer on it, for the
    textbook families and PUZ001's three consistency queries."""
    max_size, want_sizes, want_cnf, want_dpll = STAGE_PINS[name]
    sizes, cnfs, answers = [], [], []
    ground, dpll = modelfinder._ground, modelfinder._dpll

    def ground_spy(flats, layout, *rest):
        out = ground(flats, layout, *rest)
        sizes.append(layout.n)
        cnfs.append(repr(out))
        return out

    def dpll_spy(*args):
        out = dpll(*args)
        answers.append(repr(out))
        return out

    monkeypatch.setattr(modelfinder, "_ground", ground_spy)
    monkeypatch.setattr(modelfinder, "_dpll", dpll_spy)
    limits = EngineLimits(timeout=120, max_domain_size=max_size)
    session = QuerySession(pinned_theory(name), counters=[BuiltinModelFinder()], limits=limits)
    consistency_triple(session)

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert (sizes, digest(cnfs), digest(answers)) == (want_sizes, want_cnf, want_dpll)


class TestGroundingLimits:
    """Grounding keeps to the call's clause cap and deadline; the solver
    keeps to the deadline."""

    def test_a_size_over_the_clause_cap_is_a_resource_out(self, monkeypatch):
        """Up to the cap the search is unchanged; one clause less and the
        size-6 CNF is over it, which is ResourceOut, never ExhaustedUpTo."""
        ground_sizes = record_ground_sizes(monkeypatch)
        formulas = formulas_of(NON_ABELIAN)
        find_model(formulas, EngineLimits(timeout=60, max_domain_size=6))
        largest = ground_sizes[6]
        assert largest == max(ground_sizes.values())
        at_cap = find_model(
            formulas, EngineLimits(timeout=60, max_domain_size=6, max_clause_count=largest)
        )
        assert (at_cap.kind, at_cap.model.domain_size) == (ModelKind.ModelFound, 6)
        for cap in (largest - 1, 5_000, 100):
            limits = EngineLimits(timeout=60, max_domain_size=6, max_clause_count=cap)
            assert find_model(formulas, limits).kind == ModelKind.ResourceOut, cap

    def test_capped_exhaustion_is_a_resource_out(self):
        """Pigeonhole 5/4 has no model at any size; with sizes cut off by the
        cap the search cannot claim to have exhausted them."""
        formulas = formulas_of(PIGEONHOLE_5_4)
        limits = EngineLimits(timeout=60, max_domain_size=5, max_clause_count=100)
        assert len(clausify(formulas)) <= 100
        assert find_model(formulas, limits).kind == ModelKind.ResourceOut

    def test_grounding_stops_at_the_deadline(self):
        """Associativity at size 10 has 10**6 instances, seconds of work;
        grounding stops within the instances after a 50 ms deadline."""
        flat = flat_clause("![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))")
        layout = modelfinder._VarLayout({}, {"mult": 2}, 10)
        start = time.monotonic()
        cnf, trivially_unsat, resource_out = modelfinder._ground(
            [flat], layout, [], start + 0.05, 10**9
        )
        assert resource_out and not trivially_unsat
        assert len(cnf) < 10**6
        assert time.monotonic() - start < 1

    def test_solving_stops_at_the_deadline(self):
        """Refuting pigeonhole 5/4 at size 5 takes thousands of propagations;
        past the deadline the solver stops at its next clock check."""
        formulas = formulas_of(PIGEONHOLE_5_4)
        clauses = clausify(formulas)
        preds, funcs = clause_signature(clauses)
        constants = [sym for sym, arity in funcs.items() if arity == 0]
        layout = modelfinder._VarLayout(preds, funcs, 5)
        flats = [modelfinder._flatten(literals) for literals, _ in clauses]
        cnf, _, _ = modelfinder._ground(flats, layout, constants, time.monotonic() + 60, 10**9)
        assert modelfinder._dpll(cnf, layout.count, time.monotonic() + 60) is None
        start = time.monotonic()
        assert modelfinder._dpll(cnf, layout.count, start) == modelfinder._TIMEOUT
        assert time.monotonic() - start < 0.5


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
