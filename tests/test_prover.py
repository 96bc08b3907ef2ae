"""Saturation prover tests: verdicts, used premises, determinism, limits,
pinned searches, the term kernels and the one-pass clause insertion against
the code they replaced, and the forward-subsumption filter."""

import hashlib
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from proofscope import prover
from proofscope.clauses import clausify, contains_equality
from proofscope.engines import EngineLimits
from proofscope.modelfinder import ModelKind, find_model
from proofscope.logic import Atom, Binary, Not, Quantified
from proofscope.prover import (
    SearchStats,
    _apply,
    _features,
    _literals_by_key,
    _rests,
    _subsumes_into,
    _unify,
    normalize,
    prove,
    refute,
)
from proofscope.tptp import AnnotatedFormula, Theory, parse_file
from proofscope.verdicts import SzsStatus

from conftest import (
    PROBLEM_DIR,
    mk,
    prop_entails,
    prop_satisfiable,
    random_closed_formula,
    random_literals,
    random_open_term,
)
from corpus import ORACLE_THEORIES, UNSAT_CLAUSE_SETS

LIMITS = EngineLimits(timeout=20)


class TestProve:
    def test_hilbert_example_skips_unused_premise(self):
        """A derivation of b from {c, a, a=>b} never needs c."""
        t = mk(
            "fof(c_ax, axiom, c). fof(a_ax, axiom, a). fof(ab, axiom, a => b). "
            "fof(goal, conjecture, b)."
        )
        out = prove(t, LIMITS)
        assert out.status == SzsStatus.Theorem
        assert out.used_premises <= {"a_ax", "ab"}
        assert "c_ax" not in out.used_premises

    def test_tautology_uses_nothing(self):
        t = mk("fof(goal, conjecture, p | ~p).")
        out = prove(t, LIMITS)
        assert out.status == SzsStatus.Theorem
        assert out.used_premises == frozenset()

    def test_countersatisfiable_closure(self, model_finder, limits):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        out = prove(t, LIMITS)
        assert out.status == SzsStatus.CounterSatisfiable
        # the model finder agrees: axioms plus negated conjecture have a model
        formulas = [(f.name, f.formula) for f in t.premises]
        formulas.append(("$neg", Not(t.conjecture.formula)))
        out = find_model(formulas, EngineLimits(timeout=10, max_domain_size=2))
        assert out.kind == ModelKind.ModelFound

    def test_requires_conjecture(self):
        with pytest.raises(ValueError):
            prove(mk("fof(a1, axiom, p)."), LIMITS)

    def test_symbol_at_two_arities_is_an_input_error(self):
        """p/1 and p/2, which only the library API lets through.  Without
        the check, the matcher, which zips arguments without comparing their
        counts, lets p(X) "subsume" p(a,b) | q, and the prover answers
        CounterSatisfiable although q follows from the last two axioms."""
        ab = (("a", ()), ("b", ()))
        premises = (
            AnnotatedFormula("a1", "axiom", Quantified("!", ("X",), Atom("p", ("X",)))),
            AnnotatedFormula("a2", "axiom", Binary("|", Atom("p", ab), Atom("q"))),
            AnnotatedFormula("a3", "axiom", Not(Atom("p", ab))),
        )
        goal = AnnotatedFormula("goal", "conjecture", Atom("q"))
        clash = r"symbol p used with arity 1 and arity 2"
        with pytest.raises(ValueError, match=clash):
            prove(Theory(premises + (goal,)), LIMITS)
        with pytest.raises(ValueError, match=clash):
            refute(Theory(premises), LIMITS)
        query = [(f.name, f.formula) for f in premises] + [("$neg", Not(goal.formula))]
        with pytest.raises(ValueError, match=clash):
            find_model(query, EngineLimits(timeout=10, max_domain_size=2))

    def test_used_premises_subset_of_inputs(self, puz001):
        out = prove(puz001, EngineLimits(timeout=60))
        assert out.status == SzsStatus.Theorem
        assert out.used_premises <= set(puz001.premise_names)

    def test_soundness_spot_check_reprove_used(self, puz001):
        """Restricting to the used premises must still prove the conjecture."""
        out = prove(puz001, EngineLimits(timeout=60))
        sub = puz001.restrict(out.used_premises)
        again = prove(sub, EngineLimits(timeout=60))
        assert again.status == SzsStatus.Theorem

    def test_inconsistent_axioms_prove_any_conjecture(self):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, ~p). fof(goal, conjecture, q).")
        out = prove(t, LIMITS)
        assert out.status == SzsStatus.Theorem
        assert out.used_premises == {"a1", "a2"}

    def test_equality_reasoning_via_congruence(self):
        t = mk(
            "fof(a1, axiom, a = b). fof(a2, axiom, b = c). "
            "fof(goal, conjecture, a = c)."
        )
        out = prove(t, LIMITS)
        assert out.status == SzsStatus.Theorem
        assert out.used_premises == {"a1", "a2"}

    def test_equality_substitution(self):
        t = mk("fof(a1, axiom, a = b). fof(a2, axiom, p(a)). fof(goal, conjecture, p(b)).")
        out = prove(t, LIMITS)
        assert out.status == SzsStatus.Theorem
        assert out.used_premises == {"a1", "a2"}

    def test_determinism(self):
        t = mk(
            "fof(a1, axiom, p | q). fof(a2, axiom, ~p | r). fof(a3, axiom, ~q | r). "
            "fof(goal, conjecture, r)."
        )
        first = prove(t, LIMITS)
        second = prove(t, LIMITS)
        assert first.status == second.status
        assert first.used_premises == second.used_premises
        assert (first.stats.generated, first.stats.kept) == (
            second.stats.generated,
            second.stats.kept,
        )

    def test_resource_out_on_clause_budget(self):
        # Unprovable with a growing search space: force the clause cap.
        t = mk(
            "fof(a1, axiom, ! [X] : (p(X) => p(f(X)))). fof(a2, axiom, p(a)). "
            "fof(goal, conjecture, q)."
        )
        out = prove(t, EngineLimits(timeout=20, max_clause_count=30))
        assert out.status == SzsStatus.ResourceOut

    def test_input_clauses_past_the_cap_stop_at_once(self):
        """The clause form fits the cap of 3, and the congruence axioms
        added after it do not: the search stops at the first kept clause
        past the cap, before inserting the other input clauses."""
        t = mk("fof(a1, axiom, a = b). fof(goal, conjecture, p(a) | ~p(b)).")
        out = prove(t, EngineLimits(timeout=20, max_clause_count=3))
        assert out.status == SzsStatus.ResourceOut
        assert out.stats == SearchStats(4, 4, 0, 0)

    def test_resource_out_on_terms_too_deep_for_the_stack(self):
        """The same search builds p(f(...f(a)...)) ever deeper; a term too
        deep for the interpreter's stack ends it as the budget does."""
        t = mk(
            "fof(a1, axiom, ! [X] : (p(X) => p(f(X)))). fof(a2, axiom, p(a)). "
            "fof(goal, conjecture, q)."
        )
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 200)
        try:
            out = prove(t, EngineLimits(timeout=20))
        finally:
            sys.setrecursionlimit(limit)
        assert out.status == SzsStatus.ResourceOut


class TestRefute:
    def test_direct_contradiction(self):
        out = refute(mk("fof(a1, axiom, p). fof(a2, axiom, ~p)."), LIMITS)
        assert out.status == SzsStatus.Unsatisfiable
        assert out.used_premises == {"a1", "a2"}

    def test_satisfiable_closure(self):
        out = refute(mk("fof(a1, axiom, p)."), LIMITS)
        assert out.status == SzsStatus.Satisfiable

    def test_all_three_premises_used(self):
        t = mk("fof(a1, axiom, p | q). fof(a2, axiom, ~p). fof(a3, axiom, ~q).")
        # truth-table oracle: dropping any premise leaves a satisfiable set,
        # so every refutation must cite all three
        formulas = {f.name: f.formula for f in t.premises}
        for name in formulas:
            rest = [f for n, f in formulas.items() if n != name]
            assert prop_satisfiable(rest)
        assert not prop_satisfiable(list(formulas.values()))
        out = refute(t, LIMITS)
        assert out.status == SzsStatus.Unsatisfiable
        assert out.used_premises == {"a1", "a2", "a3"}

    def test_rejects_conjecture(self, puz001):
        with pytest.raises(ValueError):
            refute(puz001, LIMITS)

    def test_cnf_input_refutation(self):
        t = mk(
            "cnf(c1, axiom, (p(X) | q(X))). cnf(c2, axiom, (~p(a))). "
            "cnf(c3, negated_conjecture, (~q(a)))."
        )
        out = refute(t, LIMITS)
        assert out.status == SzsStatus.Unsatisfiable
        assert out.used_premises == {"c1", "c2", "c3"}


class TestAgainstTruthTables:
    """Prover verdicts agree with the propositional truth-table oracle."""

    CASES = [
        ("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(goal, conjecture, q).", True),
        ("fof(a1, axiom, p). fof(goal, conjecture, q).", False),
        ("fof(a1, axiom, p | q). fof(goal, conjecture, p).", False),
        ("fof(a1, axiom, p & q). fof(goal, conjecture, p).", True),
        ("fof(a1, axiom, p <=> q). fof(a2, axiom, ~q). fof(goal, conjecture, ~p).", True),
        ("fof(a1, axiom, p ~& p). fof(goal, conjecture, ~p).", True),
        ("fof(goal, conjecture, (p => q) | (q => p)).", True),
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_agreement(self, text, expected):
        t = mk(text)
        oracle = prop_entails(
            [f.formula for f in t.premises], t.conjecture.formula
        )
        assert oracle == expected
        out = prove(t, LIMITS)
        got = out.status == SzsStatus.Theorem
        assert got == expected
        if not expected:
            assert out.status == SzsStatus.CounterSatisfiable


# ---------------------------------------------------------------------------
# The search itself, pinned: subsumption indexing and other speed-ups must
# not change a single decision.  Each row is (theory, status, used premises,
# generated, kept, given, subsumption tests).  Generated and kept were
# generated with the first-literal bucket scan that the feature-vector index
# replaced; given and subsumption tests with the index over Literal and App
# objects, before the prover switched to plain tuples.  When forward
# subsumption moved from insertion to selection, kept came to count the
# clauses that enter the passive set, and only PUZ001's kept (2403 before)
# and subsumption tests (10,987 before) changed.  When a head-symbol filter
# over the processed clauses replaced the index, only PUZ001's subsumption
# tests changed (180 before).  When normalization and duplicate deletion
# moved from insertion to selection, kept came to count the duplicates held
# too, and only the kept of shortcut_implication (9 before), duplicate_axiom
# (3), full_square (8) and PUZ001 (4353) changed.  The last column pins the
# search itself, not only its counts: the first 16 hex digits of
# _processed_digest, recorded with the walk-based term kernels, before
# _unify and _apply followed bindings inline.  The two PUZ001+1 query rows,
# the other prover queries that analyses of PUZ001+1 make, were recorded
# while resolvents were still instantiated, deduplicated, checked for
# tautology and shared in separate passes.

_PUZ001_USED = (
    "pel55_1", "pel55_10", "pel55_11", "pel55_3", "pel55_4",
    "pel55_5", "pel55_6", "pel55_7", "pel55_8", "pel55_9",
)

SEARCH_PINS = [
    ("chain_with_distractor", "Theorem", ("a1", "a2"), 7, 6, 5, 0, "72360f5bc79e3d2c"),
    ("two_routes", "Theorem", ("a1", "a2"), 8, 7, 5, 0, "881f6a4457ae62f0"),
    ("disjunctive_goal", "Theorem", ("a1",), 5, 4, 3, 0, "d7ee535b9cde7e02"),
    ("conjunctive_goal", "Theorem", ("a1", "a2"), 7, 6, 5, 0, "d58de78d4981148a"),
    ("shortcut_implication", "Theorem", ("a1", "a2", "a3"), 11, 10, 6, 0, "e954066bb7e48ead"),
    ("tautology_goal", "Theorem", (), 5, 4, 4, 0, "79e946bd840c966b"),
    ("duplicate_axiom", "Theorem", ("a1",), 5, 4, 3, 0, "b2dc2cc79bc09913"),
    ("inconsistent_premises", "Theorem", ("a1", "a2"), 5, 4, 2, 0, "f64b34f71bb8648e"),
    ("biconditional", "Theorem", ("a1", "a2"), 8, 7, 5, 0, "b12e2165502f01c6"),
    ("exclusive_or", "Theorem", ("a1", "a2"), 10, 7, 5, 1, "68f073fa82240084"),
    ("nand_connective", "Theorem", ("a1", "a2"), 7, 6, 5, 0, "161eaecdb7587508"),
    ("nor_connective", "Theorem", ("a1",), 5, 4, 4, 0, "79fbe130e36cfc54"),
    ("single_relevant_fact", "Theorem", ("a3",), 7, 6, 6, 0, "e8ddd52d5c240e47"),
    ("long_chain", "Theorem", ("a1", "a2", "a3", "a4", "a5"), 16, 15, 11, 0, "cd76415cc192aab7"),
    ("conjunction_trigger", "Theorem", ("a1", "a2", "a3"), 10, 9, 6, 0, "a649dc8dbdb4ab07"),
    ("case_split", "Theorem", ("a1", "a2", "a3"), 12, 11, 7, 0, "d694415f22b75c19"),
    ("modus_tollens", "Theorem", ("a1", "a2"), 7, 6, 5, 0, "a770abc7bac274b1"),
    ("implied_by", "Theorem", ("a1", "a2"), 6, 5, 4, 0, "f82b019fea6121ba"),
    ("universal_instantiation", "Theorem", ("a1", "a2"), 8, 7, 5, 0, "ab73f315b149af07"),
    ("existential_witnesses", "Theorem", ("a1",), 5, 4, 4, 0, "4bf4ada9b83a9f99"),
    ("forall_to_exists", "Theorem", ("a1",), 4, 3, 3, 0, "ab2f12672571f915"),
    ("stratified_rules", "Theorem", ("a1", "a2", "a3"), 10, 9, 6, 0, "892acc6b4db37d1f"),
    ("monadic_cover", "Theorem", ("a1", "a2"), 7, 6, 5, 0, "ac1f65640fe36e30"),
    ("negative_literal_premise", "Theorem", ("a1", "a2"), 7, 6, 5, 0, "927ebd412124ede7"),
    ("direct_contradiction", "Unsatisfiable", ("a1", "a2"), 3, 2, 2, 0, "f64b34f71bb8648e"),
    ("covered_disjunction", "Unsatisfiable", ("a1", "a2", "a3"), 6, 5, 4, 0, "bf3d05b4c765b3af"),
    ("contradiction_plus_noise", "Unsatisfiable", ("a1", "a2"), 4, 3, 2, 0, "f64b34f71bb8648e"),
    ("broken_implication", "Unsatisfiable", ("a1", "a2", "a3"), 7, 6, 5, 0, "07fde2c87a20a2b7"),
    ("full_square", "Unsatisfiable", ("a1", "a2", "a3", "a4"), 19, 14, 7, 0, "f350e1dc5ca8bd04"),
    ("three_way", "Unsatisfiable", ("a1", "a2", "a3"), 6, 5, 4, 0, "4ad255675d9ebfda"),
    (
        "PUZ001+1",
        "Theorem",
        _PUZ001_USED,
        6036,
        5693,
        187,
        309,
        "1ef387acced8ef26",
    ),
    (
        "PUZ001+1 from its used premises",
        "Theorem",
        _PUZ001_USED,
        7408,
        7108,
        221,
        325,
        "865f4a3cb382eb09",
    ),
    (
        "pel55_2_1 from the other PUZ001+1 axioms",
        "Theorem",
        _PUZ001_USED,
        6342,
        6010,
        191,
        286,
        "c39f18619429a737",
    ),
    ("dependent_axioms", "Satisfiable", (), 3, 3, 2, 1, "995aafd2fd72a9e6"),
    ("two_minima", "Theorem", ("route_a", "route_a_works"), 8, 7, 5, 0, "79ac399a04feea56"),
]

_THEORY_TEXTS = dict(ORACLE_THEORIES + UNSAT_CLAUSE_SETS)


# The PUZ001+1 prover queries that analyses make besides the full proof:
# `reprove --method syntactic` stage 2, and `independence --method naive` on
# pel55_2_1, built from PUZ001+1 as `QuerySession.query_theory` builds them.
_PUZ001_QUERIES = {
    "PUZ001+1 from its used premises": lambda puz: puz.restrict(_PUZ001_USED),
    "pel55_2_1 from the other PUZ001+1 axioms": lambda puz: puz.restrict(
        frozenset(puz.premise_names) - {"pel55_2_1"}
    ).with_conjecture(puz["pel55_2_1"]),
}


def _pinned_theory(name: str) -> Theory:
    if name in _THEORY_TEXTS:
        return mk(_THEORY_TEXTS[name])
    if name in _PUZ001_QUERIES:
        return _PUZ001_QUERIES[name](parse_file(str(PROBLEM_DIR / "PUZ001+1.p")))
    return parse_file(str(PROBLEM_DIR / f"{name}.p"))


def test_search_pins_cover_the_corpus_and_bundled_problems():
    bundled = {p.stem for p in PROBLEM_DIR.glob("*.p")}
    expected = set(_THEORY_TEXTS) | bundled | set(_PUZ001_QUERIES)
    assert {row[0] for row in SEARCH_PINS} == expected


def _processed_digest(sat) -> str:
    """sha1 over the repr of each processed clause's literals, as renamed
    apart, with its sorted origins, in processing order."""
    clauses = [(literals, sorted(origins)) for literals, origins, *_ in sat.processed]
    return hashlib.sha1(repr(clauses).encode()).hexdigest()


@pytest.mark.parametrize(
    "name,status,used,generated,kept,given,tests,digest",
    SEARCH_PINS,
    ids=[r[0] for r in SEARCH_PINS],
)
def test_search_is_pinned(name, status, used, generated, kept, given, tests, digest):
    out, sat = _saturate(_pinned_theory(name), EngineLimits(timeout=60), prover._Saturation)
    assert out.status.value == status
    assert out.used_premises == frozenset(used)
    assert out.stats == SearchStats(generated, kept, given, tests)
    assert _processed_digest(sat)[:16] == digest


# ---------------------------------------------------------------------------
# Normalization, duplicate deletion and forward subsumption checked at
# selection give the search that checking at insertion gave: the same given
# clauses, in the same order.


class _EagerSaturation(prover._Saturation):
    """Normalizes a generated clause when it is inserted, and rejects it
    there if it repeats an earlier insertion or a processed clause subsumes
    it, as the search did before these checks moved to selection.  It builds
    the clause with the reference kernels and hands its normal form on."""

    def __init__(self, initial, limits):
        super().__init__(initial, limits)
        self.inserted = set()

    def _insert(self, first, second, subst, origins):
        literals = [_ref_apply_literal(entry[0], subst) for entry in first + second]
        literals = normalize(literals)
        if literals and not _ref_is_tautology(literals):
            features = _features(literals, self.shared_features)
            if literals in self.inserted or self._subsumed(
                literals, features, 0, len(self.processed)
            ):
                self.generated += 1
                return
            self.inserted.add(literals)
        super()._insert(self._entries(literals), (), {}, origins)


def _saturate(t, limits, saturation):
    """The outcome of searching t with this saturation class, and the
    saturation (None if clausifying ran out)."""
    runs = []

    class Recorded(saturation):
        def run(self):
            runs.append(self)
            super().run()

    with pytest.MonkeyPatch.context() as m:
        m.setattr(prover, "_Saturation", Recorded)
        out = (prove if t.conjecture is not None else refute)(t, limits)
    return out, runs[0] if runs else None


def _without_codes(processed):
    """The processed clauses with the code left out of every literal entry
    they hold: codes number the literal table in the order it was filled,
    which differs between the two checks."""
    return [
        (literals, origins, features, [[e[:2] + e[3:] for e in rest] for rest in rests])
        for literals, origins, features, rests in processed
    ]


def _same_search(t, limits):
    """Assert that both checks give the same search, unless a budget ended
    either (the clause cap counts more clauses at selection).  Returns the
    eager outcome, or None if nothing was compared."""
    eager, eager_sat = _saturate(t, limits, _EagerSaturation)
    lazy, lazy_sat = _saturate(t, limits, prover._Saturation)
    if SzsStatus.ResourceOut in (eager.status, lazy.status):
        return None
    assert lazy.status == eager.status
    assert lazy.used_premises == eager.used_premises
    assert lazy.stats.generated == eager.stats.generated
    assert lazy.stats.given == eager.stats.given
    assert _without_codes(lazy_sat.processed) == _without_codes(eager_sat.processed)
    return eager


# The kept column as it read when duplicates and subsumed clauses were
# rejected at insertion, where it differs from SEARCH_PINS.
_KEPT_AT_INSERTION = {
    "shortcut_implication": 9,
    "duplicate_axiom": 3,
    "full_square": 8,
    "PUZ001+1": 2403,
    "PUZ001+1 from its used premises": 3180,
    "pel55_2_1 from the other PUZ001+1 axioms": 2476,
}


@pytest.mark.parametrize(
    "name,kept", [(r[0], r[4]) for r in SEARCH_PINS], ids=[r[0] for r in SEARCH_PINS]
)
def test_selection_check_gives_the_insertion_check_search(name, kept):
    eager = _same_search(_pinned_theory(name), EngineLimits(timeout=60))
    assert eager is not None
    assert eager.stats.kept == _KEPT_AT_INSERTION.get(name, kept)


@given(seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3))
def test_selection_check_gives_the_insertion_check_search_with_equality(seeds):
    formulas = [random_closed_formula(random.Random(s), 1) for s in seeds]
    premises = tuple(AnnotatedFormula(f"a{i}", "axiom", f) for i, f in enumerate(formulas[:-1]))
    goal = AnnotatedFormula("goal", "conjecture", formulas[-1])
    query = [(p.name, p.formula) for p in premises] + [("$neg", Not(goal.formula))]
    assume(contains_equality(clausify(query)))
    _same_search(Theory(premises + (goal,)), EngineLimits(timeout=10, max_clause_count=300))


def test_held_clauses_share_literals_and_origin_sets(puz001):
    """Passive clauses stay held until selected, so the clauses held use one
    object per distinct origin set and per distinct literal; the processed
    clauses' feature sets use one per distinct feature."""
    _, sat = _saturate(puz001, EngineLimits(timeout=60), prover._Saturation)
    held = [clause for clause in sat.slots if clause is not None]
    origins = [o for _, o, _ in held]
    literals = [lit for lits, _, _ in held for lit in lits]
    features = [f for _, _, fs, _ in sat.processed for f in fs]
    assert len(set(origins)) < len(origins)
    assert len(set(map(id, origins))) == len(set(origins))
    assert len(set(map(id, literals))) == len(set(literals))
    assert len(set(features)) < len(features)
    assert len(set(map(id, features))) == len(set(features))


def test_puz001_subsumption_tests_stay_filtered(puz001):
    """The full PUZ001 proof runs the full matcher on few candidates.  The
    first-literal bucket scan that a feature-vector index replaced made
    131,421 matcher calls here; the index, checking at insertion, made
    10,987, and checking at selection 180.  The head-symbol filter that
    replaced the index makes 309.  Since duplicates are deleted at
    selection, kept counts them too (4353 before)."""
    out = prove(puz001, EngineLimits(timeout=60))
    assert (out.stats.generated, out.stats.kept, out.stats.given) == (6036, 5693, 187)
    assert out.stats.subsumption_tests <= 1_000


class _PickRecorder(prover._Saturation):
    """Records the pick count and the predicate of each given clause, and
    infers nothing, so the given clauses are the selection's alone."""

    def __init__(self, initial, limits):
        super().__init__(initial, limits)
        self.given = []

    def _infer(self, literals, origins, entries):
        self.given.append((self.picks, literals[0][1]))


def test_pick_rule():
    """Every PICK_GIVEN_RATIO-th pick takes the oldest held clause; a popped
    duplicate is dropped within its pick; a clause that a clause processed
    after its insertion subsumes uses up its pick."""
    a = ("a", ())

    def f(n):
        return a if n == 0 else ("f", (f(n - 1),))

    def unit(pred, arg):
        return ((True, pred, (arg,)),)

    # In insertion order, with weights 5, 2, 2, 2, 6, 2, 2, 4, 3, 4.
    clauses = [
        unit("s", f(3)),
        unit("p", "X"),
        unit("r", "X"),
        unit("r", "Y"),  # the normal form of r(X)
        unit("t", f(4)),
        unit("u", a),
        unit("v", a),
        unit("p", a) + unit("q", a),  # subsumed by p(X), processed after it was inserted
        unit("x", f(1)),
        unit("y", f(2)),
    ]
    sat = _PickRecorder(tuple((c, frozenset({"a1"})) for c in clauses), LIMITS)
    sat.run()
    assert prover.PICK_GIVEN_RATIO == 4
    # Pick 3 pops r(Y) and drops it, then gives u(a).  Picks 4 and 8 take the
    # oldest held clauses, s and t, though the lighter v and y are held.
    # Pick 7 pops p(a) | q(a) and gives nothing.  Pick 10 finds nothing held.
    assert sat.given == [
        (1, "p"), (2, "r"), (3, "u"), (4, "s"), (5, "v"), (6, "x"), (8, "t"), (9, "y")
    ]
    assert sat.picks == 10


# ---------------------------------------------------------------------------
# The term kernels follow bindings inline and run the occurs check only for
# a binding to a term with arguments.  The walk-based kernels they replaced
# are kept here as the reference: both bind exactly alike, so the search
# does not change.


def _ref_walk(t, subst):
    while isinstance(t, str):
        bound = subst.get(t)
        if bound is None:
            return t
        t = bound
    return t


def _ref_occurs(name, t, subst) -> bool:
    t = _ref_walk(t, subst)
    if isinstance(t, str):
        return t == name
    return any(_ref_occurs(name, a, subst) for a in t[1])


def _ref_unify(a, b, subst) -> bool:
    a = _ref_walk(a, subst)
    b = _ref_walk(b, subst)
    if isinstance(a, str):
        if a == b:
            return True
        if _ref_occurs(a, b, subst):
            return False
        subst[a] = b
        return True
    if isinstance(b, str):
        if _ref_occurs(b, a, subst):
            return False
        subst[b] = a
        return True
    if a[0] != b[0] or len(a[1]) != len(b[1]):
        return False
    return all(_ref_unify(x, y, subst) for x, y in zip(a[1], b[1]))


def _ref_apply(t, subst):
    t = _ref_walk(t, subst)
    if isinstance(t, str) or not t[1]:
        return t
    return (t[0], tuple(_ref_apply(a, subst) for a in t[1]))


def _ref_apply_literal(lit, subst):
    positive, pred, args = lit
    return (positive, pred, tuple(_ref_apply(a, subst) for a in args))


def _ref_is_tautology(literals) -> bool:
    positive = {(pred, args) for pos, pred, args in literals if pos}
    return any((pred, args) in positive for pos, pred, args in literals if not pos)


def _unify_like_the_reference(pairs):
    """Unify each pair in turn into one substitution with both kernels, and
    check that they agree at every step.  Returns the substitution, or None
    if some pair does not unify."""
    subst, ref = {}, {}
    for x, y in pairs:
        ok = _unify(x, y, subst)
        assert ok == _ref_unify(x, y, ref)
        assert subst == ref
        if not ok:
            return None
        assert _apply(x, subst) == _apply(y, subst) == _ref_apply(x, ref) == _ref_apply(y, ref)
    for x, y in pairs:
        assert _apply(x, subst) == _apply(y, subst)
    return subst


_A = ("a", ())
# Binds every variable that random_open_term uses by default.
_GROUNDING = {"X0": _A, "X1": _A, "X2": _A}
_Y = ("Y0", "Y1", "Y2")


def _f(t):
    return ("f", (t,))


@pytest.mark.parametrize(
    "pairs,unifiable",
    [
        ([("X0", _f("X0"))], False),
        ([(_f(_f("X0")), "X0")], False),
        ([("X0", "X1"), ("X1", _f("X0"))], False),  # occurs through a binding
        ([("X0", "X1"), ("X1", _A), ("X0", _A)], True),  # X0 -> X1 -> a
        ([("X0", "X1"), ("X1", _A), ("X0", ("b", ()))], False),
        ([("X0", "X1"), ("X1", "X0")], True),  # both walk to X1
        ([("X0", _f("X1")), ("X1", _A), ("X0", _f(_A))], True),
        ([("X0", "X1"), ("X1", "X2"), ("X2", _f("X0"))], False),
    ],
)
def test_unify_cases_that_need_the_occurs_check_or_a_binding_chain(pairs, unifiable):
    assert (_unify_like_the_reference(pairs) is not None) == unifiable


# ---------------------------------------------------------------------------
# _insert builds each generated clause, drops its repeated literals, checks it
# for tautology and shares its literals in one pass over integer literal
# codes.  The separate passes it replaced are kept here as the reference:
# instantiate every literal, drop repeats with dict.fromkeys, check for a
# complementary pair on a set, and share each literal through the table.


def _held(sat, first, second, subst):
    """The literals and weight of the clause that sat._insert holds for
    these entries under subst, or None if it holds none."""
    slot = len(sat.slots)
    sat._insert(first, second, subst, frozenset({"a1"}))
    if len(sat.slots) == slot:
        return None
    weight = next(w for w, s in sat.heap if s == slot)
    return sat.slots[slot][0], weight


def _ref_held(table, literals, subst):
    """What the separate passes held for literals under subst, sharing
    through table, or None for a tautology."""
    unique = dict.fromkeys(_ref_apply_literal(lit, subst) for lit in literals)
    if _ref_is_tautology(unique):
        return None
    return tuple(table[lit][0] for lit in unique), _term_sum_weight(unique)


def _assert_held_like_the_separate_passes(sat, first, second, literals, subst):
    """first and second are the entries of literals, in order."""
    if not literals:
        with pytest.raises(prover._Refuted):
            sat._insert(first, second, subst, frozenset({"a1"}))
        return
    got = _held(sat, first, second, subst)
    want = _ref_held(sat.shared_literals, literals, subst)
    assert got == want
    if got is not None:
        assert all(a is b for a, b in zip(got[0], want[0]))


@given(st.integers(0, 2**32))
def test_unify_and_instantiate_match_the_walk_based_kernels(n):
    rng = random.Random(n)
    pairs = [(random_open_term(rng), random_open_term(rng)) for _ in range(rng.randint(1, 4))]
    subst = _unify_like_the_reference(pairs)
    if subst is None:
        return
    literals = random_literals(rng, 4)
    sat = prover._Saturation((), LIMITS)
    entries = sat._entries(literals)
    for lit, entry in zip(literals, entries):
        assert entry[0] == lit
        assert _ref_apply_literal(lit, dict.fromkeys(entry[3], _A)) == _ref_apply_literal(
            lit, _GROUNDING
        )
    skip = rng.randrange(-1, len(literals))
    if skip >= 0:
        entries = _rests(entries)[skip]
        literals = literals[:skip] + literals[skip + 1 :]
    _assert_held_like_the_separate_passes(sat, entries, (), literals, subst)


@given(st.integers(0, 2**32))
def test_insert_holds_what_the_separate_passes_held(n):
    """Two clauses apart, as a resolvent's parents are.  The second holds a
    copy of a literal of the first, over other variables and perhaps
    negated, and the substitution unifies the two, so that the clause
    repeats that literal or holds its complement; sometimes it also unifies
    random terms of both sides."""
    rng = random.Random(n)
    first = random_literals(rng, 3)
    positive, pred, args = rng.choice(first)
    renaming = dict(zip(_GROUNDING, _Y))
    copy = (positive != (rng.random() < 0.5), pred, tuple(_ref_apply(a, renaming) for a in args))
    second = list(random_literals(rng, 3, _Y))
    second.insert(rng.randint(0, len(second)), copy)
    planted = list(zip(args, copy[2]))
    extra = [(random_open_term(rng), random_open_term(rng, _Y)) for _ in range(rng.randint(0, 2))]
    subst = _unify_like_the_reference(planted + extra) or _unify_like_the_reference(planted)
    assert subst is not None
    sat = prover._Saturation((), LIMITS)
    literals = first + tuple(second)
    _assert_held_like_the_separate_passes(
        sat, sat._entries(first), sat._entries(second), literals, subst
    )


@given(st.integers(0, 2**32))
def test_tautology_lookup_answers_like_the_set_based_check(n):
    rng = random.Random(n)
    literals = random_literals(rng, 4)
    planted = rng.sample(literals, rng.randint(0, 1))
    literals += tuple((not positive, pred, args) for positive, pred, args in planted)
    sat = prover._Saturation((), LIMITS)
    assert (_held(sat, sat._entries(literals), (), {}) is None) == _ref_is_tautology(literals)


def test_unit_resolvent_is_refuted_with_both_origin_sets():
    """p(a) and ~p(X) resolve to the empty clause, whose origins are the
    union of both parents' origin sets."""
    clauses = (
        (((True, "p", (_A,)),), frozenset({"a1"})),
        (((False, "p", ("X",)),), frozenset({"a2", "a3"})),
    )
    sat = prover._Saturation(clauses, LIMITS)
    with pytest.raises(prover._Refuted) as refuted:
        sat.run()
    assert refuted.value.origins == {"a1", "a2", "a3"}
    assert sat.generated == 3


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 3, 1), (3, 1, 2, 0)])
def test_a_complement_code_differs_in_the_lowest_bit(order):
    """Whichever of a complementary pair the table sees first, and whatever
    it sees between them, their codes differ only in the lowest bit, and no
    other literal's code is either."""
    p, not_p = (True, "p", ("X0",)), (False, "p", ("X0",))
    q, not_r = (True, "q", ()), (False, "r", (_A,))
    literals = [(p, not_p, q, not_r)[i] for i in order]
    sat = prover._Saturation((), LIMITS)
    codes = {lit: sat._entry(lit)[2] for lit in literals}
    assert codes[not_p] == codes[p] ^ 1
    assert len(set(codes.values())) == 4
    assert codes[q] ^ 1 not in codes.values()
    assert codes[not_r] ^ 1 not in codes.values()
    assert {lit: sat._entry(lit)[2] for lit in literals} == codes


def test_search_does_not_depend_on_the_hash_seed():
    """Literal codes follow the order the literal table was filled in, and
    origin sets are sets of strings: the full PUZ001+1 search gives the
    same SearchStats and processed clauses under two hash seeds as here."""
    out, sat = _saturate(_pinned_theory("PUZ001+1"), EngineLimits(timeout=60), prover._Saturation)
    expected = f"{out.stats} {_processed_digest(sat)}\n"
    script = (
        "from test_prover import EngineLimits, _pinned_theory, _processed_digest, _saturate, prover\n"
        "out, sat = _saturate(_pinned_theory('PUZ001+1'), EngineLimits(timeout=60), prover._Saturation)\n"
        "print(out.stats, _processed_digest(sat))\n"
    )
    src = str(Path(prover.__file__).resolve().parents[1])
    path = os.pathsep.join([src, str(Path(__file__).resolve().parent)])
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected


# ---------------------------------------------------------------------------
# Forward subsumption answers exactly what the full matcher answers under the
# literal-count condition: the feature filter only skips matches that must
# fail.


def _instance(rng, literals):
    """literals under a random substitution, plus some random literals."""
    subst = {v: random_open_term(rng, ("Y0", "Y1")) for v in ("X0", "X1", "X2")}
    image = tuple(_ref_apply_literal(l, subst) for l in literals)
    return normalize(image + random_literals(rng, 2, ("Y0", "Y1")))


def _brute_force(processed, literals, start, stop) -> bool:
    by_key = _literals_by_key(literals)
    return any(
        len(c) <= len(literals) and _subsumes_into(c, by_key) for c in processed[start:stop]
    )


def _saturation_with(processed):
    """A saturation whose processed clauses are these."""
    sat = prover._Saturation((), LIMITS)
    sat.processed = [(c, frozenset(), _features(c, {}), ()) for c in processed]
    return sat


def test_features_are_predicate_signs_and_argument_heads():
    c = ((True, "p", ("X0", ("f", ("X1",)))), (False, "q", (("a", ()),)))
    expected = {("p", True), ("p", True, 1, "f"), ("q", False), ("q", False, 0, "a")}
    assert _features(c, {}) == expected


@given(st.integers(0, 2**32))
def test_features_of_a_subsumer_are_a_subset(n):
    rng = random.Random(n)
    c = normalize(random_literals(rng))
    for d in (_instance(rng, c), normalize(random_literals(rng, 4))):
        if _subsumes_into(c, _literals_by_key(d)):
            assert _features(c, {}) <= _features(d, {})
        got = _saturation_with([c])._subsumed(d, _features(d, {}), 0, 1)
        assert got == _brute_force([c], d, 0, 1)


def test_subsumed_keeps_the_literal_count_condition():
    """p(X) | p(a) maps into p(a), but a longer clause never subsumes a
    shorter one here, which keeps factoring's work for the search."""
    c = normalize(((True, "p", ("X",)), (True, "p", (("a", ()),))))
    d = ((True, "p", (("a", ()),)),)
    assert _subsumes_into(c, _literals_by_key(d))
    assert not _saturation_with([c])._subsumed(d, _features(d, {}), 0, 1)


@given(st.integers(0, 2**32))
def test_subsumed_answers_like_a_scan_of_the_processed_clauses(n):
    rng = random.Random(n)
    processed = [normalize(random_literals(rng)) for _ in range(rng.randint(1, 6))]
    query = _instance(rng, rng.choice(processed))
    start, stop = sorted(rng.randint(0, len(processed)) for _ in range(2))
    sat = _saturation_with(processed)
    for span in ((0, len(processed)), (0, start), (start, stop), (stop, len(processed))):
        got = sat._subsumed(query, _features(query, {}), *span)
        assert got == _brute_force(processed, query, *span)


def test_input_clauses_are_pinned():
    """The clause form the search starts from: the clausified premises and
    negated conjecture, then the congruence axioms in their order."""
    t = mk(
        "fof(a1, axiom, ![X]: p(X, f(X))). fof(a2, axiom, f(c) = c). "
        "fof(goal, conjecture, p(c, c))."
    )
    named = [(p.name, p.formula) for p in t.premises]
    named.append(("$conjecture", Not(t.conjecture.formula)))
    c = ("c", ())
    eq = frozenset({"$equality"})
    assert list(prover._input_clauses(named)) == [
        (((True, "p", ("V1", ("f", ("V1",)))),), frozenset({"a1"})),
        (((True, "=", (("f", (c,)), c)),), frozenset({"a2"})),
        (((False, "p", (c, c)),), frozenset({"$conjecture"})),
        (((True, "=", ("X0", "X0")),), eq),
        (((False, "=", ("X0", "X1")), (True, "=", ("X1", "X0"))), eq),
        (
            ((False, "=", ("X0", "X1")), (False, "=", ("X1", "X2")), (True, "=", ("X0", "X2"))),
            eq,
        ),
        (((False, "=", ("A0", "B")), (False, "p", ("A0", "A1")), (True, "p", ("B", "A1"))), eq),
        (((False, "=", ("A1", "B")), (False, "p", ("A0", "A1")), (True, "p", ("A0", "B"))), eq),
        (((False, "=", ("A0", "B")), (True, "=", (("f", ("A0",)), ("f", ("B",))))), eq),
    ]


def test_quoted_constant_and_variable_stay_distinct():
    """'X0' is a constant whose name is the one normalize gives the first
    variable; the tuple form keeps ("X0", ()) apart from the variable "X0"."""
    const, var = (("X0", ()),), ("Y",)
    clause = normalize(((True, "p", const), (True, "p", var)))
    assert clause == ((True, "p", ("X0",)), (True, "p", (("X0", ()),)))
    sat = prover._Saturation((), LIMITS)
    mixed = normalize(((True, "p", const), (False, "p", var)))
    assert _held(sat, sat._entries(mixed), (), {}) is not None
    var_unit = normalize(((True, "p", var),))
    const_unit = normalize(((True, "p", const),))
    assert _subsumes_into(var_unit, _literals_by_key(const_unit))
    assert not _subsumes_into(const_unit, _literals_by_key(var_unit))
    out = prove(mk("fof(a1, axiom, p('X0')). fof(goal, conjecture, ! [X] : p(X))."), LIMITS)
    assert out.status == SzsStatus.CounterSatisfiable
    out = prove(mk("fof(a1, axiom, ! [X] : p(X)). fof(goal, conjecture, p('X0'))."), LIMITS)
    assert out.status == SzsStatus.Theorem


def _term_sum_weight(literals) -> int:
    """A clause's weight: one per literal and one per symbol or variable
    occurrence in its arguments."""

    def term(t) -> int:
        return 1 if isinstance(t, str) else 1 + sum(term(a) for a in t[1])

    return sum(1 + sum(term(a) for a in args) for _, _, args in literals)


@given(st.integers(0, 2**32))
def test_raw_clause_weight_and_tautology_match_its_normal_form(n):
    """Insertion reads weight and tautology off the raw clause, with repeated
    literals dropped, and leaves normalizing to selection.  Renaming and
    reordering change neither, and normalizing twice changes nothing."""
    rng = random.Random(n)
    literals = random_literals(rng, 4, ("Y0", "Y1", "Z"))
    raw = literals + tuple(rng.choice(literals) for _ in range(rng.randint(0, 2)))
    raw = tuple(rng.sample(raw, len(raw)))
    unique = tuple(dict.fromkeys(raw))
    normal = normalize(raw)
    sat = prover._Saturation((), LIMITS)
    held = _held(sat, sat._entries(raw), (), {})
    assert sum(sat.shared_literals[lit][1] for lit in unique) == _term_sum_weight(normal)
    assert (held is None) == _ref_is_tautology(normal)
    if held is not None:
        assert held == (unique, _term_sum_weight(normal))
    assert normalize(normal) == normal


class _CheckedSaturation(prover._Saturation):
    """Checks every forward-subsumption answer against a scan of the
    processed clauses queried."""

    def _subsumed(self, literals, features, start, stop):
        got = super()._subsumed(literals, features, start, stop)
        processed = [c for c, *_ in self.processed]
        assert got == _brute_force(processed, literals, start, stop)
        return got


@given(st.integers(0, 2**16))
def test_saturation_subsumption_equals_a_full_scan(n):
    rng = random.Random(n)
    premises = tuple(
        AnnotatedFormula(f"a{i}", "axiom", random_closed_formula(rng, 1)) for i in range(2)
    )
    goal = AnnotatedFormula("goal", "conjecture", random_closed_formula(rng, 1))
    limits = EngineLimits(timeout=10, max_clause_count=150)
    _saturate(Theory(premises + (goal,)), limits, _CheckedSaturation)


@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=4),
    depth=st.integers(1, 2),
)
def test_prover_and_finder_never_contradict(seeds, depth):
    """On small random theories with equality, no query is both a Theorem of
    the prover and a ModelFound of the finder, whose models are verified.
    The clause cap stops the saturations that equality makes endless."""
    formulas = [random_closed_formula(random.Random(s), depth) for s in seeds]
    premises = tuple(AnnotatedFormula(f"a{i}", "axiom", f) for i, f in enumerate(formulas[:-1]))
    goal = AnnotatedFormula("goal", "conjecture", formulas[-1])
    query = [(p.name, p.formula) for p in premises] + [("$neg", Not(goal.formula))]
    assume(contains_equality(clausify(query)))
    proof = prove(Theory(premises + (goal,)), EngineLimits(timeout=10, max_clause_count=150))
    found = find_model(query, EngineLimits(timeout=10, max_domain_size=3))
    assert not (proof.status == SzsStatus.Theorem and found.kind == ModelKind.ModelFound)
