"""Analysis procedure tests: reproving, minima, independence, consistency."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from proofscope.analysis import (
    GROW_EVAL_CAP,
    AnalysisError,
    Confirmation,
    IndependenceVerdict,
    NeededClassification,
    QuerySession,
    brute_force_minima,
    classify_needed,
    consistency_triple,
    enumerate_minima,
    independence_failfast,
    independence_naive,
    independence_random,
    semantic_reprove,
    syntactic_reprove,
)
from proofscope.engines import EngineLimits, EngineVerdict
from proofscope.logic import Atom, Binary, Not
from proofscope.report import (
    Report,
    classification_to_dict,
    consistency_to_dict,
    theory_summary,
    verdict_to_dict,
)
from proofscope.tptp import AnnotatedFormula, Theory, parse_file, render_theory
from proofscope.verdicts import Entailment, ProblemKind, SzsStatus, classify

from conftest import PROBLEM_DIR, mk, prop_entails, random_closed_formula, stub_spec
from corpus import ORACLE_THEORIES, UNSAT_CLAUSE_SETS

LIMITS = EngineLimits(timeout=20.0, max_domain_size=3)


class TestSyntacticReprove:
    def test_trivial_fixpoint(self, prover):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        trace = syntactic_reprove(QuerySession(t, [prover], limits=LIMITS), prover)
        assert trace.fixpoint_reached
        assert trace.final_premises == ("a1",)

    def test_drops_unused_premise(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        # oracle: a1 alone suffices, a2 alone does not
        fs = {f.name: f.formula for f in t.premises}
        assert prop_entails([fs["a1"]], t.conjecture.formula)
        assert not prop_entails([fs["a2"]], t.conjecture.formula)
        trace = syntactic_reprove(QuerySession(t, [prover], limits=LIMITS), prover)
        assert trace.fixpoint_reached
        assert trace.final_premises == ("a1",)

    def test_stages_strictly_decrease(self, prover, puz001):
        trace = syntactic_reprove(QuerySession(puz001, [prover], limits=LIMITS), prover)
        sizes = [len(stage[0]) for stage in trace.stages]
        assert sizes == sorted(sizes, reverse=True)
        for earlier, later in zip(trace.stages, trace.stages[1:]):
            assert set(later[0]) < set(earlier[0])
        assert trace.fixpoint_reached
        # the final verified stage still proves the conjecture
        final = trace.stages[-1][1]
        assert final.status == SzsStatus.Theorem

    def test_non_theorem_reports_without_fixpoint(self, prover):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        trace = syntactic_reprove(QuerySession(t, [prover], limits=LIMITS), prover)
        assert not trace.fixpoint_reached
        assert trace.stages[-1][1].status == SzsStatus.CounterSatisfiable

    def test_no_premise_info_single_stage(self, prover, limits):
        from conftest import stub_spec

        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        # countersat stub has no derivation info; use a theorem stub citing nothing:
        engine = stub_spec("theorem", "--cite", "a1", engine_id="x")
        trace = syntactic_reprove(QuerySession(t, [engine], limits=limits), engine)
        assert [len(s[0]) for s in trace.stages] == [2, 1]


class TestClassifyNeeded:
    def test_disjunction_everything_eliminable(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p | q).")
        fs = {f.name: f.formula for f in t.premises}
        # oracle: deleting either premise still proves the disjunction
        assert prop_entails([fs["a2"]], t.conjecture.formula)
        assert prop_entails([fs["a1"]], t.conjecture.formula)
        cls = classify_needed(QuerySession(t, [prover], [model_finder], LIMITS))
        assert cls.needed == frozenset()
        assert cls.eliminable == {"a1", "a2"}
        assert not cls.approximate

    def test_single_premise_needed(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        cls = classify_needed(QuerySession(t, [prover], [model_finder], LIMITS))
        assert cls.needed == {"a1"}

    def test_partition_property(self, prover, model_finder, puz001):
        cls = classify_needed(
            QuerySession(puz001, [prover], [model_finder], EngineLimits(30, 4))
        )
        all_names = set(puz001.premise_names)
        assert cls.needed | cls.eliminable | cls.unknown == all_names
        assert not (cls.needed & cls.eliminable)
        assert not (cls.needed & cls.unknown)
        assert not (cls.eliminable & cls.unknown)


class TestSemanticReprove:
    def test_not_sufficient_signals_multiple_minima(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p | q).")
        cls, confirmation = semantic_reprove(QuerySession(t, [prover], [model_finder], LIMITS))
        assert cls.needed == frozenset()
        assert confirmation == Confirmation.NotSufficient

    def test_confirmed_minimum(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        cls, confirmation = semantic_reprove(QuerySession(t, [prover], [model_finder], LIMITS))
        assert cls.needed == {"a1", "a2"}
        assert cls.eliminable == {"a3"}
        assert confirmation == Confirmation.ConfirmedMinimum


class TestEnumerateMinima:
    def test_two_minima_for_disjunction(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p | q).")
        session = QuerySession(t, [prover], [model_finder], LIMITS)
        cls, _ = semantic_reprove(session)
        report = enumerate_minima(session, cls)
        assert set(report.minima) == {frozenset({"a1"}), frozenset({"a2"})}
        assert report.exhaustive
        oracle = brute_force_minima(t, prover, LIMITS)
        assert set(report.minima) == set(oracle.minima)

    def test_minima_reverify(self, prover, model_finder):
        """Every reported minimum passes an independent re-check."""
        t = mk(
            "fof(a1, axiom, a). fof(a2, axiom, a => c). fof(a3, axiom, b). "
            "fof(a4, axiom, b => c). fof(goal, conjecture, c)."
        )
        session = QuerySession(t, [prover], [model_finder], LIMITS)
        cls, _ = semantic_reprove(session)
        report = enumerate_minima(session, cls)
        assert len(report.minima) == 2
        for minimum in report.minima:
            sub = t.restrict(minimum)
            assert prover.run(sub, LIMITS).status == SzsStatus.Theorem
            for name in minimum:
                smaller = t.restrict(minimum - {name})
                v = model_finder.run(smaller, LIMITS)
                assert v.status == SzsStatus.CounterSatisfiable

    def test_budget_degrades_exhaustive(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, a). fof(a2, axiom, a => c). fof(a3, axiom, b). "
            "fof(a4, axiom, b => c). fof(goal, conjecture, c)."
        )
        session = QuerySession(
            t, provers=[prover], counters=[model_finder], limits=LIMITS
        )
        cls = classify_needed(session)
        report = enumerate_minima(session, cls, subset_budget=1)
        assert not report.exhaustive


class TestBruteForce:
    def test_single_axiom(self, prover):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        assert brute_force_minima(t, prover, LIMITS).minima == (frozenset({"a1"}),)

    def test_duplicate_axiom_two_minima(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, p). fof(goal, conjecture, p).")
        assert set(brute_force_minima(t, prover, LIMITS).minima) == {
            frozenset({"a1"}),
            frozenset({"a2"}),
        }

    def test_chain_with_distractor(self, prover):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        assert brute_force_minima(t, prover, LIMITS).minima == (
            frozenset({"a1", "a2"}),
        )

    def test_tautology_empty_minimum(self, prover):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q | ~q).")
        assert brute_force_minima(t, prover, LIMITS).minima == (frozenset(),)

    def test_conjecture_free_minima_are_the_unsatisfiable_cores(self, prover, model_finder):
        """Without a conjecture the oracle refutes each subset; its minima
        are those enumerate_minima finds in unsat mode."""
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, ~p). fof(a3, axiom, q). "
            "fof(a4, axiom, ~q | ~p)."
        )
        oracle = brute_force_minima(t, prover, LIMITS)
        assert set(oracle.minima) == {frozenset({"a1", "a2"}), frozenset({"a1", "a3", "a4"})}
        session = QuerySession(t, [prover], [model_finder], LIMITS)
        report = enumerate_minima(session, classify_needed(session))
        assert report.exhaustive
        assert set(report.minima) == set(oracle.minima)

    def test_guard(self, prover):
        formulas = " ".join(f"fof(a{i}, axiom, p{i})." for i in range(13))
        t = mk(formulas + " fof(goal, conjecture, p0).")
        with pytest.raises(AnalysisError, match="guard"):
            brute_force_minima(t, prover, LIMITS)


class TestIndependence:
    def test_two_atoms_independent(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q).")
        report = independence_naive(QuerySession(t, [prover], [model_finder], LIMITS))
        assert report.verdict == IndependenceVerdict.Independent
        assert report.witness is None

    def test_modus_ponens_dependent_with_oracle(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, q).")
        fs = {f.name: f.formula for f in t.premises}
        # truth-table oracle for each "others derive it" query
        oracle = {
            name: prop_entails(
                [f for n, f in fs.items() if n != name], fs[name]
            )
            for name in fs
        }
        assert oracle == {"a1": False, "a2": True, "a3": True}
        report = independence_naive(QuerySession(t, [prover], [model_finder], LIMITS))
        assert report.verdict == IndependenceVerdict.Dependent
        assert {n: e == Entailment.Proves for n, e in report.per_axiom.items()} == oracle
        # first dependent axiom in declaration order is the witness
        assert report.witness == ("a2", frozenset({"a1", "a3"}))

    def test_valid_axiom_dependent_on_empty_set(self, prover, model_finder):
        t = mk("fof(a1, axiom, p | ~p).")
        report = independence_naive(QuerySession(t, [prover], [model_finder], LIMITS))
        assert report.verdict == IndependenceVerdict.Dependent
        assert report.witness == ("a1", frozenset())

    def test_failfast_finds_smallest_witness_first(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, q).")
        report = independence_failfast(QuerySession(t, [prover], limits=LIMITS))
        assert report.verdict == IndependenceVerdict.Dependent
        # q alone already derives p => q, found at subset size 1
        assert report.witness == ("a2", frozenset({"a3"}))

    def test_failfast_projection_at_size_one(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q & p).")
        report = independence_failfast(QuerySession(t, [prover], limits=LIMITS))
        assert report.verdict == IndependenceVerdict.Dependent
        assert report.witness == ("a1", frozenset({"a2"}))

    def test_failfast_independent_after_exhausting(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q).")
        report = independence_failfast(QuerySession(t, [prover], limits=LIMITS))
        assert report.verdict == IndependenceVerdict.Independent

    def test_failfast_truncated_sweep_is_inconclusive(self, prover):
        # No axiom follows from a single other, but p <=> q follows from the
        # pair {p, q}; a sweep capped at size 1 must not claim independence.
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(a3, axiom, p <=> q).")
        capped = independence_failfast(
            QuerySession(t, [prover], limits=LIMITS), max_subset_size=1
        )
        assert capped.verdict == IndependenceVerdict.Inconclusive
        full = independence_failfast(QuerySession(t, [prover], limits=LIMITS))
        assert full.verdict == IndependenceVerdict.Dependent
        # at size 2 the sweep reaches a1 first: {q, p <=> q} derives p
        assert full.witness == ("a1", frozenset({"a2", "a3"}))

    def test_random_finds_dependency(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, q).")
        report = independence_random(QuerySession(t, [prover], limits=LIMITS), trials=50, seed=11)
        assert report.verdict == IndependenceVerdict.Dependent
        name, subset = report.witness
        # the witness re-verifies through an independent prover call
        fs = {f.name: f.formula for f in t.premises}
        assert prop_entails([fs[n] for n in subset], fs[name])

    def test_random_never_claims_independent(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q).")
        report = independence_random(QuerySession(t, [prover], limits=LIMITS), trials=25, seed=3)
        assert report.verdict == IndependenceVerdict.Inconclusive

    def test_random_rejects_zero_trials(self, prover):
        t = mk("fof(a1, axiom, p).")
        with pytest.raises(AnalysisError):
            independence_random(QuerySession(t, [prover], limits=LIMITS), trials=0, seed=1)

    def test_random_deterministic_given_seed(self, prover):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, q).")
        a = independence_random(QuerySession(t, [prover], limits=LIMITS), trials=50, seed=11)
        b = independence_random(QuerySession(t, [prover], limits=LIMITS), trials=50, seed=11)
        assert a.witness == b.witness


class TestConsistencyTriple:
    def test_toy_theorem(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        report = consistency_triple(QuerySession(t, counters=[model_finder], limits=LIMITS))
        assert report.axioms_only.outcome == "ModelFound"
        assert report.axioms_plus_conjecture.outcome == "ModelFound"
        assert report.axioms_plus_negated_conjecture.outcome == "ExhaustedUpTo"

    def test_countersatisfiable_toy(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        report = consistency_triple(QuerySession(t, counters=[model_finder], limits=LIMITS))
        assert report.axioms_plus_negated_conjecture.outcome == "ModelFound"
        payload = consistency_to_dict(report, LIMITS.timeout)
        assert "countersatisfiable" in payload["axioms_plus_negated_conjecture"]["reading"]

    def test_inconsistent_axioms(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, ~p).")
        report = consistency_triple(QuerySession(t, counters=[model_finder], limits=LIMITS))
        assert report.axioms_only.outcome == "ExhaustedUpTo"
        assert report.axioms_plus_conjecture is None
        assert report.axioms_plus_negated_conjecture is None

    def test_puz001_rows(self, model_finder, puz001):
        report = consistency_triple(
            QuerySession(puz001, counters=[model_finder], limits=EngineLimits(30, 4))
        )
        assert report.axioms_only.outcome == "ModelFound"
        assert report.axioms_plus_conjecture.outcome == "ModelFound"
        assert report.axioms_plus_negated_conjecture.outcome == "ExhaustedUpTo"


PUZ001_AXIOMS = """\
fof(pel55_1, axiom, ? [X] : (lives(X) & killed(X,agatha))).
fof(pel55_2_1, axiom, lives(agatha)).
fof(pel55_2_2, axiom, lives(butler)).
fof(pel55_2_3, axiom, lives(charles)).
fof(pel55_3, axiom, ! [X] : (lives(X) => (X = agatha | X = butler | X = charles))).
fof(pel55_4, axiom, ! [X,Y] : (killed(X,Y) => hates(X,Y))).
fof(pel55_5, axiom, ! [X,Y] : (killed(X,Y) => ~richer(X,Y))).
fof(pel55_6, axiom, ! [X] : (hates(agatha,X) => ~hates(charles,X))).
fof(pel55_7, axiom, ! [X] : (X != butler => hates(agatha,X))).
fof(pel55_8, axiom, ! [X] : (~richer(X,agatha) => hates(butler,X))).
fof(pel55_9, axiom, ! [X] : (hates(agatha,X) => hates(butler,X))).
fof(pel55_10, axiom, ! [X] : ? [Y] : ~hates(X,Y)).
fof(pel55_11, axiom, agatha != butler).
"""
TWO_MINIMA_AXIOMS = """\
fof(route_a, axiom, a).
fof(route_a_works, axiom, a => c).
fof(route_b, axiom, b).
fof(route_b_works, axiom, b => c).
"""


class _RecordingFinder:
    """A model finder that records each query theory it is given and answers
    with one status, by default GaveUp."""

    id = "recording-finder"
    capabilities = frozenset({"finds_models"})

    def __init__(self, status=SzsStatus.GaveUp, exhausted_size=None):
        self.seen = []
        self.status = status
        self.exhausted_size = exhausted_size

    def run(self, t, limits):
        self.seen.append(render_theory(t))
        return EngineVerdict(self.id, self.status, exhausted_size=self.exhausted_size)


class _TableEngine:
    """A prover that answers each query from a table keyed by the query's
    premise names, GaveUp for a set not in it, and cites no premises."""

    id = "table"
    capabilities = frozenset({"proves"})

    def __init__(self, table):
        self.table = {frozenset(names): status for names, status in table.items()}

    def run(self, t, limits):
        return EngineVerdict(self.id, self.table.get(frozenset(t.premise_names), SzsStatus.GaveUp))


class TestUndecidedAndUncitedAnswers:
    """Analyses fed answers no built-in engine gives on a small theory."""

    def session(self, text, table):
        return QuerySession(mk(text), [_TableEngine(table)], limits=LIMITS)

    def test_minimum_whose_deletion_proves_is_not_reported(self):
        session = self.session(
            "fof(a1, axiom, p). fof(goal, conjecture, p).",
            {("a1",): SzsStatus.Theorem, (): SzsStatus.Theorem},
        )
        cls = NeededClassification(frozenset({"a1"}), frozenset(), frozenset())
        report = enumerate_minima(session, cls)
        assert report.minima == ()
        assert report.exhaustive
        assert report.budget_spent == 2

    def test_undetermined_deletion_makes_minima_non_exhaustive(self):
        session = self.session(
            "fof(a1, axiom, p). fof(goal, conjecture, p).", {("a1",): SzsStatus.Theorem}
        )
        cls = NeededClassification(frozenset({"a1"}), frozenset(), frozenset())
        report = enumerate_minima(session, cls)
        assert report.minima == ()
        assert not report.exhaustive

    def test_semantic_reprove_undetermined(self):
        session = self.session(
            "fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p & q).",
            {("a1",): SzsStatus.CounterSatisfiable, ("a2",): SzsStatus.CounterSatisfiable},
        )
        cls, confirmation = semantic_reprove(session)
        assert cls.needed == {"a1", "a2"}
        assert confirmation == Confirmation.Undetermined

    def test_proof_citing_nothing_is_one_stage_fixpoint(self):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        engine = _TableEngine({("a1", "a2"): SzsStatus.Theorem})
        trace = syntactic_reprove(QuerySession(t, [engine], limits=LIMITS), engine)
        assert [s[0] for s in trace.stages] == [("a1", "a2")]
        assert trace.fixpoint_reached

    @pytest.mark.parametrize("method", [independence_naive, independence_failfast])
    def test_undetermined_independence_is_inconclusive(self, method):
        session = self.session("fof(a1, axiom, p). fof(a2, axiom, q).", {})
        report = method(session)
        assert report.verdict == IndependenceVerdict.Inconclusive
        assert report.per_axiom == {"a1": Entailment.Undetermined, "a2": Entailment.Undetermined}
        assert session.engine_calls == 2

    def test_random_independence_of_one_axiom_skips_every_trial(self):
        session = self.session("fof(a1, axiom, p).", {})
        report = independence_random(session, trials=5, seed=0)
        assert report.verdict == IndependenceVerdict.Inconclusive
        assert report.per_axiom == {}
        assert session.engine_calls == 0

    def test_text_report_lists_unknown_premises(self):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        engine = _TableEngine(
            {("a1", "a2"): SzsStatus.Theorem, ("a2",): SzsStatus.CounterSatisfiable}
        )
        session = QuerySession(t, [engine], limits=LIMITS)
        cls, confirmation = semantic_reprove(session)
        assert cls.unknown == {"a2"}
        payload = {
            "method": "semantic",
            "initial": verdict_to_dict(session.run_engine(frozenset({"a1", "a2"}), engine), t),
            "classification": classification_to_dict(cls, t),
            "confirmation": confirmation.value,
        }
        report = Report("reprove", "p", theory_summary(t), ["table"], {}, payload, [], 0, 0.0)
        assert "unknown (1): a2 (classification approximate)" in report.to_text().splitlines()


# The outcome of each consistency check (axioms, axioms plus conjecture,
# axioms plus negated conjecture) when the finder answers a status: classify
# reads the first two as Unsatisfiable-mode tasks, the third as a conjecture.
ALL_UNKNOWN = ("Unknown", "Unknown", "Unknown")
CONSISTENCY_OUTCOMES = [
    (SzsStatus.Theorem, None, ("Unknown", "Unknown", "Unsatisfiable")),
    (SzsStatus.ContradictoryAxioms, None, ("Unsatisfiable",) * 3),
    (SzsStatus.CounterSatisfiable, None, ("Unknown", "Unknown", "ModelFound")),
    (SzsStatus.CounterTheorem, None, ("Unknown", "Unknown", "ModelFound")),
    (SzsStatus.Satisfiable, None, ("ModelFound", "ModelFound", "Unknown")),
    (SzsStatus.Unsatisfiable, None, ("Unsatisfiable", "Unsatisfiable", "Unknown")),
    (SzsStatus.Timeout, None, ("ResourceOut",) * 3),
    (SzsStatus.GaveUp, None, ALL_UNKNOWN),
    (SzsStatus.GaveUp, 3, ("ExhaustedUpTo",) * 3),
    (SzsStatus.ResourceOut, None, ("ResourceOut",) * 3),
    (SzsStatus.MemoryOut, None, ALL_UNKNOWN),
    (SzsStatus.Error, None, ALL_UNKNOWN),
    (SzsStatus.Inappropriate, None, ALL_UNKNOWN),
    (SzsStatus.Unknown, None, ALL_UNKNOWN),
]


class TestConsistencyThroughSession:
    def test_three_engine_calls_then_none(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        session = QuerySession(t, counters=[model_finder], limits=LIMITS)
        first = consistency_triple(session)
        assert session.engine_calls == 3
        assert consistency_triple(session) == first
        assert session.engine_calls == 3

    def test_one_engine_call_without_conjecture(self, model_finder):
        session = QuerySession(mk("fof(a1, axiom, p)."), counters=[model_finder], limits=LIMITS)
        consistency_triple(session)
        assert session.engine_calls == 1
        consistency_triple(session)
        assert session.engine_calls == 1

    def test_needs_a_model_finder(self, prover):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        with pytest.raises(AnalysisError, match="model-finding engine"):
            consistency_triple(QuerySession(t, provers=[prover], limits=LIMITS))

    def test_budget_is_the_session_timeout(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        limits = EngineLimits(timeout=7.5, max_domain_size=2)
        session = QuerySession(t, counters=[model_finder], limits=limits)
        payload = consistency_to_dict(consistency_triple(session), session.limits.timeout)
        assert payload["axioms_only"]["budget_seconds"] == 7.5
        assert payload["axioms_plus_negated_conjecture"]["budget_seconds"] == 7.5

    @pytest.mark.parametrize(
        "status, exhausted_size, outcomes",
        CONSISTENCY_OUTCOMES,
        ids=[f"{s.value}-{n}" for s, n, _ in CONSISTENCY_OUTCOMES],
    )
    def test_outcome_is_read_by_classify(self, status, exhausted_size, outcomes):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        finder = _RecordingFinder(status, exhausted_size)
        report = consistency_triple(QuerySession(t, counters=[finder], limits=LIMITS))
        checks = (
            report.axioms_only,
            report.axioms_plus_conjecture,
            report.axioms_plus_negated_conjecture,
        )
        assert tuple(c.outcome for c in checks) == outcomes

    def test_every_status_has_outcomes(self):
        assert {status for status, _, _ in CONSISTENCY_OUTCOMES} == set(SzsStatus)

    @pytest.mark.parametrize(
        "problem, axioms, conjecture_name, conjecture_text",
        [
            ("PUZ001+1.p", PUZ001_AXIOMS, "pel55", "killed(agatha,agatha)"),
            ("two_minima.p", TWO_MINIMA_AXIOMS, "goal", "c"),
        ],
    )
    def test_query_theories_render_as_before(
        self, problem, axioms, conjecture_name, conjecture_text
    ):
        """The finder sees the same three theories as when consistency_triple
        built them itself: the axioms, the axioms with the conjecture appended
        as an axiom, and the problem unchanged."""
        finder = _RecordingFinder()
        t = parse_file(str(PROBLEM_DIR / problem))
        consistency_triple(QuerySession(t, counters=[finder], limits=LIMITS))
        assert finder.seen == [
            axioms,
            axioms + f"fof({conjecture_name}, axiom, {conjecture_text}).\n",
            axioms + f"fof({conjecture_name}, conjecture, {conjecture_text}).\n",
        ]


class TestUnknownClassification:
    def test_undecided_queries_marked_unknown(self, model_finder):
        """With a prover that never answers, eliminable premises cannot be
        verified: they land in unknown, T* retains them, and the minima
        report refuses to claim exhaustiveness."""
        from conftest import stub_spec

        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        dead_prover = stub_spec("garbage", engine_id="dead")
        limits = EngineLimits(timeout=5.0, max_domain_size=3)
        session = QuerySession(
            t, provers=[dead_prover], counters=[model_finder], limits=limits
        )
        cls = classify_needed(session)
        assert cls.needed == {"a1", "a2"}  # countermodels still decide these
        assert cls.unknown == {"a3"}
        assert cls.approximate
        report = enumerate_minima(session, cls)
        assert not report.exhaustive


class TestQuerySessionPruning:
    def test_symbol_at_two_arities_is_rejected_when_the_session_is_built(
        self, prover, model_finder
    ):
        """The parser rejects such a theory; one built through the library
        is rejected by the session before any engine runs."""
        premises = (
            AnnotatedFormula("a1", "axiom", Atom("p", (("a", ()),))),
            AnnotatedFormula("a2", "axiom", Binary("=>", Atom("p"), Atom("q"))),
        )
        t = Theory(premises + (AnnotatedFormula("goal", "conjecture", Atom("q")),))
        with pytest.raises(ValueError, match=r"symbol p used with arity 1 and arity 0"):
            QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)

    def test_monotone_pruning_saves_calls(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        full = frozenset(t.premise_names)
        assert session.decide(frozenset({"a1", "a2"}), prefer="prove") == Entailment.Proves
        before = session.engine_calls
        # superset of a proving set: no engine call needed
        assert session.decide(full, prefer="prove") == Entailment.Proves
        assert session.engine_calls == before

    def test_exact_cache(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        full = frozenset(t.premise_names)
        session.decide(full, prefer="prove")
        calls = session.engine_calls
        session.decide(full, prefer="prove")
        assert session.engine_calls == calls

    def test_undetermined_set_is_recombined_without_engine_calls(self):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        session = QuerySession(t, provers=[stub_spec("garbage")], limits=LIMITS)
        full = frozenset(t.premise_names)
        assert session.decide(full) == Entailment.Undetermined
        assert session.engine_calls == 1
        for prefer in ("prove", "counter"):
            assert session.decide(full, prefer=prefer) == Entailment.Undetermined
        assert session.engine_calls == 1

    def test_engine_given_twice_runs_once(self, prover):
        """Each (goal, premise set, engine id) runs at most once, also when a
        phase lists one engine twice."""
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        unknown = stub_spec("garbage")
        session = QuerySession(
            t, provers=[unknown, unknown], counters=[prover, prover], limits=LIMITS
        )
        full = frozenset(t.premise_names)
        assert session.decide(full) == Entailment.Proves
        assert session.engine_calls == 2
        assert session.run_engine(full, unknown).status == SzsStatus.Unknown
        assert session.engine_calls == 2
        assert session.decide(frozenset({"a2"}), prefer="counter") == Entailment.DoesNotProve
        assert session.engine_calls == 3

    def test_unsat_mode_is_read_from_the_theory(self):
        with_conjecture = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        assert QuerySession(with_conjecture).default_goal() == ("conjecture",)
        assert QuerySession(with_conjecture.without_conjecture()).default_goal() == ("unsat",)

    def _calls(self, session, names, **kw):
        """(entailment, engine calls made) for one decide."""
        before = session.engine_calls
        ent = session.decide(frozenset(names), **kw)
        return ent, session.engine_calls - before

    def test_used_premises_prune_other_supersets(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(a4, axiom, s). fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a1", "a2", "a3"}) == (Entailment.Proves, 1)
        # Contains the used premises {a1, a2} but is no superset of {a1, a2, a3}.
        assert self._calls(session, {"a1", "a2", "a4"}) == (Entailment.Proves, 0)
        assert self._calls(session, {"a1", "a2"}, prefer="counter") == (
            Entailment.Proves,
            0,
        )

    def test_missing_used_premise_still_queries(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        session.decide(frozenset({"a1", "a2", "a3"}))
        ent, calls = self._calls(session, {"a2", "a3"})
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_axiom_goal_never_records_its_target(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, q).")
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        goal = ("axiom", "a3")
        full = frozenset(t.premise_names)
        verdict = session.run_engine(full, prover, goal)
        assert verdict.used_premises == {"a1", "a2"}
        # The proving set recorded for the goal is {a1, a2}: the set without
        # the target is answered by pruning, a set without a1 is not.
        assert self._calls(session, {"a1", "a2"}, goal=goal) == (Entailment.Proves, 0)
        ent, calls = self._calls(session, {"a2", "a3"}, goal=goal, prefer="counter")
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_unsat_mode_prunes_by_used_premises(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, ~p). fof(a3, axiom, q). "
            "fof(a4, axiom, r)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a1", "a2", "a3"}) == (Entailment.Proves, 1)
        assert self._calls(session, {"a1", "a2", "a4"}) == (Entailment.Proves, 0)

    def test_external_citations_never_prune(self, limits):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, q). fof(a3, axiom, r). "
            "fof(goal, conjecture, p)."
        )
        # Cites only a1 although it was given all three premises.
        stub = stub_spec("theorem", "--cite", "a1", engine_id="cites-a1")
        session = QuerySession(t, provers=[stub], limits=limits)
        verdict = session.run_engine(frozenset(t.premise_names), stub)
        assert verdict.used_premises == {"a1"}
        assert not verdict.premises_exact
        # {a1, a3} contains the cited premises but not the query set.
        assert self._calls(session, {"a1", "a3"}) == (Entailment.Proves, 1)

    def test_countermodel_grows_non_proving_set(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(a4, axiom, s). fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a2"}, prefer="counter") == (Entailment.DoesNotProve, 1)
        # The model makes p and q false; r and s are absent from it, so read
        # as true everywhere: the recorded set is {a2, a3, a4}.
        assert self._calls(session, {"a3", "a4"}) == (Entailment.DoesNotProve, 0)
        assert self._calls(session, {"a2", "a3", "a4"}) == (Entailment.DoesNotProve, 0)
        ent, calls = self._calls(session, {"a1", "a2"})
        assert ent == Entailment.Proves
        assert calls > 0

    def test_premise_above_evaluation_cap_not_grown(self, prover, model_finder):
        # Two distinct elements force domain size 2, and 2 ** k exceeds the
        # cap for the k variables bound in a_big.
        k = GROW_EVAL_CAP.bit_length()
        assert 2**k > GROW_EVAL_CAP
        variables = ",".join(f"X{i}" for i in range(k))
        t = mk(
            "fof(a1, axiom, ?[X,Y]: X != Y). "
            "fof(a_small, axiom, ![X0]: (p(X0) | ~p(X0))). "
            f"fof(a_big, axiom, ![{variables}]: (p(X0) | ~p(X0))). "
            "fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a1"}, prefer="counter") == (Entailment.DoesNotProve, 1)
        assert self._calls(session, {"a1", "a_small"}) == (Entailment.DoesNotProve, 0)
        ent, calls = self._calls(session, {"a1", "a_big"}, prefer="counter")
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_countermodel_answers_every_axiom_goal_it_falsifies(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(a3, axiom, r). fof(a4, axiom, r & s).")
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a1"}, goal=("axiom", "a3"), prefer="counter") == (
            Entailment.DoesNotProve,
            1,
        )
        # The model makes p true and r false; q and s are read as true, so the
        # grown set is {a1, a2} and a4 is false in the extended model.
        goal = ("axiom", "a4")
        assert self._calls(session, {"a1", "a2"}, goal=goal) == (Entailment.DoesNotProve, 0)
        assert self._calls(session, {"a2"}, goal=goal) == (Entailment.DoesNotProve, 0)
        # a2 is true in the extended model, so its goal still asks an engine.
        ent, calls = self._calls(session, {"a1"}, goal=("axiom", "a2"), prefer="counter")
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_axiom_goal_target_in_the_query_set_is_not_noted_for_other_goals(
        self, prover, model_finder
    ):
        """An axiom goal's query leaves its target out even when the set names
        it, so the model falsifies the target and proves nothing about the
        other goals of a set that contains it."""
        t = mk("fof(a0, axiom, q). fof(a1, axiom, q).")
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a0"}, goal=("axiom", "a0"), prefer="counter") == (
            Entailment.DoesNotProve,
            1,
        )
        assert self._calls(session, (), goal=("axiom", "a1")) == (Entailment.DoesNotProve, 0)
        ent, calls = self._calls(session, {"a0"}, goal=("axiom", "a1"), prefer="counter")
        assert ent == Entailment.Proves
        assert calls > 0

    def test_premise_above_evaluation_cap_not_noted(self, prover, model_finder):
        """A premise false in the extended model but too deep to evaluate is
        not recorded as refuted."""
        k = GROW_EVAL_CAP.bit_length()
        variables = ",".join(f"X{i}" for i in range(k))
        t = mk(
            "fof(a1, axiom, ?[X,Y]: X != Y). "
            "fof(a_small, axiom, ![X0]: ~p(X0)). "
            f"fof(a_big, axiom, ![{variables}]: ~p(X0)). "
            "fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a1"}, prefer="counter") == (Entailment.DoesNotProve, 1)
        # p is absent from the model, so read as true everywhere.
        assert self._calls(session, {"a1"}, goal=("axiom", "a_small")) == (
            Entailment.DoesNotProve,
            0,
        )
        ent, calls = self._calls(session, {"a1"}, goal=("axiom", "a_big"), prefer="counter")
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_external_model_finder_never_grows(self, prover):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        finder = stub_spec("countersat", engine_id="stub-finder", caps=("finds_models",))
        session = QuerySession(t, provers=[prover], counters=[finder], limits=LIMITS)
        verdict = session.run_engine(frozenset({"a2"}), finder)
        assert verdict.model is None
        ent, calls = self._calls(session, {"a3"}, prefer="counter")
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_axiom_goal_never_grows_into_its_target(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(a3, axiom, r).")
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        goal = ("axiom", "a3")
        assert self._calls(session, {"a1"}, goal=goal, prefer="counter") == (
            Entailment.DoesNotProve,
            1,
        )
        # a2 is true in the extended model and a3 is false in it.
        assert self._calls(session, {"a1", "a2"}, goal=goal) == (Entailment.DoesNotProve, 0)
        ent, calls = self._calls(session, {"a1", "a3"}, goal=goal, prefer="counter")
        assert ent == Entailment.DoesNotProve
        assert calls > 0

    def test_unsat_mode_grows_from_a_model(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, ~p). fof(a3, axiom, q). "
            "fof(a4, axiom, r)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        assert self._calls(session, {"a1"}, prefer="counter") == (Entailment.DoesNotProve, 1)
        assert self._calls(session, {"a1", "a3", "a4"}) == (Entailment.DoesNotProve, 0)
        ent, calls = self._calls(session, {"a1", "a2"})
        assert ent == Entailment.Proves
        assert calls > 0


# Twelve premises: a start fact, two routes of three links to the goal, and a
# dead-end chain d1 -> d2 -> d3 with the derivable shortcut d1 -> d3.
CHAIN_12 = "\n".join(
    [
        "fof(start, axiom, p0(c)).",
        *(
            f"fof({name}, axiom, ![X]: ({src}(X) => {dst}(X)))."
            for name, src, dst in [
                ("r1", "p0", "p1"), ("r2", "p1", "p2"), ("r3", "p2", "goal"),
                ("s1", "p0", "p3"), ("s2", "p3", "p4"), ("s3", "p4", "goal"),
                ("x1", "p0", "d1"), ("x2", "d1", "d2"), ("x3", "d2", "d3"),
                ("x4", "p3", "d4"), ("x5", "d1", "d3"),
            ]
        ),
        "fof(conj, conjecture, goal(c)).",
    ]
)


def test_chain_engine_calls_pinned(prover, model_finder):
    """minimize and fail-fast independence on a 12-premise chain, counted in
    engine calls.  Countermodel growth answers most subset queries: without
    it the same analyses make 1572 and 790 calls."""
    t = mk(CHAIN_12)
    session = QuerySession(t, [prover], [model_finder], LIMITS)
    assert session.decide(frozenset(t.premise_names)) == Entailment.Proves
    cls, confirmation = semantic_reprove(session)
    assert confirmation == Confirmation.NotSufficient
    minima = enumerate_minima(session, cls)
    assert minima.minima == (
        frozenset({"start", "r1", "r2", "r3"}),
        frozenset({"start", "s1", "s2", "s3"}),
    )
    assert minima.exhaustive
    assert session.engine_calls == 14

    axioms = QuerySession(t.without_conjecture(), [prover], [model_finder], LIMITS)
    report = independence_failfast(axioms)
    assert report.witness == ("x5", frozenset({"x2", "x3"}))
    assert axioms.engine_calls == 19


class _RecordingEngine:
    """Runs an engine and records (engine id, goal, sorted premise names) for
    each call.  The goal is read off the query theory: none without a
    conjecture, the session theory's own conjecture, or a premise as the
    target."""

    def __init__(self, engine, calls: list, conjecture: str | None):
        self.engine, self.calls, self.conjecture = engine, calls, conjecture
        self.id, self.capabilities = engine.id, engine.capabilities

    def run(self, t, limits):
        c = t.conjecture
        if c is None:
            goal = ["unsat"]
        elif c.name == self.conjecture:
            goal = ["conjecture"]
        else:
            goal = ["axiom", c.name]
        self.calls.append([self.id, goal, sorted(t.premise_names)])
        return self.engine.run(t, limits)


def _recording_session(t: Theory, provers, counters, limits) -> tuple[QuerySession, list]:
    calls: list = []
    conjecture = t.conjecture.name if t.conjecture else None
    provers, counters = (
        [_RecordingEngine(e, calls, conjecture) for e in group] for group in (provers, counters)
    )
    return QuerySession(t, provers, counters, limits), calls


def _digest(calls: list) -> str:
    return hashlib.sha256(json.dumps(calls).encode()).hexdigest()


class TestEngineCallSequencePinned:
    """Every engine call of the CLI analyses, in order, as (engine id, goal,
    premise set), pinned by length and sha256 digest.  Each run follows its
    cmd_* function in the CLI."""

    def test_minimize_two_provers_in_one_phase(self, model_finder, limits):
        t = parse_file(str(PROBLEM_DIR / "two_minima.p"))
        provers = [stub_spec("theorem", engine_id="stub-yes"), stub_spec("garbage")]
        session, calls = _recording_session(t, provers, [model_finder], limits)
        full = frozenset(t.premise_names)
        assert session.decide(full, prefer="prove") == Entailment.Proves
        session.run_engine(full, session.provers[0])
        cls, _ = semantic_reprove(session)
        enumerate_minima(session, cls)
        assert (len(calls), _digest(calls)) == (
            16,
            "79b23bf902365425666879ceb320b81a6d6c4c5a0ae6716ff8f013a867ff3c6d",
        )

    def test_independence_naive(self, prover, model_finder, limits):
        t = parse_file(str(PROBLEM_DIR / "dependent_axioms.p")).without_conjecture()
        session, calls = _recording_session(t, [prover], [model_finder], limits)
        independence_naive(session)
        assert (len(calls), _digest(calls)) == (
            5,
            "9e2db2ab72139442eeb0786909852311e7cec2c01c834ebdaa8fe2df7efb3c23",
        )

    @pytest.mark.parametrize(
        "max_subset_size, pinned",
        [
            (None, (4, "ab05b8f8e17439ebc019e90747fb05bc70ce9e1a0fa7e70ec7fa597588de4a19")),
            (1, (4, "ab05b8f8e17439ebc019e90747fb05bc70ce9e1a0fa7e70ec7fa597588de4a19")),
        ],
    )
    def test_independence_failfast(self, prover, model_finder, limits, max_subset_size, pinned):
        t = parse_file(str(PROBLEM_DIR / "dependent_axioms.p")).without_conjecture()
        session, calls = _recording_session(t, [prover], [model_finder], limits)
        independence_failfast(session, max_subset_size)
        assert (len(calls), _digest(calls)) == pinned

    def test_independence_random(self, prover, model_finder, limits):
        t = parse_file(str(PROBLEM_DIR / "dependent_axioms.p")).without_conjecture()
        session, calls = _recording_session(t, [prover], [model_finder], limits)
        independence_random(session, 10, 0)
        assert (len(calls), _digest(calls)) == (
            2,
            "b95d6ace372736c5cbb864780a80b0ee799ea58e379e4b9168a5ca42f1ebd1a9",
        )

    @pytest.mark.parametrize(
        "budget, pinned",
        [
            (1, (5, "8dbc34f99aaf3ecedc309623f2eef1f467c38a965acd7ed0ad64da7dd000e972", 0, False)),
            (2, (6, "21879ee26c597f389814daecbced1f80bafa36ed5e7376ee98a00e65906e7c25", 0, False)),
            (3, (7, "174b6e3858cd6e9ef10473c5edfc84af438df75294ce4a12a94fb62226fcde8d", 0, False)),
            (4, (8, "8b64d748e987d97df484632bdbeeedb4c700e5cd4f2d8d08c71a543b50ac70d5", 1, False)),
        ],
    )
    def test_minimize_under_a_subset_budget(self, prover, model_finder, limits, budget, pinned):
        """The budget is checked before every candidate that is not a superset
        of a found minimum, cache-answered ones included: at budget 4 every
        engine call of the full walk is made, yet the walk stops before the
        cache would answer the second minimum."""
        t = parse_file(str(PROBLEM_DIR / "two_minima.p"))
        session, calls = _recording_session(t, [prover], [model_finder], limits)
        full = frozenset(t.premise_names)
        assert session.decide(full, prefer="prove") == Entailment.Proves
        session.run_engine(full, session.provers[0])
        cls, _ = semantic_reprove(session)
        report = enumerate_minima(session, cls, budget)
        assert (len(calls), _digest(calls), len(report.minima), report.exhaustive) == pinned

    def test_independence_failfast_chain(self, prover, model_finder, limits):
        t = mk(CHAIN_12).without_conjecture()
        session, calls = _recording_session(t, [prover], [model_finder], limits)
        independence_failfast(session, max_subset_size=2)
        assert (len(calls), _digest(calls)) == (
            19,
            "2e028d370eb24a15bb702331abf506f19d341e46a49a6bf9f0f567a0d3d165cf",
        )

    def test_independence_random_chain(self, prover, model_finder, limits):
        t = mk(CHAIN_12).without_conjecture()
        session, calls = _recording_session(t, [prover], [model_finder], limits)
        independence_random(session, trials=40, seed=0)
        assert (len(calls), _digest(calls)) == (
            14,
            "ef927026abeeb0ad06f156c95211b12f0adc98d3236a97b42667874d5f0dea5f",
        )

    def test_consistency_puz001(self, prover, model_finder, puz001, limits):
        session, calls = _recording_session(puz001, [prover], [model_finder], limits)
        consistency_triple(session)
        assert (len(calls), _digest(calls)) == (
            3,
            "448358c904e527cec7eef8403c9364e587cbeab0a9e5c4a60f18cb07ee98436c",
        )


def _oracle(prover, t, names, goal, limits=LIMITS) -> Entailment:
    """Uncached answer for one premise subset: the prover on a theory built
    here, sharing no code with QuerySession."""
    if goal == ("unsat",):
        premises = tuple(f for f in t.premises if f.name in names)
        verdict = prover.run(Theory(premises), limits)
        return classify(verdict.status, ProblemKind.no_conjecture_unsat)
    if goal == ("conjecture",):
        premises = tuple(f for f in t.premises if f.name in names)
        conj = t.conjecture
    else:
        target = t[goal[1]]
        premises = tuple(f for f in t.premises if f.name in names and f is not target)
        conj = AnnotatedFormula(target.name, "conjecture", target.formula, target.source)
    verdict = prover.run(Theory(premises + (conj,)), limits)
    return classify(verdict.status, ProblemKind.has_conjecture)


@pytest.mark.parametrize(
    "name,text",
    ORACLE_THEORIES + UNSAT_CLAUSE_SETS,
    ids=[n for n, _ in ORACLE_THEORIES + UNSAT_CLAUSE_SETS],
)
def test_warm_session_agrees_with_uncached_prover(prover, model_finder, name, text):
    """Pruning (by query sets, by used premises and by countermodel-grown
    sets) never changes a decisive answer: after a session has run the
    analyses, its answer on every premise subset, asked with either engine
    group first, equals the prover's answer without any cache."""
    t = mk(text)
    unsat = t.conjecture is None
    names = t.premise_names
    goals = [("unsat",) if unsat else ("conjecture",)] + [("axiom", n) for n in names]
    expected = {
        (goal, subset): _oracle(prover, t, subset, goal)
        for goal in goals
        for k in range(len(names) + 1)
        for subset in itertools.combinations(names, k)
    }
    for prefer in ("prove", "counter"):
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        cls, _ = semantic_reprove(session)
        enumerate_minima(session, cls)
        independence_naive(session)
        if len(names) >= 2:
            independence_failfast(session)
        independence_random(session, trials=20, seed=5)
        for (goal, subset), want in expected.items():
            if want == Entailment.Undetermined:
                continue
            got = session.decide(frozenset(subset), prefer=prefer, goal=goal)
            assert got == want, (prefer, goal, subset)


# Propositions over q/0, r/0 and s/0, and conftest's random closed formulas
# over p/1, q/0, f/1, a and b (with equality).
_FORMULAS = st.one_of(
    st.recursive(
        st.sampled_from(["q", "r", "s"]).map(Atom),
        lambda sub: st.one_of(
            sub.map(Not),
            st.builds(Binary, st.sampled_from(["&", "|", "=>", "<=>"]), sub, sub),
        ),
        max_leaves=4,
    ),
    st.integers(0, 2**16).map(lambda n: random_closed_formula(random.Random(n), 1)),
)


# The clause cap, not the clock, stops the saturations that equality makes
# endless, so both sides reach the same ResourceOut.
SMALL_LIMITS = EngineLimits(timeout=10.0, max_domain_size=3, max_clause_count=300)


@given(premises=st.lists(_FORMULAS, min_size=1, max_size=3), conjecture=_FORMULAS)
def test_growing_session_agrees_with_uncached_prover(
    prover, model_finder, premises, conjecture
):
    """On small random theories, a session that asks the model finder first,
    and so grows every countermodel, answers each premise subset like the
    uncached prover: for the conjecture, then for every axiom goal, which the
    countermodels found so far may answer without an engine call."""
    t = Theory(
        tuple(AnnotatedFormula(f"a{i}", "axiom", f) for i, f in enumerate(premises))
        + (AnnotatedFormula("goal", "conjecture", conjecture),)
    )
    session = QuerySession(
        t, provers=[prover], counters=[model_finder], limits=SMALL_LIMITS
    )
    names = t.premise_names
    for goal in [("conjecture",)] + [("axiom", name) for name in names]:
        for k in range(len(names) + 1):
            for subset in itertools.combinations(names, k):
                want = _oracle(prover, t, subset, goal, SMALL_LIMITS)
                got = session.decide(frozenset(subset), prefer="counter", goal=goal)
                if want != Entailment.Undetermined:
                    assert got == want, (goal, subset)
