"""Analysis procedure tests: reproving, minima, independence, consistency."""

import pytest

from proofscope.analysis import (
    AnalysisError,
    Confirmation,
    IndependenceVerdict,
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
from proofscope.engines import EngineLimits
from proofscope.verdicts import Entailment, SzsStatus

from conftest import mk, prop_entails

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
        from proofscope.engines import ExternalEngine

        t = mk("fof(a1, axiom, p). fof(a2, axiom, q). fof(goal, conjecture, p).")
        # countersat stub has no derivation info; use a theorem stub citing nothing:
        engine = ExternalEngine(stub_spec("theorem", "--cite", "a1", engine_id="x"))
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
        report = consistency_triple(t, model_finder, LIMITS)
        assert report.axioms_only.outcome == "ModelFound"
        assert report.axioms_plus_conjecture.outcome == "ModelFound"
        assert report.axioms_plus_negated_conjecture.outcome == "ExhaustedUpTo"

    def test_countersatisfiable_toy(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        report = consistency_triple(t, model_finder, LIMITS)
        assert report.axioms_plus_negated_conjecture.outcome == "ModelFound"
        assert "countersatisfiable" in report.axioms_plus_negated_conjecture.reading

    def test_inconsistent_axioms(self, model_finder):
        t = mk("fof(a1, axiom, p). fof(a2, axiom, ~p).")
        report = consistency_triple(t, model_finder, LIMITS)
        assert report.axioms_only.outcome == "ExhaustedUpTo"
        assert report.axioms_plus_conjecture is None
        assert report.axioms_plus_negated_conjecture is None

    def test_puz001_rows(self, model_finder, puz001):
        report = consistency_triple(puz001, model_finder, EngineLimits(30, 4))
        assert report.axioms_only.outcome == "ModelFound"
        assert report.axioms_plus_conjecture.outcome == "ModelFound"
        assert report.axioms_plus_negated_conjecture.outcome == "ExhaustedUpTo"


class TestUnknownClassification:
    def test_undecided_queries_marked_unknown(self, model_finder):
        """With a prover that never answers, eliminable premises cannot be
        verified: they land in unknown, T* retains them, and the minima
        report refuses to claim exhaustiveness."""
        from conftest import stub_spec
        from proofscope.engines import ExternalEngine

        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        dead_prover = ExternalEngine(stub_spec("garbage", engine_id="dead"))
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
    def test_monotone_pruning_saves_calls(self, prover, model_finder):
        t = mk(
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        )
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        full = frozenset(t.premise_names)
        assert session.decide([frozenset({"a1", "a2"})], prefer="prove") == [Entailment.Proves]
        before = session.engine_calls
        # superset of a proving set: no engine call needed
        assert session.decide([full], prefer="prove") == [Entailment.Proves]
        assert session.engine_calls == before

    def test_exact_cache(self, prover, model_finder):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        session = QuerySession(t, provers=[prover], counters=[model_finder], limits=LIMITS)
        full = frozenset(t.premise_names)
        session.decide([full], prefer="prove")
        calls = session.engine_calls
        session.decide([full], prefer="prove")
        assert session.engine_calls == calls
