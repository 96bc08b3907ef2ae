"""SZS status algebra tests."""

import itertools

import pytest

from proofscope.analysis import (
    IndependenceReport,
    IndependenceVerdict,
    MinimaReport,
)
from proofscope.engines import EngineVerdict
from proofscope.verdicts import (
    Entailment,
    ExtendedStatus,
    ProblemKind,
    SzsStatus,
    VerdictConflictError,
    classify,
    combine,
    extended_statuses,
)


class TestClassify:
    @pytest.mark.parametrize(
        "status,kind,expected",
        [
            (SzsStatus.Theorem, ProblemKind.has_conjecture, Entailment.Proves),
            (
                SzsStatus.CounterSatisfiable,
                ProblemKind.has_conjecture,
                Entailment.DoesNotProve,
            ),
            (SzsStatus.Timeout, ProblemKind.has_conjecture, Entailment.Undetermined),
            (
                SzsStatus.Unsatisfiable,
                ProblemKind.no_conjecture_unsat,
                Entailment.Proves,
            ),
            (
                SzsStatus.Satisfiable,
                ProblemKind.no_conjecture_unsat,
                Entailment.DoesNotProve,
            ),
            # mismatched statuses stay undetermined
            (SzsStatus.Satisfiable, ProblemKind.has_conjecture, Entailment.Undetermined),
            (SzsStatus.Theorem, ProblemKind.no_conjecture_unsat, Entailment.Undetermined),
        ],
    )
    def test_table(self, status, kind, expected):
        assert classify(status, kind) == expected

    def test_resource_statuses_never_decide(self):
        for status in (SzsStatus.Timeout, SzsStatus.GaveUp, SzsStatus.ResourceOut, SzsStatus.Unknown):
            for kind in ProblemKind:
                assert classify(status, kind) == Entailment.Undetermined

    def test_status_parse_total(self):
        assert SzsStatus.parse("Theorem") == SzsStatus.Theorem
        assert SzsStatus.parse("WeirdThing") == SzsStatus.Unknown


# Every status in both problem kinds: (with a conjecture, Unsatisfiable mode).
P, N, U = Entailment.Proves, Entailment.DoesNotProve, Entailment.Undetermined
SZS_TABLE = {
    "Theorem": (P, U),
    "ContradictoryAxioms": (P, P),
    "CounterSatisfiable": (N, U),
    "CounterTheorem": (N, U),
    "Satisfiable": (U, N),
    "Unsatisfiable": (U, P),
    "Timeout": (U, U),
    "GaveUp": (U, U),
    "ResourceOut": (U, U),
    "MemoryOut": (U, U),
    "Error": (U, U),
    "Inappropriate": (U, U),
    "Unknown": (U, U),
}


class TestSzsOntology:
    def test_table_covers_every_status(self):
        assert set(SZS_TABLE) == {s.value for s in SzsStatus}

    @pytest.mark.parametrize("name", SZS_TABLE)
    def test_parse_round_trip(self, name):
        assert SzsStatus.parse(name).value == name

    @pytest.mark.parametrize(
        "name,kind,expected",
        [
            (name, kind, row[i])
            for name, row in SZS_TABLE.items()
            for i, kind in enumerate(
                (ProblemKind.has_conjecture, ProblemKind.no_conjecture_unsat)
            )
        ],
    )
    def test_classify(self, name, kind, expected):
        assert classify(SzsStatus(name), kind) == expected

    @pytest.mark.parametrize("name", SZS_TABLE)
    def test_used_premises_only_with_a_proof(self, name):
        status = SzsStatus(name)
        if status in (
            SzsStatus.Theorem,
            SzsStatus.Unsatisfiable,
            SzsStatus.ContradictoryAxioms,
        ):
            EngineVerdict("e", status, used_premises=frozenset({"a1"}))
        else:
            with pytest.raises(ValueError):
                EngineVerdict("e", status, used_premises=frozenset({"a1"}))


class TestCombine:
    def test_proves_with_undetermined(self):
        assert combine([Entailment.Proves, Entailment.Undetermined]) == Entailment.Proves

    def test_all_undetermined(self):
        assert (
            combine([Entailment.Undetermined, Entailment.Undetermined])
            == Entailment.Undetermined
        )

    def test_empty(self):
        assert combine([]) == Entailment.Undetermined

    def test_conflict_raises(self):
        with pytest.raises(VerdictConflictError):
            combine([Entailment.Proves, Entailment.DoesNotProve])

    def test_commutative_associative(self):
        values = [Entailment.Proves, Entailment.DoesNotProve, Entailment.Undetermined]

        def safe(vs):
            try:
                return combine(vs)
            except VerdictConflictError:
                return "conflict"

        for triple in itertools.product(values, repeat=3):
            for perm in itertools.permutations(triple):
                assert safe(list(perm)) == safe(list(triple))


def _minima(sets, exhaustive=True):
    return MinimaReport(tuple(frozenset(s) for s in sets), exhaustive, 0)


def _indep(verdict):
    witness = ("a1", frozenset()) if verdict == IndependenceVerdict.Dependent else None
    return IndependenceReport(verdict, witness, {})


class TestExtendedStatuses:
    def test_unique_minimum_proper_subset(self):
        out = extended_statuses(_minima([{"a1", "a2"}]), None, premise_count=5)
        assert ExtendedStatus.UniqueMinimum in out
        assert ExtendedStatus.NonMinimalPremises in out

    def test_multiple_incomparable(self):
        out = extended_statuses(_minima([{"a1"}, {"a2"}]), None, premise_count=3)
        assert ExtendedStatus.MultipleIncomparableMinima in out
        assert ExtendedStatus.UniqueMinimum not in out

    def test_full_set_is_minimal(self):
        out = extended_statuses(_minima([{"a1", "a2", "a3"}]), None, premise_count=3)
        assert ExtendedStatus.MinimalPremises in out
        assert ExtendedStatus.NonMinimalPremises not in out
        assert ExtendedStatus.UniqueMinimum in out

    def test_non_exhaustive_blocks_unique_claim(self):
        out = extended_statuses(_minima([{"a1"}], exhaustive=False), None, premise_count=3)
        assert ExtendedStatus.UniqueMinimum not in out
        assert ExtendedStatus.NonMinimalPremises in out

    def test_independence_statuses(self):
        assert extended_statuses(None, _indep(IndependenceVerdict.Independent), 3) == [
            ExtendedStatus.IndependentAxioms
        ]
        assert extended_statuses(None, _indep(IndependenceVerdict.Dependent), 3) == [
            ExtendedStatus.DependentAxioms
        ]
        assert extended_statuses(None, _indep(IndependenceVerdict.Inconclusive), 3) == []

    def test_minima_pairwise_incomparable_enforced(self):
        with pytest.raises(ValueError):
            MinimaReport((frozenset({"a"}), frozenset({"a", "b"})), True, 0)
