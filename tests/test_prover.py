"""Saturation prover tests: verdicts, used premises, determinism, limits."""

import pytest

from proofscope.engines import EngineLimits
from proofscope.modelfinder import ModelKind, find_model
from proofscope.logic import negate
from proofscope.prover import prove, refute
from proofscope.verdicts import SzsStatus

from conftest import mk, prop_entails, prop_satisfiable

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
        formulas.append(("$neg", negate(t.conjecture.formula)))
        out = find_model(formulas, EngineLimits(timeout=10, max_domain_size=2))
        assert out.kind == ModelKind.ModelFound

    def test_requires_conjecture(self):
        with pytest.raises(ValueError):
            prove(mk("fof(a1, axiom, p)."), LIMITS)

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
