"""SZS status algebra: entailment classification, combination, extended statuses."""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .analysis import IndependenceReport, MinimaReport


class SzsStatus(str, Enum):
    """The SZS statuses proofscope reads (Sutcliffe 2008, "The SZS
    Ontologies for Automated Reasoning Software"); any other name parses as
    Unknown."""

    Theorem = "Theorem"
    ContradictoryAxioms = "ContradictoryAxioms"
    CounterSatisfiable = "CounterSatisfiable"
    CounterTheorem = "CounterTheorem"
    Satisfiable = "Satisfiable"
    Unsatisfiable = "Unsatisfiable"
    Timeout = "Timeout"
    GaveUp = "GaveUp"
    ResourceOut = "ResourceOut"
    MemoryOut = "MemoryOut"
    Error = "Error"
    Inappropriate = "Inappropriate"
    Unknown = "Unknown"

    @classmethod
    def parse(cls, token: str) -> "SzsStatus":
        try:
            return cls(token)
        except ValueError:
            return cls.Unknown


# Statuses backed by a refutation, whose derivation names the premises used.
PROOF_STATUSES = frozenset(
    {SzsStatus.Theorem, SzsStatus.Unsatisfiable, SzsStatus.ContradictoryAxioms}
)


class Entailment(str, Enum):
    Proves = "Proves"
    DoesNotProve = "DoesNotProve"
    Undetermined = "Undetermined"


class ProblemKind(str, Enum):
    has_conjecture = "has_conjecture"
    no_conjecture_unsat = "no_conjecture_unsat"


class ExtendedStatus(str, Enum):
    IndependentAxioms = "IndependentAxioms"
    DependentAxioms = "DependentAxioms"
    MinimalPremises = "MinimalPremises"
    NonMinimalPremises = "NonMinimalPremises"
    UniqueMinimum = "UniqueMinimum"
    MultipleIncomparableMinima = "MultipleIncomparableMinima"


class VerdictConflictError(Exception):
    """Two engines returned contradictory entailment judgments for one query.

    This signals an engine bug or an unsound configuration; the affected
    query must be aborted and the conflict surfaced.
    """


def classify(s: SzsStatus, kind: ProblemKind) -> Entailment:
    """Map an engine status to an entailment judgment for the given problem kind.

    Contradictory axioms prove any goal.  A CounterTheorem (the negated
    conjecture follows) implies CounterSatisfiable.  Resource-limited, failed
    and mismatched statuses never classify as decisive.
    """
    if s == SzsStatus.ContradictoryAxioms:
        return Entailment.Proves
    if kind == ProblemKind.has_conjecture:
        if s == SzsStatus.Theorem:
            return Entailment.Proves
        if s in (SzsStatus.CounterSatisfiable, SzsStatus.CounterTheorem):
            return Entailment.DoesNotProve
    else:
        if s == SzsStatus.Unsatisfiable:
            return Entailment.Proves
        if s == SzsStatus.Satisfiable:
            return Entailment.DoesNotProve
    return Entailment.Undetermined


def combine(verdicts: Iterable[Entailment]) -> Entailment:
    """Aggregate entailment judgments for one query across engines."""
    saw_proves = False
    saw_refutes = False
    for v in verdicts:
        if v == Entailment.Proves:
            saw_proves = True
        elif v == Entailment.DoesNotProve:
            saw_refutes = True
    if saw_proves and saw_refutes:
        raise VerdictConflictError(
            "engines disagree: one claims Proves, another DoesNotProve"
        )
    if saw_proves:
        return Entailment.Proves
    if saw_refutes:
        return Entailment.DoesNotProve
    return Entailment.Undetermined


def extended_statuses(
    minima: "Optional[MinimaReport]",
    indep: "Optional[IndependenceReport]",
    premise_count: int,
) -> list[ExtendedStatus]:
    """Derive the extended problem statuses from analysis reports.

    UniqueMinimum is only claimed when the minima search was exhaustive;
    two or more verified minima justify MultipleIncomparableMinima on their
    own, since members of a minima report are pairwise incomparable.
    """
    out: list[ExtendedStatus] = []
    if indep is not None:
        if indep.verdict == "Independent":
            out.append(ExtendedStatus.IndependentAxioms)
        elif indep.verdict == "Dependent":
            out.append(ExtendedStatus.DependentAxioms)
    if minima is not None and minima.minima:
        if any(len(m) < premise_count for m in minima.minima):
            out.append(ExtendedStatus.NonMinimalPremises)
        else:
            out.append(ExtendedStatus.MinimalPremises)
        if len(minima.minima) == 1 and minima.exhaustive:
            out.append(ExtendedStatus.UniqueMinimum)
        elif len(minima.minima) >= 2:
            out.append(ExtendedStatus.MultipleIncomparableMinima)
    return out
