"""Premise analysis: reproving, needed-premise classification, minima
enumeration, independence checking, and the consistency triple check."""

from __future__ import annotations

import itertools
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .engines import EngineLimits, EngineVerdict
from .modelfinder import model_to_tables, model_to_text
from .tptp import AnnotatedFormula, Theory
from .verdicts import Entailment, ProblemKind, SzsStatus, classify, combine


class AnalysisError(Exception):
    """The analysis cannot proceed (bad inputs, undecidable oracle query)."""


class Confirmation(str, Enum):
    ConfirmedMinimum = "ConfirmedMinimum"
    NotSufficient = "NotSufficient"
    Undetermined = "Undetermined"


class IndependenceVerdict(str, Enum):
    Independent = "Independent"
    Dependent = "Dependent"
    Inconclusive = "Inconclusive"


@dataclass
class ReproveTrace:
    """Stages of a syntactic reprove run: (premise names, verdict) per round."""

    stages: list[tuple[tuple[str, ...], EngineVerdict]]
    fixpoint_reached: bool

    @property
    def final_premises(self) -> tuple[str, ...]:
        return self.stages[-1][0] if self.stages else ()


@dataclass
class NeededClassification:
    needed: frozenset[str]
    eliminable: frozenset[str]
    unknown: frozenset[str]

    @property
    def approximate(self) -> bool:
        return bool(self.unknown)


@dataclass
class MinimaReport:
    minima: tuple[frozenset[str], ...]
    exhaustive: bool
    budget_spent: int  # engine calls consumed by the search

    def __post_init__(self) -> None:
        for a, b in itertools.combinations(self.minima, 2):
            if a <= b or b <= a:
                raise ValueError("minima must be pairwise incomparable")


@dataclass
class IndependenceReport:
    verdict: IndependenceVerdict
    witness: tuple[str, frozenset[str]] | None
    per_axiom: dict[str, Entailment]

    def __post_init__(self) -> None:
        if self.verdict == IndependenceVerdict.Dependent and self.witness is None:
            raise ValueError("Dependent verdict requires a witness")


@dataclass
class ConsistencyCheck:
    label: str
    engine_id: str
    outcome: str  # ModelFound | ExhaustedUpTo | Unsatisfiable | ResourceOut | Unknown
    reading: str
    budget: float
    domain_size: int | None = None
    exhausted_size: int | None = None
    model_text: str | None = None
    model_tables: dict | None = None


@dataclass
class ConsistencyReport:
    axioms_only: ConsistencyCheck
    axioms_plus_conjecture: ConsistencyCheck | None
    axioms_plus_negated_conjecture: ConsistencyCheck | None


GOAL_CONJECTURE = ("conjecture",)
GOAL_UNSAT = ("unsat",)


class QuerySession:
    """Dispatches entailment queries to engines with caching and pruning.

    The cache is keyed by (goal, premise-name set, engine); decided queries
    additionally feed monotonicity pruning: a superset of a proving set
    proves, a subset of a non-proving set does not prove.  Cache hits and
    pruned queries consume no engine calls, so reports are deterministic for
    a fixed query issue order.
    """

    def __init__(
        self,
        theory: Theory,
        provers: Sequence = (),
        counters: Sequence = (),
        limits: EngineLimits | None = None,
        parallelism: int = 1,
        unsat_mode: bool = False,
    ):
        self.theory = theory
        self.provers = list(provers)
        self.counters = list(counters)
        self.limits = limits or EngineLimits()
        self.parallelism = max(1, parallelism)
        self.unsat_mode = unsat_mode
        self.engine_calls = 0
        self._verdicts: dict[tuple, EngineVerdict] = {}
        self._entailments: dict[tuple, Entailment] = {}
        self._proving: dict[tuple, list[frozenset[str]]] = {}
        self._not_proving: dict[tuple, list[frozenset[str]]] = {}

    # -- query construction -------------------------------------------------

    def kind_for(self, goal: tuple) -> ProblemKind:
        if goal == GOAL_UNSAT:
            return ProblemKind.no_conjecture_unsat
        return ProblemKind.has_conjecture

    def query_theory(self, names: frozenset[str], goal: tuple) -> Theory:
        if goal == GOAL_UNSAT:
            return self.theory.restrict(names).without_conjecture()
        if goal == GOAL_CONJECTURE:
            if self.theory.conjecture is None:
                raise AnalysisError("theory has no conjecture")
            return self.theory.restrict(names)
        # goal = ("axiom", name): derive that axiom from the given premises.
        target = self.theory[goal[1]]
        premises = tuple(
            f for f in self.theory.premises if f.name in names and f.name != target.name
        )
        conj = AnnotatedFormula(target.name, "conjecture", target.formula, target.source)
        return Theory(premises + (conj,), origin=self.theory.origin)

    def default_goal(self) -> tuple:
        return GOAL_UNSAT if self.unsat_mode else GOAL_CONJECTURE

    # -- engine invocation ---------------------------------------------------

    def run_engine(
        self, names: frozenset[str], engine, goal: tuple | None = None
    ) -> EngineVerdict:
        """One engine's verdict on "do these premises yield the goal?"."""
        return self._run([(names, engine)], goal or self.default_goal())[0]

    def _run(
        self, queries: list[tuple[frozenset[str], object]], goal: tuple
    ) -> list[EngineVerdict]:
        """Verdicts for (names, engine) pairs, in order.  Pairs not cached yet
        run once each, on the thread pool when there are several."""
        keys = [(goal, names, engine.id) for names, engine in queries]
        fresh = {k: q for k, q in zip(keys, queries) if k not in self._verdicts}

        def call(query):
            names, engine = query
            return engine.run(self.query_theory(names, goal), self.limits)

        if len(fresh) > 1 and self.parallelism > 1:
            with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                verdicts = list(pool.map(call, fresh.values()))
        else:
            verdicts = map(call, fresh.values())
        kind = self.kind_for(goal)
        for (key, (names, _)), verdict in zip(fresh.items(), verdicts):
            self.engine_calls += 1
            self._verdicts[key] = verdict
            self._note(goal, names, classify(verdict.status, kind))
        return [self._verdicts[k] for k in keys]

    # -- entailment decisions -------------------------------------------------

    def _note(self, goal: tuple, names: frozenset[str], ent: Entailment) -> None:
        if ent == Entailment.Proves:
            self._proving.setdefault(goal, []).append(names)
        elif ent == Entailment.DoesNotProve:
            self._not_proving.setdefault(goal, []).append(names)

    def _monotone(self, goal: tuple, names: frozenset[str]) -> Entailment | None:
        for known in self._proving.get(goal, ()):
            if known <= names:
                return Entailment.Proves
        for known in self._not_proving.get(goal, ()):
            if names <= known:
                return Entailment.DoesNotProve
        return None

    def _known(self, goal: tuple, names: frozenset[str]) -> Entailment | None:
        """The cached or monotonicity-implied answer, if any; no engine runs."""
        cached = self._entailments.get((goal, names))
        return cached if cached is not None else self._monotone(goal, names)

    def decide(
        self,
        query_sets: Sequence[frozenset[str]],
        prefer: str = "prove",
        goal: tuple | None = None,
    ) -> list[Entailment]:
        """Combined entailment for "do these premises yield the goal?", per set.

        prefer picks which engine group goes first: "prove" for derivability
        checks, "counter" when a countermodel is the expected answer.  Every
        engine in a phase is consulted and the verdicts are combined, so
        contradicting engines are detected within a phase.  With parallelism,
        the first phase of every still-open set runs up front on the pool.
        """
        goal = goal or self.default_goal()
        phases = (
            [self.counters, self.provers]
            if prefer == "counter"
            else [self.provers, self.counters]
        )
        if self.parallelism > 1:
            pending = [names for names in query_sets if self._known(goal, names) is None]
            self._run([(names, e) for names in pending for e in phases[0]], goal)
        return [self._decide_one(names, phases, goal) for names in query_sets]

    def _decide_one(self, names: frozenset[str], phases: list, goal: tuple) -> Entailment:
        result = self._known(goal, names)
        if result is None:
            kind = self.kind_for(goal)
            collected: list[Entailment] = []
            result = Entailment.Undetermined
            for phase in phases:
                if not phase:
                    continue
                verdicts = self._run([(names, e) for e in phase], goal)
                collected.extend(classify(v.status, kind) for v in verdicts)
                result = combine(collected)
                if result != Entailment.Undetermined:
                    self._note(goal, names, result)
                    break
        self._entailments[(goal, names)] = result
        return result


# ---------------------------------------------------------------------------
# Reproving


def syntactic_reprove(session: QuerySession, engine) -> ReproveTrace:
    """Iterate the prover, restricting to the premises used in each round.

    Stops at a fixpoint (used premises equal the current set) or as soon as a
    round fails to prove.  Engines that report no used-premise information
    yield a single-stage trace: no trimming information means the whole
    current set counts as used.
    """
    goal = session.default_goal()
    kind = session.kind_for(goal)
    current: tuple[str, ...] = session.theory.premise_names
    stages: list[tuple[tuple[str, ...], EngineVerdict]] = []
    while True:
        verdict = session.run_engine(frozenset(current), engine, goal)
        stages.append((current, verdict))
        if classify(verdict.status, kind) != Entailment.Proves:
            return ReproveTrace(stages, fixpoint_reached=False)
        if not verdict.has_premise_info:
            return ReproveTrace(stages, fixpoint_reached=True)
        used = verdict.used_premises & set(current)
        if used == set(current):
            return ReproveTrace(stages, fixpoint_reached=True)
        current = tuple(n for n in current if n in used)


def classify_needed(session: QuerySession) -> NeededClassification:
    """Classify each premise by what deleting it (keeping the rest) does.

    A verified countermodel for the deletion makes the premise needed; a
    verified proof without it makes it eliminable; anything else is unknown.
    The analyzed set is exactly the session theory's premises, so callers
    control the starting set by building the session over a restricted theory.
    """
    names = session.theory.premise_names
    full = frozenset(names)
    entailments = session.decide([full - {n} for n in names], prefer="counter")
    needed, eliminable, unknown = set(), set(), set()
    for name, ent in zip(names, entailments):
        if ent == Entailment.DoesNotProve:
            needed.add(name)
        elif ent == Entailment.Proves:
            eliminable.add(name)
        else:
            unknown.add(name)
    return NeededClassification(
        frozenset(needed), frozenset(eliminable), frozenset(unknown)
    )


def semantic_reprove(session: QuerySession) -> tuple[NeededClassification, Confirmation]:
    """Compute the needed set and check whether it still yields the goal.

    Unknown premises are retained alongside the needed ones for the
    confirmation check; deleting a premise on an unverified judgment would
    be unsound.  NotSufficient signals multiple incomparable minima.
    """
    cls = classify_needed(session)
    [ent] = session.decide([cls.needed | cls.unknown], prefer="prove")
    if ent == Entailment.Proves:
        confirmation = Confirmation.ConfirmedMinimum
    elif ent == Entailment.DoesNotProve:
        confirmation = Confirmation.NotSufficient
    else:
        confirmation = Confirmation.Undetermined
    return cls, confirmation


# ---------------------------------------------------------------------------
# Minima


def enumerate_minima(
    session: QuerySession, cls: NeededClassification, subset_budget: int = 4096
) -> MinimaReport:
    """Search candidate subsets needed ∪ E over E ⊆ eliminable for minima.

    Candidates are visited in ascending size, then lexicographically by
    premise declaration order; supersets of found minima and subsets of sets
    already shown insufficient are pruned.  Unknown premises are treated as
    needed and make the report non-exhaustive.
    """
    order = {name: i for i, name in enumerate(session.theory.premise_names)}
    core = frozenset(cls.needed | cls.unknown)
    eliminable = sorted(cls.eliminable, key=order.get)
    exhaustive = not cls.unknown
    found: list[frozenset[str]] = []
    calls_start = session.engine_calls
    budget_left = lambda: session.engine_calls - calls_start < subset_budget  # noqa: E731

    stopped = False
    for k in range(len(eliminable) + 1):
        if stopped:
            break
        for extra in itertools.combinations(eliminable, k):
            candidate = core | frozenset(extra)
            if any(m <= candidate for m in found):
                continue
            if not budget_left():
                exhaustive = False
                stopped = True
                break
            [ent] = session.decide([candidate], prefer="prove")
            if ent == Entailment.Undetermined:
                exhaustive = False
                continue
            if ent == Entailment.DoesNotProve:
                continue
            # Sufficient; verify minimality through single deletions.
            minimal = True
            for name in sorted(candidate, key=order.get):
                [sub_ent] = session.decide([candidate - {name}], prefer="counter")
                if sub_ent == Entailment.Proves:
                    minimal = False
                    break
                if sub_ent == Entailment.Undetermined:
                    minimal = False
                    exhaustive = False
                    break
            if minimal:
                found.append(candidate)
    return MinimaReport(tuple(found), exhaustive, session.engine_calls - calls_start)


def brute_force_minima(t: Theory, prover, limits: EngineLimits) -> MinimaReport:
    """Testing oracle: decide every premise subset and return the exact minima.

    Deliberately shares nothing with enumerate_minima: no cache, no pruning,
    no monotonicity assumptions.  Raises when the prover cannot decide a
    subset, since an undecided oracle is no oracle.
    """
    names = t.premise_names
    n = len(names)
    if n > 12:
        raise AnalysisError(f"brute force guarded to 12 premises, got {n}")
    unsat_mode = t.conjecture is None
    kind = ProblemKind.no_conjecture_unsat if unsat_mode else ProblemKind.has_conjecture
    sufficient = [False] * (1 << n)
    calls = 0
    for mask in range(1 << n):
        subset = frozenset(names[i] for i in range(n) if mask >> i & 1)
        sub_theory = t.restrict(subset)
        if unsat_mode:
            sub_theory = sub_theory.without_conjecture()
        verdict = prover.run(sub_theory, limits)
        calls += 1
        ent = classify(verdict.status, kind)
        if ent == Entailment.Undetermined:
            raise AnalysisError(
                f"oracle query undecided for subset {sorted(subset)} "
                f"(status {verdict.status.value})"
            )
        sufficient[mask] = ent == Entailment.Proves
    minima: list[frozenset[str]] = []
    for mask in range(1 << n):
        if not sufficient[mask]:
            continue
        sub = (mask - 1) & mask
        minimal = True
        while sub:
            if sufficient[sub]:
                minimal = False
                break
            sub = (sub - 1) & mask
        # The submask loop never visits the empty set; account for it here.
        if mask != 0 and sufficient[0]:
            minimal = False
        if minimal:
            minima.append(frozenset(names[i] for i in range(n) if mask >> i & 1))
    order = {name: i for i, name in enumerate(names)}
    minima.sort(key=lambda m: (len(m), sorted(order[x] for x in m)))
    return MinimaReport(tuple(minima), exhaustive=True, budget_spent=calls)


# ---------------------------------------------------------------------------
# Independence
#
# The axioms are the session theory's premises; its conjecture, if any, is
# never queried.


def _axiom_goal(name: str) -> tuple:
    return ("axiom", name)


def independence_naive(session: QuerySession) -> IndependenceReport:
    """For each axiom, ask whether the remaining axioms derive it.

    Underivability is preferred from the counter engine (a model of the rest
    plus the negated axiom); n queries total.
    """
    names = session.theory.premise_names
    if not names:
        raise AnalysisError("independence needs at least one axiom")
    per_axiom: dict[str, Entailment] = {}
    witness: tuple[str, frozenset[str]] | None = None
    for name in names:
        others = frozenset(names) - {name}
        [ent] = session.decide([others], prefer="counter", goal=_axiom_goal(name))
        per_axiom[name] = ent
        if ent == Entailment.Proves and witness is None:
            witness = (name, others)
    if witness is not None:
        verdict = IndependenceVerdict.Dependent
    elif all(e == Entailment.DoesNotProve for e in per_axiom.values()):
        verdict = IndependenceVerdict.Independent
    else:
        verdict = IndependenceVerdict.Inconclusive
    return IndependenceReport(verdict, witness, per_axiom)


def independence_failfast(
    session: QuerySession, max_subset_size: int | None = None
) -> IndependenceReport:
    """Try small subsets first: for k = 1.. test every size-k subset of the
    other axioms against each axiom, returning the first derivation found."""
    names = session.theory.premise_names
    if len(names) < 2:
        raise AnalysisError("fail-fast independence needs at least two axioms")
    limit = max_subset_size if max_subset_size is not None else len(names) - 1
    per_axiom: dict[str, Entailment] = {}
    undetermined = False
    for k in range(1, limit + 1):
        for name in names:
            others = [m for m in names if m != name]
            for combo in itertools.combinations(others, k):
                subset = frozenset(combo)
                [ent] = session.decide([subset], prefer="prove", goal=_axiom_goal(name))
                if ent == Entailment.Proves:
                    per_axiom[name] = Entailment.Proves
                    return IndependenceReport(
                        IndependenceVerdict.Dependent, (name, subset), per_axiom
                    )
                if ent == Entailment.Undetermined:
                    undetermined = True
    # A truncated subset-size sweep cannot certify independence: a larger
    # subset might still derive some axiom.
    complete = limit >= len(names) - 1 and not undetermined
    for name in names:
        per_axiom.setdefault(
            name, Entailment.DoesNotProve if complete else Entailment.Undetermined
        )
    verdict = (
        IndependenceVerdict.Independent if complete else IndependenceVerdict.Inconclusive
    )
    return IndependenceReport(verdict, None, per_axiom)


def independence_random(session: QuerySession, trials: int, seed: int) -> IndependenceReport:
    """Randomized probing: pick an axiom and a random nonempty subset of the
    others, test derivability.  Never concludes Independent."""
    if trials < 1:
        raise AnalysisError("trials must be at least 1")
    names = session.theory.premise_names
    if not names:
        raise AnalysisError("independence needs at least one axiom")
    rng = random.Random(seed)
    per_axiom: dict[str, Entailment] = {}
    for _ in range(trials):
        name = names[rng.randrange(len(names))]
        others = [m for m in names if m != name]
        if not others:
            continue
        while True:
            chosen = [m for m in others if rng.random() < 0.5]
            if chosen:
                break
        subset = frozenset(chosen)
        [ent] = session.decide([subset], prefer="prove", goal=_axiom_goal(name))
        if ent == Entailment.Proves:
            per_axiom[name] = Entailment.Proves
            return IndependenceReport(
                IndependenceVerdict.Dependent, (name, subset), per_axiom
            )
    return IndependenceReport(IndependenceVerdict.Inconclusive, None, per_axiom)


# ---------------------------------------------------------------------------
# Consistency triple check


_CONSISTENCY_OUTCOMES = {
    SzsStatus.Satisfiable: "ModelFound",
    SzsStatus.CounterSatisfiable: "ModelFound",
    SzsStatus.Unsatisfiable: "Unsatisfiable",
    SzsStatus.Timeout: "ResourceOut",
    SzsStatus.ResourceOut: "ResourceOut",
}


def _consistency_check(
    label: str,
    t: Theory,
    finder,
    limits: EngineLimits,
    readings: dict[str, str],
) -> ConsistencyCheck:
    verdict = finder.run(t, limits)
    if verdict.status == SzsStatus.GaveUp and verdict.exhausted_size is not None:
        outcome = "ExhaustedUpTo"
    else:
        outcome = _CONSISTENCY_OUTCOMES.get(verdict.status, "Unknown")
    model = verdict.model
    return ConsistencyCheck(
        label=label,
        engine_id=finder.id,
        outcome=outcome,
        reading=readings.get(outcome, outcome),
        budget=limits.timeout,
        domain_size=model.domain_size if model else None,
        exhausted_size=verdict.exhausted_size,
        model_text=model_to_text(model) if model else None,
        model_tables=model_to_tables(model) if model else None,
    )


def consistency_triple(t: Theory, finder, limits: EngineLimits) -> ConsistencyReport:
    """Model-search the axioms alone, with the conjecture, and with its negation.

    The third check hands the finder t itself: a model of the axioms that
    falsifies the conjecture is a countermodel.
    """
    first = _consistency_check(
        "axioms",
        t.without_conjecture(),
        finder,
        limits,
        {
            "ModelFound": "axioms are consistent (finite model found)",
            "ExhaustedUpTo": "no finite model within bounds; axioms may be inconsistent",
            "Unsatisfiable": "axioms are inconsistent",
            "ResourceOut": "search ran out of resources",
        },
    )
    second = third = None
    conj = t.conjecture
    if conj is not None:
        as_axiom = AnnotatedFormula(conj.name, "axiom", conj.formula, conj.source)
        second = _consistency_check(
            "axioms plus conjecture",
            Theory(t.premises + (as_axiom,), origin=t.origin),
            finder,
            limits,
            {
                "ModelFound": "axioms plus conjecture are consistent",
                "ExhaustedUpTo": "no finite model within bounds for axioms plus conjecture",
                "Unsatisfiable": "conjecture contradicts the axioms",
                "ResourceOut": "search ran out of resources",
            },
        )
        third = _consistency_check(
            "axioms plus negated conjecture",
            t,
            finder,
            limits,
            {
                "ModelFound": "conjecture is countersatisfiable: not derivable from the axioms",
                "ExhaustedUpTo": "no countermodel within bounds; consistent with the conjecture being a theorem",
                "Unsatisfiable": "negated conjecture contradicts the axioms: conjecture is a theorem",
                "ResourceOut": "search ran out of resources",
            },
        )
    return ConsistencyReport(first, second, third)
