"""Premise analysis: reproving, needed-premise classification, minima
enumeration, independence checking, and the consistency triple check."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .engines import EngineLimits, EngineVerdict
from .clauses import formula_signature
from .logic import Binary, Formula, Interpretation, Not, Quantified, evaluate
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
    """The model finder's verdict on one check and the outcome read from it."""

    verdict: EngineVerdict
    outcome: str  # ModelFound | ExhaustedUpTo | Unsatisfiable | ResourceOut | Unknown


@dataclass
class ConsistencyReport:
    axioms_only: ConsistencyCheck
    axioms_plus_conjecture: ConsistencyCheck | None
    axioms_plus_negated_conjecture: ConsistencyCheck | None


GOAL_CONJECTURE = ("conjecture",)
GOAL_UNSAT = ("unsat",)

# Growing a non-proving set evaluates premises in a countermodel.  A premise
# whose deepest quantifier path binds k variables costs about domain_size ** k
# assignments; above this many it is left out of the grown set.
GROW_EVAL_CAP = 4096

# The engine calls enumerate_minima may make unless its caller sets a budget.
DEFAULT_SUBSET_BUDGET = 4096


def _bound_depth(f: Formula) -> int:
    """Variables bound along the formula's deepest quantifier path."""
    if isinstance(f, Quantified):
        return len(f.variables) + _bound_depth(f.body)
    if isinstance(f, Binary):
        return max(_bound_depth(f.left), _bound_depth(f.right))
    if isinstance(f, Not):
        return _bound_depth(f.body)
    return 0


class QuerySession:
    """The one path from an analysis to an engine, with caching and pruning.

    Its one cache holds engine verdicts, keyed by (goal, premise-name set,
    engine).  Decided verdicts feed monotonicity pruning: a superset of a
    proving set proves, a subset of a non-proving set does not prove; a set
    no engine decided is re-combined from the cache.  When a verdict marks its
    used premises as exact, the proving set recorded is the part of the query
    set the proof used, not the whole query set.  When a verdict carries a
    finite model of the query set (and of the negated goal), the non-proving
    set recorded is grown to every premise of the theory that is true in that
    model, with symbols the model lacks read as predicates true everywhere
    and functions constantly 0.  The grown set is also recorded as
    non-proving for every axiom goal whose premise is false in the extended
    model.  Only the built-in model finder hands back a model, so external
    engines never grow.  A theory without a conjecture is an
    Unsatisfiable-mode task: the default goal refutes its premises.  Cache
    hits and pruned queries consume no engine calls, so reports are
    deterministic for a fixed order of queries.  A symbol used at two arities
    is an input error (ValueError), raised when the session is built.
    """

    def __init__(
        self,
        theory: Theory,
        provers: Sequence = (),
        counters: Sequence = (),
        limits: EngineLimits | None = None,
    ):
        self.theory = theory
        self.provers = list(provers)
        self.counters = list(counters)
        self.limits = limits or EngineLimits()
        self.engine_calls = 0
        self._verdicts: dict[tuple, EngineVerdict] = {}
        self._proving: dict[tuple, list[frozenset[str]]] = {}
        self._not_proving: dict[tuple, list[frozenset[str]]] = {}
        # Symbol arities and quantifier depths for growing non-proving sets.
        self._preds, self._funcs = formula_signature(f.formula for f in theory.formulas)
        self._depth = {p.name: _bound_depth(p.formula) for p in theory.premises}

    # -- query construction -------------------------------------------------

    def kind_for(self, goal: tuple) -> ProblemKind:
        if goal == GOAL_UNSAT:
            return ProblemKind.no_conjecture_unsat
        return ProblemKind.has_conjecture

    def query_theory(self, names: frozenset[str], goal: tuple) -> Theory:
        t = self.theory.restrict(names)
        c = t.conjecture
        if goal == GOAL_UNSAT:
            # Refute the named formulas: a named conjecture joins them as an
            # axiom, after the premises.
            if c is None:
                return t
            if c.name not in names:
                return t.without_conjecture()
            as_axiom = AnnotatedFormula(c.name, "axiom", c.formula, c.source)
            return Theory(t.premises + (as_axiom,))
        if goal == GOAL_CONJECTURE:
            if c is None:
                raise AnalysisError("theory has no conjecture")
            return t
        # goal = ("axiom", name): derive that axiom from the given premises.
        return t.with_conjecture(self.theory[goal[1]])

    def default_goal(self) -> tuple:
        return GOAL_UNSAT if self.theory.conjecture is None else GOAL_CONJECTURE

    # -- engine invocation ---------------------------------------------------

    def run_engine(
        self, names: frozenset[str], engine, goal: tuple | None = None
    ) -> EngineVerdict:
        """One engine's verdict on "do these premises yield the goal?".  Each
        (goal, premise set, engine id) runs the engine once; later asks read
        the cache."""
        goal = goal or self.default_goal()
        key = (goal, names, engine.id)
        if key in self._verdicts:
            return self._verdicts[key]
        verdict = engine.run(self.query_theory(names, goal), self.limits)
        self.engine_calls += 1
        self._verdicts[key] = verdict
        ent = classify(verdict.status, self.kind_for(goal))
        recorded = names
        if ent == Entailment.Proves and verdict.premises_exact:
            # The premises the proof used prove the goal on their own.
            recorded = verdict.used_premises & names
        elif ent == Entailment.DoesNotProve and verdict.model is not None:
            recorded, refuted = self._grow(names, verdict.model)
            # An axiom goal's query drops its target from the premises, so the
            # model falsifies the target even when names holds it: other goals
            # get the grown set without it.
            held = recorded - {goal[1]} if goal[0] == "axiom" else recorded
            for name in refuted:
                self._note(_axiom_goal(name), held, ent)
        self._note(goal, recorded, ent)
        return verdict

    def _grow(
        self, names: frozenset[str], model: Interpretation
    ) -> tuple[frozenset[str], list[str]]:
        """names plus every other premise true in the model, extended to the
        theory's signature, and the list of those false in it.  The goal's
        symbols are interpreted by the model already, so the extension is a
        model of the grown set and the negated goal; an ("axiom", name) target
        is false in it and never added.  The grown set is also recorded as
        non-proving for every axiom goal whose premise is false in the
        extended model, which is a model of that premise's negation too."""
        n = model.domain_size
        candidates = [
            p
            for p in self.theory.premises
            if p.name not in names and n ** self._depth[p.name] <= GROW_EVAL_CAP
        ]
        if not candidates:
            return names, []

        def table(tables: dict, name: str, arity: int, default):
            # A table of another arity is a Skolem function that the
            # clausifier named like a symbol outside the query.
            known = tables.get(name)
            if known is not None and len(next(iter(known))) == arity:
                return known
            return dict.fromkeys(itertools.product(range(n), repeat=arity), default)

        extended = Interpretation(
            n,
            {s: table(model.predicates, s, a, True) for s, a in self._preds.items()},
            {s: table(model.functions, s, a, 0) for s, a in self._funcs.items()},
        )
        true, false = [], []
        for p in candidates:
            (true if evaluate(extended, p.formula) else false).append(p.name)
        return names | frozenset(true), false

    # -- entailment decisions -------------------------------------------------

    def _note(self, goal: tuple, names: frozenset[str], ent: Entailment) -> None:
        """Record a decided set.  Each list stays an antichain: a set that an
        entry already implies is not added, and the entries the new set
        implies are dropped."""
        if ent == Entailment.Proves:
            known, implies = self._proving.setdefault(goal, []), frozenset.__le__
        elif ent == Entailment.DoesNotProve:
            known, implies = self._not_proving.setdefault(goal, []), frozenset.__ge__
        else:
            return
        if not any(implies(k, names) for k in known):
            known[:] = [k for k in known if not implies(names, k)]
            known.append(names)

    def _monotone(self, goal: tuple, names: frozenset[str]) -> Entailment | None:
        for known in self._proving.get(goal, ()):
            if known <= names:
                return Entailment.Proves
        for known in self._not_proving.get(goal, ()):
            if names <= known:
                return Entailment.DoesNotProve
        return None

    def decide(
        self, names: frozenset[str], prefer: str = "prove", goal: tuple | None = None
    ) -> Entailment:
        """Combined entailment for "do these premises yield the goal?".

        prefer picks which engine group goes first: "prove" for derivability
        checks, "counter" when a countermodel is the expected answer.  Every
        engine in a phase is consulted and the verdicts are combined, so
        contradicting engines are detected within a phase.
        """
        goal = goal or self.default_goal()
        result = self._monotone(goal, names)
        if result is not None:
            return result
        phases = (
            [self.counters, self.provers]
            if prefer == "counter"
            else [self.provers, self.counters]
        )
        kind = self.kind_for(goal)
        collected: list[Entailment] = []
        for phase in phases:
            collected.extend(
                classify(self.run_engine(names, engine, goal).status, kind) for engine in phase
            )
            if combine(collected) != Entailment.Undetermined:
                break
        return combine(collected)


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
    needed, eliminable, unknown = set(), set(), set()
    for name in names:
        ent = session.decide(full - {name}, prefer="counter")
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
    ent = session.decide(cls.needed | cls.unknown, prefer="prove")
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
    session: QuerySession, cls: NeededClassification, subset_budget: int = DEFAULT_SUBSET_BUDGET
) -> MinimaReport:
    """Search candidate subsets needed ∪ E over E ⊆ eliminable for minima.

    Candidates are visited in ascending size, then lexicographically by
    premise declaration order; supersets of found minima and subsets of sets
    already shown insufficient are pruned.  Unknown premises are treated as
    needed and make the report non-exhaustive.  Candidates go to the model
    finder first: most do not prove, and a countermodel grows the set shown
    insufficient.
    """
    theory = session.theory
    core = frozenset(cls.needed | cls.unknown)
    eliminable = theory.ordered(cls.eliminable)
    candidates = (
        core | frozenset(extra)
        for k in range(len(eliminable) + 1)
        for extra in itertools.combinations(eliminable, k)
    )
    exhaustive = not cls.unknown
    found: list[frozenset[str]] = []
    calls_start = session.engine_calls
    for candidate in candidates:
        if any(m <= candidate for m in found):
            continue
        if session.engine_calls - calls_start >= subset_budget:
            exhaustive = False
            break
        ent = session.decide(candidate, prefer="counter")
        if ent == Entailment.Undetermined:
            exhaustive = False
        if ent != Entailment.Proves:
            continue
        # Sufficient; minimal if no single deletion proves.
        for name in theory.ordered(candidate):
            sub_ent = session.decide(candidate - {name}, prefer="counter")
            if sub_ent == Entailment.Undetermined:
                exhaustive = False
            if sub_ent != Entailment.DoesNotProve:
                break
        else:
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
    kind = ProblemKind.no_conjecture_unsat if t.conjecture is None else ProblemKind.has_conjecture
    sufficient = [False] * (1 << n)
    calls = 0
    for mask in range(1 << n):
        subset = frozenset(names[i] for i in range(n) if mask >> i & 1)
        verdict = prover.run(t.restrict(subset), limits)
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
        ent = session.decide(others, prefer="counter", goal=_axiom_goal(name))
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
    other axioms against each axiom, returning the first derivation found.
    Probes go to the model finder first, since most fail."""
    names = session.theory.premise_names
    if len(names) < 2:
        raise AnalysisError("fail-fast independence needs at least two axioms")
    if max_subset_size is not None and max_subset_size < 1:
        raise AnalysisError("max subset size must be at least 1")
    limit = max_subset_size if max_subset_size is not None else len(names) - 1
    per_axiom: dict[str, Entailment] = {}
    undetermined = False
    for k in range(1, limit + 1):
        for name in names:
            others = [m for m in names if m != name]
            for combo in itertools.combinations(others, k):
                subset = frozenset(combo)
                ent = session.decide(subset, prefer="counter", goal=_axiom_goal(name))
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
    others, test derivability (model finder first).  Never concludes
    Independent."""
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
        ent = session.decide(subset, prefer="counter", goal=_axiom_goal(name))
        if ent == Entailment.Proves:
            per_axiom[name] = Entailment.Proves
            return IndependenceReport(
                IndependenceVerdict.Dependent, (name, subset), per_axiom
            )
    return IndependenceReport(IndependenceVerdict.Inconclusive, None, per_axiom)


# ---------------------------------------------------------------------------
# Consistency triple check


def consistency_triple(session: QuerySession) -> ConsistencyReport:
    """Model-search the axioms alone, with the conjecture, and with its negation.

    All three checks go to the session's first model finder.  The third asks
    whether the premises yield the conjecture: a model of the axioms that
    falsifies the conjecture is a countermodel.  Each verdict is read by
    classify under its goal's problem kind.
    """
    if not session.counters:
        raise AnalysisError("consistency checking needs a model-finding engine")
    finder = session.counters[0]
    premises = frozenset(session.theory.premise_names)

    def check(names: frozenset[str], goal: tuple) -> ConsistencyCheck:
        verdict = session.run_engine(names, finder, goal)
        ent = classify(verdict.status, session.kind_for(goal))
        if ent == Entailment.Proves:
            outcome = "Unsatisfiable"
        elif ent == Entailment.DoesNotProve:
            outcome = "ModelFound"
        elif verdict.exhausted_size is not None:
            outcome = "ExhaustedUpTo"
        elif verdict.status in (SzsStatus.Timeout, SzsStatus.ResourceOut):
            outcome = "ResourceOut"
        else:
            outcome = "Unknown"
        return ConsistencyCheck(verdict, outcome)

    conj = session.theory.conjecture
    if conj is None:
        return ConsistencyReport(check(premises, GOAL_UNSAT), None, None)
    return ConsistencyReport(
        check(premises, GOAL_UNSAT),
        check(premises | {conj.name}, GOAL_UNSAT),
        check(premises, GOAL_CONJECTURE),
    )
