"""Given-clause refutation prover (binary resolution + positive factoring).

Clause selection picks the lowest-weight unprocessed clause with FIFO
tie-break by age, and on every PICK_GIVEN_RATIO-th pick the oldest.  A
generated clause loses its repeated literals and, unless it is a tautology,
goes straight into the passive heap as it was generated; normalization,
duplicate deletion and forward subsumption wait until it is selected, as in
the DISCOUNT loop (Denzinger, Kronenburg & Schulz 1997).  Weight and
tautology do not change under variable renaming or literal order, so they
are read off the raw clause.  The given clauses are those that checking at
insertion would give (see `_Saturation.run`), and `kept` counts every clause
that entered the passive set, duplicates included, which `max_clause_count`
bounds.  Each held clause is one record, and the clauses held share equal
literals and origin sets.

Every clause the search holds, whether input clause, resolvent or factor,
goes through one routine, `_Saturation._insert`, in one pass over its
literals.  Each literal is built under the unifier and looked up once in a
shared literal table, whose entry holds the shared object, the literal's
weight, its variables and an integer code; a literal's code and its
complement's differ only in the lowest bit, so a repeated literal is a code
already seen and a tautology a code whose `code ^ 1` was seen.  A literal
none of whose variables the unifier binds keeps the entry its parent clause
looked up when it was processed, and an argument that is an unbound
variable or a constant is kept as it is.  The union of the two parents'
origin sets is computed once per pair of shared origin sets.  The codes
follow the order the table was filled in, and the search reads them only
for these tests, so it does not depend on the hash seed.

Forward subsumption scans the processed clauses
in order and runs the full matcher only on those whose predicate signs and
argument head symbols are a subset of the selected clause's, a filter that
only skips matches that must fail.  Equality is handled by appending
congruence axioms under the reserved origin name "$equality", which is
excluded from used premises.

The search runs on `clausify`'s plain-tuple clauses of `query_formulas(t)`.
Substitutions stay triangular: a binding may hold variables
that are bound elsewhere in the same dict, and `_unify`, `_occurs` and
`_apply` follow such chains inline.  The occurs check runs only when a
variable is bound to a term with arguments; after walking, the other side of
any other binding is a different unbound variable or a constant, which
cannot close a cycle.  A symbol used at two arities is an input error
(ValueError), as in the model finder.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .clauses import (
    ORIGIN_CONJECTURE,
    ORIGIN_EQUALITY,
    ClauseSet,
    Literal,
    Literals,
    OutOfBudget,
    clause_signature,
    clausify,
    contains_equality,
    formula_signature,
    query_formulas,
)
from .logic import EQUALITY, Term
from .tptp import Theory
from .verdicts import SzsStatus

if TYPE_CHECKING:  # pragma: no cover
    from .engines import EngineLimits


# Every PICK_GIVEN_RATIO-th selection takes the oldest unprocessed clause
# instead of the lightest; pure lowest-weight selection starves wide input
# clauses behind floods of light resolvents.
PICK_GIVEN_RATIO = 4


@dataclass(frozen=True)
class SearchStats:
    """generated counts inserted clauses, kept those that entered the
    passive set (every one that is not a tautology, duplicates included:
    they are deleted at selection), given those selected and processed, and
    subsumption_tests the full matcher's calls that the feature filter let
    through at selection."""

    generated: int
    kept: int
    given: int
    subsumption_tests: int


@dataclass(frozen=True)
class ProofOutcome:
    status: SzsStatus
    used_premises: frozenset[str]
    stats: SearchStats


# ---------------------------------------------------------------------------
# Substitutions and unification

Subst = dict[str, Term]


def _occurs(name: str, t: Term, subst: Subst) -> bool:
    """True if the unbound variable name occurs in t under subst."""
    while type(t) is str:
        if t == name:
            return True
        t = subst.get(t)
        if t is None:
            return False
    for a in t[1]:
        if _occurs(name, a, subst):
            return True
    return False


def _unify(a: Term, b: Term, subst: Subst) -> bool:
    """Extend subst in place to unify a and b; False leaves subst unusable.

    subst stays triangular: a binding may hold variables bound elsewhere in
    it.  Both sides are first walked to an unbound variable or a non-variable
    term.  Binding a variable to a different unbound variable or to a
    constant cannot close a cycle, so the occurs check runs only when the
    term bound to has arguments."""
    while type(a) is str:
        bound = subst.get(a)
        if bound is None:
            break
        a = bound
    while type(b) is str:
        bound = subst.get(b)
        if bound is None:
            break
        b = bound
    if type(a) is str:
        if a == b:
            return True
        if type(b) is not str and b[1] and _occurs(a, b, subst):
            return False
        subst[a] = b
        return True
    if type(b) is str:
        if a[1] and _occurs(b, a, subst):
            return False
        subst[b] = a
        return True
    if a[0] != b[0]:
        return False
    xs = a[1]
    ys = b[1]
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if not _unify(x, y, subst):
            return False
    return True


def _unify_args(xs: tuple[Term, ...], ys: tuple[Term, ...], subst: Subst) -> bool:
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if not _unify(x, y, subst):
            return False
    return True


def _apply(t: Term, subst: Subst) -> Term:
    """t under the triangular subst, with every bound variable replaced
    through its chain of bindings.  The occurs check in _unify keeps the
    bindings acyclic, so this ends."""
    if type(t) is str:
        bound = subst.get(t)
        return t if bound is None else _apply(bound, subst)
    args = t[1]
    if not args:
        return t
    return (t[0], tuple([_apply(a, subst) for a in args]))


def _rename_term(t: Term, prefix: str) -> Term:
    if isinstance(t, str):
        return prefix + t
    if not t[1]:
        return t
    return (t[0], tuple(_rename_term(a, prefix) for a in t[1]))


def _rename_literal(lit: Literal, prefix: str) -> Literal:
    positive, pred, args = lit
    return (positive, pred, tuple(_rename_term(a, prefix) for a in args))


# ---------------------------------------------------------------------------
# Clause normalization, weight, tautology and subsumption checks


def _shape(t: Term) -> str:
    if isinstance(t, str):
        return "*"
    head, args = t
    if not args:
        return head
    return f"{head}({','.join(_shape(a) for a in args)})"


def _literal_key(lit: Literal) -> tuple:
    positive, pred, args = lit
    return (pred, not positive, tuple(_shape(a) for a in args))


def normalize(literals: Literals) -> Literals:
    """Dedupe, sort by a variable-blind key, and rename variables canonically."""
    unique = list(dict.fromkeys(literals))
    unique.sort(key=_literal_key)
    mapping: dict[str, str] = {}

    def rename(t: Term) -> Term:
        if isinstance(t, str):
            var = mapping.get(t)
            if var is None:
                var = mapping[t] = f"X{len(mapping)}"
            return var
        if not t[1]:
            return t
        return (t[0], tuple(rename(a) for a in t[1]))

    return tuple(
        (positive, pred, tuple(rename(a) for a in args)) for positive, pred, args in unique
    )


def _term_weight(t: Term) -> int:
    if isinstance(t, str):
        return 1
    return 1 + sum(_term_weight(a) for a in t[1])


def _add_variables(t: Term, found: dict[str, None]) -> None:
    if type(t) is str:
        found[t] = None
    else:
        for a in t[1]:
            _add_variables(a, found)


def _variables(lit: Literal) -> tuple[str, ...]:
    """The distinct variables of lit, in order of first occurrence."""
    found: dict[str, None] = {}
    for a in lit[2]:
        _add_variables(a, found)
    return tuple(found)


def _match(pattern: Term, target: Term, subst: Subst, trail: list[str]) -> bool:
    """One-way matching: only pattern variables may be bound.  Each new
    binding's name goes on trail, so a caller can undo it."""
    if isinstance(pattern, str):
        bound = subst.get(pattern)
        if bound is None:
            subst[pattern] = target
            trail.append(pattern)
            return True
        return bound == target
    if isinstance(target, str):
        return False
    if pattern[0] != target[0] or len(pattern[1]) != len(target[1]):
        return False
    return all(_match(p, t, subst, trail) for p, t in zip(pattern[1], target[1]))


def _literals_by_key(literals: Literals) -> dict[tuple[str, bool], list[Literal]]:
    by_key: dict[tuple[str, bool], list[Literal]] = {}
    for lit in literals:
        by_key.setdefault((lit[1], lit[0]), []).append(lit)
    return by_key


def _subsumes_into(
    c_literals: Literals,
    d_by_key: dict[tuple[str, bool], list[Literal]],
) -> bool:
    """True if some substitution maps every c literal into d's literal set."""
    subst: Subst = {}
    trail: list[str] = []

    def backtrack(i: int) -> bool:
        if i == len(c_literals):
            return True
        positive, pred, args = c_literals[i]
        candidates = d_by_key.get((pred, positive))
        if not candidates:
            return False
        mark = len(trail)
        for cand in candidates:
            for p, t in zip(args, cand[2]):
                if not _match(p, t, subst, trail):
                    break
            else:
                if backtrack(i + 1):
                    return True
            while len(trail) > mark:
                del subst[trail.pop()]
        return False

    return backtrack(0)


def _features(literals: Literals, shared: dict[tuple, tuple]) -> frozenset:
    """Each literal's (predicate, sign), and (predicate, sign, i, head) for
    each argument i that is not a variable; equal features share the object
    kept in shared.  A substitution keeps every feature, so a clause can
    subsume another only if its features are a subset of the other's."""
    out = set()
    for positive, pred, args in literals:
        key = (pred, positive)
        out.add(shared.setdefault(key, key))
        for i, arg in enumerate(args):
            if not isinstance(arg, str):
                feature = (pred, positive, i, arg[0])
                out.add(shared.setdefault(feature, feature))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Congruence axioms for equality


def congruence_axioms(clauses: ClauseSet) -> ClauseSet:
    preds, funcs = clause_signature(clauses)
    origin = frozenset({ORIGIN_EQUALITY})
    eq = lambda a, b, pos: (pos, EQUALITY, (a, b))  # noqa: E731
    out = [
        ((eq("X0", "X0", True),), origin),
        ((eq("X0", "X1", False), eq("X1", "X0", True)), origin),
        ((eq("X0", "X1", False), eq("X1", "X2", False), eq("X0", "X2", True)), origin),
    ]
    for name in sorted(preds):
        arity = preds[name]
        for i in range(arity):
            args = tuple(f"A{j}" for j in range(arity))
            repl = args[:i] + ("B",) + args[i + 1 :]
            out.append(((eq(args[i], "B", False), (False, name, args), (True, name, repl)), origin))
    for name in sorted(funcs):
        arity = funcs[name]
        for i in range(arity):
            args = tuple(f"A{j}" for j in range(arity))
            repl = args[:i] + ("B",) + args[i + 1 :]
            out.append(((eq(args[i], "B", False), eq((name, args), (name, repl), True)), origin))
    return tuple(out)


# ---------------------------------------------------------------------------
# Saturation


class _Refuted(Exception):
    """The search derived the empty clause, from the input clauses of these
    origins."""

    def __init__(self, origins: frozenset[str]):
        super().__init__()
        self.origins = origins


# An entry of the shared literal table: the literal, its weight, its code
# and its variables.
_Entry = tuple[Literal, int, int, tuple[str, ...]]


def _rests(entries: tuple[_Entry, ...]) -> tuple[tuple[_Entry, ...], ...]:
    """Per index i, entries without their i-th entry."""
    return tuple([entries[:i] + entries[i + 1 :] for i in range(len(entries))])


class _Saturation:
    def __init__(self, initial: ClauseSet, limits: EngineLimits):
        self.initial = initial
        self.max_clause_count = limits.max_clause_count
        self.deadline = time.monotonic() + limits.timeout
        self.heap: list[tuple[int, int]] = []  # (weight, slot); the slot is the age
        # Per slot: the clause as _insert held it, its origins, and how many
        # clauses were processed at its insertion; None once popped.
        self.slots: list[tuple[Literals, frozenset[str], int] | None] = []
        self.age_cursor = 0
        self.picks = 0
        # Per processed clause: its literals renamed apart for resolution,
        # its origins, its features, and per literal the entries of the
        # others.
        self.processed: list[
            tuple[Literals, frozenset[str], frozenset, tuple[tuple[_Entry, ...], ...]]
        ] = []
        self.index: dict[tuple[str, bool], list[tuple[int, int]]] = {}
        self.seen: set[Literals] = set()  # normal forms of the popped clauses
        # Most held clauses are never selected; they share one object per
        # distinct literal and per origin set to keep their memory down, and
        # the processed clauses' feature sets one per distinct feature.  A
        # literal's entry also holds its weight, its variables and its code,
        # an int that differs from its complement's only in the lowest bit,
        # so that _insert finds repeated literals and tautologies by int
        # lookups.
        self.shared_literals: dict[Literal, _Entry] = {}
        self.shared_origins: dict[frozenset[str], frozenset[str]] = {}
        self.shared_features: dict[tuple, tuple] = {}
        # The shared union of two shared origin sets, per pair of them.
        self.origin_unions: dict[frozenset[str], dict[frozenset[str], frozenset[str]]] = {}
        self.generated = 0
        self.subsumption_tests = 0
        self._tick = 0

    def _entry(self, lit: Literal) -> _Entry:
        """lit's entry in the shared literal table: the one object held for
        literals equal to lit, its weight, its code and its variables.  A new
        literal takes its complement's code with the lowest bit flipped if
        the table holds the complement, else an even code that no entry
        has."""
        table = self.shared_literals
        entry = table.get(lit)
        if entry is None:
            positive, pred, args = lit
            twin = table.get((not positive, pred, args))
            code = 2 * len(table) if twin is None else twin[2] ^ 1
            weight = 1 + sum(_term_weight(a) for a in args)
            entry = table[lit] = (lit, weight, code, _variables(lit))
        return entry

    def _entries(self, literals: Literals) -> tuple[_Entry, ...]:
        """The table entries of literals."""
        get = self.shared_literals.get
        return tuple([get(lit) or self._entry(lit) for lit in literals])

    def _insert(
        self,
        first: tuple[_Entry, ...],
        second: tuple[_Entry, ...],
        subst: Subst,
        origins: frozenset[str],
    ) -> None:
        """Hold the clause of the literals of first and then second under
        subst, with origins, a shared origin set: raise _Refuted if it is
        empty, and drop it if it is a tautology.  A literal none of whose
        variables subst binds keeps its entry; any other is built and
        looked up in the table once.  A repeated literal is left out, and
        the clause's weight is the sum of its literals' weights."""
        table = self.shared_literals
        held: dict[int, Literal] = {}  # by code
        weight = 0
        tautology = False
        for entries in (first, second):
            for entry in entries:
                for var in entry[3]:
                    if var in subst:
                        positive, pred, args = entry[0]
                        built = []
                        for a in args:
                            if type(a) is str:
                                bound = subst.get(a)
                                if bound is not None:
                                    a = _apply(bound, subst)
                            elif a[1]:
                                a = _apply(a, subst)
                            built.append(a)
                        lit = (positive, pred, tuple(built))
                        entry = table.get(lit) or self._entry(lit)
                        break
                code = entry[2]
                if code in held:
                    continue
                if code ^ 1 in held:
                    tautology = True
                held[code] = entry[0]
                weight += entry[1]
        self.generated += 1
        if not held:
            raise _Refuted(origins)
        if tautology:
            return
        slot = len(self.slots)
        self.slots.append((tuple(held.values()), origins, len(self.processed)))
        heapq.heappush(self.heap, (weight, slot))
        if len(self.slots) > self.max_clause_count:
            raise OutOfBudget

    def _check_deadline(self) -> None:
        if time.monotonic() >= self.deadline:
            raise OutOfBudget

    def _subsumed(self, literals: Literals, features: frozenset, start: int, stop: int) -> bool:
        """True if a clause processed at an index in [start, stop), with no
        more literals than literals, subsumes them.  features are theirs; a
        clause whose features are not a subset cannot subsume them."""
        nlits = len(literals)
        by_key = None
        for gidx in range(start, stop):
            c_literals, _, c_features, _ = self.processed[gidx]
            if len(c_literals) > nlits or not c_features <= features:
                continue
            if by_key is None:
                by_key = _literals_by_key(literals)
            self.subsumption_tests += 1
            if _subsumes_into(c_literals, by_key):
                return True
        return False

    def _select(
        self,
    ) -> tuple[Literals, frozenset[str], frozenset, tuple[_Entry, ...]] | None:
        """The next given clause, normalized, with its origins, features and
        literal entries; None once no clause is held."""
        while True:
            self._check_deadline()
            self.picks += 1
            by_age = self.picks % PICK_GIVEN_RATIO == 0
            while True:
                if by_age and (slot := self.age_cursor) < len(self.slots):
                    self.age_cursor += 1
                elif self.heap:
                    slot = heapq.heappop(self.heap)[1]
                else:  # every held slot is on the heap
                    return None
                held, self.slots[slot] = self.slots[slot], None
                if held is None:
                    continue
                literals, origins, kept_at = held
                literals = normalize(literals)
                if literals in self.seen:
                    continue
                entries = self._entries(literals)
                literals = tuple([entry[0] for entry in entries])
                self.seen.add(literals)
                features = _features(literals, self.shared_features)
                if not self._subsumed(literals, features, 0, kept_at):
                    break
            if not self._subsumed(literals, features, kept_at, len(self.processed)):
                return literals, origins, features, entries

    def run(self) -> None:
        """Saturate the input clauses.  Returns when no unprocessed clause
        is left; raises _Refuted on deriving the empty clause, and
        OutOfBudget past the deadline or once more than max_clause_count
        clauses are held.

        A pick pops clauses until one is kept.  It drops a clause whose
        normal form an earlier popped clause had: that clause had the same
        weight and an earlier slot, so weight order and the age interleave
        both popped it first.  It also drops a clause that a clause processed
        before its insertion subsumes.  A clause that a clause processed
        since subsumes is dropped and uses up the pick.  The given clauses
        are therefore those that normalizing and checking at insertion would
        give."""
        for literals, origins in self.initial:
            origins = self.shared_origins.setdefault(origins, origins)
            self._insert(self._entries(literals), (), {}, origins)
        while (selected := self._select()) is not None:
            literals, origins, features, entries = selected
            gidx = len(self.processed)
            renamed = tuple(
                _rename_literal(lit, "r_") if entry[3] else lit
                for lit, entry in zip(literals, entries)
            )
            self.processed.append((renamed, origins, features, _rests(self._entries(renamed))))
            for li, (positive, pred, _) in enumerate(literals):
                self.index.setdefault((pred, positive), []).append((gidx, li))
            self._infer(literals, origins, entries)

    def _infer(
        self, literals: Literals, origins: frozenset[str], entries: tuple[_Entry, ...]
    ) -> None:
        """Generate resolvents and positive factors of the given clause;
        entries are its literals' entries."""
        processed = self.processed
        insert = self._insert
        unions = self.origin_unions.setdefault(origins, {})
        # Binary resolution against processed clauses (including given itself).
        for li, (positive, pred, args) in enumerate(literals):
            partners = self.index.get((pred, not positive))
            if not partners:
                continue
            rest = entries[:li] + entries[li + 1 :]
            for pidx, mi in partners:
                renamed, partner_origins, _, partner_rests = processed[pidx]
                subst: Subst = {}
                if not _unify_args(args, renamed[mi][2], subst):
                    continue
                union = unions.get(partner_origins)
                if union is None:
                    union = origins | partner_origins
                    union = unions[partner_origins] = self.shared_origins.setdefault(union, union)
                insert(rest, partner_rests[mi], subst, union)
                self._tick += 1
                if self._tick % 256 == 0:
                    self._check_deadline()
        # Positive factoring on the given clause.
        positives = [i for i, l in enumerate(literals) if l[0]]
        for a in range(len(positives)):
            for b in range(a + 1, len(positives)):
                la = literals[positives[a]]
                lb = literals[positives[b]]
                if la[1] != lb[1]:
                    continue
                subst = {}
                if not _unify_args(la[2], lb[2], subst):
                    continue
                insert(entries, (), subst, origins)


def _input_clauses(named: list[tuple[str, object]], limit: float = math.inf) -> ClauseSet:
    """Clausify (up to limit clauses), and add congruence axioms if equality
    occurs."""
    clauses = clausify(named, limit)  # type: ignore[arg-type]
    if contains_equality(clauses):
        clauses = clauses + congruence_axioms(clauses)
    return clauses


def _search(
    t: Theory, limits: EngineLimits, refuted: SzsStatus, saturated: SzsStatus
) -> ProofOutcome:
    """Saturate t's `query_formulas` (its premises, plus the negated
    conjecture if any); a refutation answers refuted, a closed search
    saturated, and an exhausted budget ResourceOut."""
    named = query_formulas(t)
    formula_signature(f for _, f in named)  # a symbol at two arities raises ValueError
    sat = None
    used: frozenset[str] = frozenset()
    try:
        sat = _Saturation(_input_clauses(named, limits.max_clause_count), limits)
        sat.run()
        status = saturated
    except _Refuted as refutation:
        status, used = refuted, refutation.origins - {ORIGIN_CONJECTURE, ORIGIN_EQUALITY}
    except (OutOfBudget, RecursionError):
        # Resolution can build terms deeper than the input's without bound;
        # one too deep for the interpreter's stack ends the search as its
        # budget does.
        status = SzsStatus.ResourceOut
    if sat is None:  # clausifying ran out
        return ProofOutcome(status, used, SearchStats(0, 0, 0, 0))
    stats = SearchStats(sat.generated, len(sat.slots), len(sat.processed), sat.subsumption_tests)
    return ProofOutcome(status, used, stats)


def prove(t: Theory, limits: EngineLimits) -> ProofOutcome:
    """Attempt to derive the conjecture of t from its premises."""
    if t.conjecture is None:
        raise ValueError("prove requires a conjecture; use refute for Unsatisfiable-mode problems")
    return _search(t, limits, SzsStatus.Theorem, SzsStatus.CounterSatisfiable)


def refute(t: Theory, limits: EngineLimits) -> ProofOutcome:
    """Attempt to refute a conjecture-free theory (intended status Unsatisfiable)."""
    if t.conjecture is not None:
        raise ValueError("refute requires a theory without a conjecture")
    return _search(t, limits, SzsStatus.Unsatisfiable, SzsStatus.Satisfiable)
