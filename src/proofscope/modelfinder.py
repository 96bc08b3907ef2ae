"""MACE-style finite model search: ground, solve with DPLL, decode, verify.

Clauses are flattened in the style of Paradox (Claessen & Sorensson 2003)
so the propositional encoding stays polynomial in the domain size per
clause: every nested subterm gets a fresh variable, a positive equation
with a function term on one side becomes one function-cell literal, and a
negative equation between variables is removed by substitution.  A
function of arity k is a table of k + 1 coordinates, its value last, and a
predicate of arity k one of k; one layout numbers the cells of every table
(see _VarLayout).  Function tables contribute totality and functionality
constraints.  Symmetry is broken by a canonical constant ordering: with the
constants of the clauses in pre-order c0, c1, ..., each ci takes a value of
at most i, and a value d >= 1 only if some earlier constant takes d - 1.

Each flattened clause is then split (Claessen & Sorensson 2003) before it
is grounded: a clause A | B, with A its literals on one variable, becomes
A | s(S) and ~s(S) | B for a fresh predicate s over the variables S that A
and B share, while both halves lack a variable of the clause (see _split).
Associativity's six variables become two clauses of five, and a clause
with a ground term nested d deep, which flattening gives d + 1 variables,
becomes pieces of at most two.  A split predicate is a predicate table
named by its index, an int, which no input symbol (a str) can equal, and
its table is numbered after every table of the signature, so the model
found is the same.  Every model of the split CNF restricts to a model of
the original, since resolving the halves on s gives back each instance of
A | B.  Every model M of the original extends to the split CNF by making
s(S) true exactly where some instance of A is false: an instance of B with
the same values of S, joined with that instance of A, is an instance of
A | B, which M satisfies.  So the greatest model of the split CNF, which
the solver returns, restricts to a model at least as great as the greatest
original model (the signature's variables come first), hence to that
model, and _decode reads only the signature's cells and atoms.

Grounding is compiled once per flattened clause and domain size: each
literal becomes a linear form in the clause's variables, whose value at an
assignment is its signed propositional variable.  The instances of a clause
are ground in blocks of at most 4096, column by column: a literal's column
over the innermost variables is expanded from its form once, and each block
adds the offset of its outer variables.  A ground clause lists its literals
by variable.  _VarLayout numbers each table in a range of its own, the
tables in turn, so literals of different tables never meet on a variable
and keep their order in every instance; only two literals of one table can
meet or swap places, and only where they meet does an instance need a step
of its own (see _ground).  A size whose CNF would hold more than the call's
max_clause_count clauses ends the search with ResourceOut, and so does a
solver that would learn more clauses than that: each raises OutOfBudget
where the budget runs out, as evaluate does past its deadline, and
find_model alone reads it as ResourceOut.

The solver is DPLL with conflict-driven clause learning: first-UIP learned
clauses and backjumping, with fixed branching (least unassigned variable,
true first) and no restarts.  It finds the same model as chronological
DPLL, the lexicographically greatest one, so learning changes only how
fast a size is refuted, never which model comes back.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .clauses import Literals, OutOfBudget, clause_signature, clausify, formula_signature
from .logic import EQUALITY, Formula, Interpretation, Term, evaluate

if TYPE_CHECKING:  # pragma: no cover
    from .engines import EngineLimits


class ModelKind(str, Enum):
    ModelFound = "ModelFound"
    ExhaustedUpTo = "ExhaustedUpTo"
    ResourceOut = "ResourceOut"


@dataclass(frozen=True)
class ModelOutcome:
    kind: ModelKind
    model: Interpretation | None = None
    exhausted_size: int | None = None


# ---------------------------------------------------------------------------
# Clause flattening

# Flat literals reference clause variables by index:
#   ("pred", name, cell, positive)  a predicate or split atom
#   ("func", name, cell, positive)  a function cell
#   ("eq", var_index, var_index)  (positive; negative ones are substituted away)
# A cell is a tuple of variable indices, one per coordinate of its table (see
# _VarLayout): an atom's arguments, or a function's arguments and its value.
FlatLiteral = tuple


@dataclass(frozen=True)
class FlatClause:
    nvars: int
    literals: tuple[FlatLiteral, ...]


def _flatten(literals: Literals) -> FlatClause:
    var_ids: dict[str, int] = {}
    defs: dict[tuple[str, tuple[int, ...]], int] = {}
    lits: list[FlatLiteral] = []
    disequal: list[tuple[int, int]] = []
    counter = itertools.count()

    def var_id(name: str) -> int:
        if name not in var_ids:
            var_ids[name] = next(counter)
        return var_ids[name]

    def flat_term(t: Term) -> int:
        if isinstance(t, str):
            return var_id(t)
        head, args = t
        arg_ids = tuple(flat_term(a) for a in args)
        key = (head, arg_ids)
        if key in defs:
            return defs[key]
        aux = next(counter)
        defs[key] = aux
        lits.append(("func", head, arg_ids + (aux,), False))
        return aux

    for positive, pred, args in literals:
        if pred == EQUALITY:
            left, right = args
            if isinstance(left, str):
                left, right = right, left
            if not positive:
                disequal.append((flat_term(left), flat_term(right)))
            elif isinstance(left, str):
                lits.append(("eq", flat_term(left), flat_term(right)))
            else:
                # f(s) = t is the cell f(s) -> t: totality and functionality
                # make it equivalent to f(s) != u | u = t for every u.
                cell = tuple(flat_term(a) for a in (*left[1], right))
                lits.append(("func", left[0], cell, True))
        else:
            arg_ids = tuple(flat_term(a) for a in args)
            lits.append(("pred", pred, arg_ids, positive))
    return _substitute(lits, disequal)


def _substitute(lits: list[FlatLiteral], disequal: list[tuple[int, int]]) -> FlatClause:
    """C | x != y is C[x:=y]: merge the variables of every disequal pair and
    number the remaining variables densely."""
    rep: dict[int, int] = {}

    def find(v: int) -> int:
        while v in rep:
            v = rep[v]
        return v

    for x, y in disequal:
        a, b = find(x), find(y)
        if a != b:
            rep[max(a, b)] = min(a, b)
    dense: dict[int, int] = {}

    def renumber(v: int) -> int:
        return dense.setdefault(find(v), len(dense))

    out: list[FlatLiteral] = []
    for lit in lits:
        if lit[0] == "eq":
            out.append(("eq", renumber(lit[1]), renumber(lit[2])))
        else:
            out.append((lit[0], lit[1], tuple(map(renumber, lit[2])), lit[3]))
    return FlatClause(len(dense), tuple(dict.fromkeys(out)))


# ---------------------------------------------------------------------------
# Clause splitting


def _variables(lit: FlatLiteral) -> frozenset[int]:
    if lit[0] == "eq":
        return frozenset(lit[1:])
    return frozenset(lit[2])


class _Piece:
    """A part of a clause being split: its literals, by index, and for each
    of its variables x the cut at x, which takes the literals on x as A and
    the rest as B.  A cut's size is (|vars A|, how many variables occur only
    in A); |vars B| is the piece's variable count less the second number."""

    def __init__(self, ids: set[int], on: dict[int, set[int]], variables: list[frozenset[int]]):
        self.ids = ids
        self.on = on  # variable -> indices of the piece's literals on it
        self.variables = variables  # literal index -> its variables
        self.size: dict[int, tuple[int, int]] = {}
        self.by_size: dict[tuple[int, int], set[int]] = {}
        for x in on:
            self.measure(x)

    def measure(self, x: int) -> None:
        self.forget(x)
        mine = self.on[x]
        reach = frozenset().union(*map(self.variables.__getitem__, mine))
        size = len(reach), sum(mine.issuperset(self.on[u]) for u in reach)
        self.size[x] = size
        self.by_size.setdefault(size, set()).add(x)

    def forget(self, x: int) -> None:
        if x in self.size:
            self.by_size[self.size.pop(x)].discard(x)

    def best(self) -> int | None:
        """The variable of the valid cut of least (max(|vars A|, |vars B|),
        |vars A| + |vars B|), the least variable on ties; None if no cut is
        valid.  A cut is valid when vars A lacks a variable of the piece:
        then B is not empty, and vars B always lacks x."""
        n = len(self.on)
        cuts = [
            (max(a, n - only), a + n - only, min(xs))
            for (a, only), xs in self.by_size.items()
            if xs and a < n
        ]
        return min(cuts)[2] if cuts else None


def _split(flat: FlatClause, splits: list[int]) -> list[FlatClause]:
    """The flat clause as pieces with fewer variables each, linked by fresh
    split atoms; splits gets each new atom's arity, and the atom's name is
    its index there.

    A piece A | B whose best cut (see _Piece.best) is at x, with A the
    literals on x, becomes A | s(S) and ~s(S) | B for a fresh s and S the
    variables A and B share, until no piece has a valid cut.  Variables keep
    their numbers in the clause until the pieces are final, which numbers
    each densely.  A clause with a literal on all its variables has no valid
    cut and comes back at once."""
    n = flat.nvars
    if n < 2 or any(len(_variables(lit)) == n for lit in flat.literals):
        return [flat]
    literals = list(flat.literals)
    variables = [_variables(lit) for lit in literals]
    on: dict[int, set[int]] = {}
    for i, vs in enumerate(variables):
        for v in vs:
            on.setdefault(v, set()).add(i)
    done: list[set[int]] = []
    work = [_Piece(set(range(len(literals))), on, variables)]
    while work:
        piece = work.pop()
        x = piece.best()
        if x is None:
            done.append(piece.ids)
            continue
        inside = piece.on[x]
        reach = frozenset().union(*map(variables.__getitem__, inside))
        only = {u for u in reach if inside.issuperset(piece.on[u])}
        shared = reach - only
        name = len(splits)
        splits.append(len(shared))
        args = tuple(sorted(shared))
        literals += [("pred", name, args, True), ("pred", name, args, False)]
        variables += [shared, shared]
        pos, neg = len(literals) - 2, len(literals) - 1
        part = {u: piece.on[u] & inside for u in reach}
        for u in shared:
            part[u].add(pos)
        # The piece itself becomes ~s(S) | B and keeps its tables, so a wide
        # clause that sheds a small A per cut is not measured afresh each
        # time.  Only the shared variables' cuts change: any other variable
        # of B has all its literals in B.
        piece.ids -= inside
        piece.ids.add(neg)
        for u in only:
            del piece.on[u]
            piece.forget(u)
        for u in shared:
            piece.on[u] = (piece.on[u] - inside) | {neg}
        for u in shared:
            piece.measure(u)
        work += [piece, _Piece(inside | {pos}, part, variables)]
    if len(done) == 1:
        return [flat]
    return [_substitute([literals[i] for i in sorted(ids)], []) for ids in done]


# ---------------------------------------------------------------------------
# Propositional variable layout


class _VarLayout:
    """Deterministic numbering of the cells of every table: a table is a
    kind, "func" or "pred", and a name, and a cell is a tuple of domain
    elements, a function's arguments followed by its value.  The function
    tables come first, by name, then the predicate tables, by name, then the
    split predicates' (see _split), by index; each table's cells are
    numbered in itertools.product order."""

    def __init__(
        self, preds: dict[str, int], funcs: dict[str, int], splits: list[int], n: int
    ):
        self.n = n
        self.preds = preds
        self.funcs = funcs
        # Function cells first: deciding them early lets the clause
        # constraints propagate into the predicate tables.
        tables = [(("func", name), funcs[name] + 1) for name in sorted(funcs)]
        tables += [(("pred", name), preds[name]) for name in sorted(preds)]
        tables += [(("pred", name), arity) for name, arity in enumerate(splits)]
        self.base: dict[tuple[str, str | int], int] = {}
        next_id = 1  # DIMACS-style 1-based variables
        for table, width in tables:
            self.base[table] = next_id
            next_id += n**width
        self.count = next_id - 1

    def var(self, table: tuple[str, str | int], cell: tuple[int, ...]) -> int:
        idx = 0
        for a in cell:
            idx = idx * self.n + a
        return self.base[table] + idx


# A linear form over a flat clause's variables: (base, stride per variable).
_Form = tuple[int, list[int]]


def _compile(flat: FlatClause, layout: _VarLayout) -> tuple[list[_Form], list[_Form]]:
    """The literals of a flat clause as linear forms over its variables.

    A form (base, strides) takes the value base + sum(strides[i] * a[i]) under
    the assignment a.  A table literal's form is its signed propositional
    literal: its table's base, and the position strides of its cell (see
    _VarLayout) summed per variable; an eq literal's form is a[i] - a[j],
    zero where it holds."""
    n = layout.n
    literals: list[_Form] = []
    equations: list[_Form] = []
    for lit in flat.literals:
        strides = [0] * flat.nvars
        if lit[0] == "eq":
            strides[lit[1]] += 1
            strides[lit[2]] -= 1
            equations.append((0, strides))
            continue
        for power, var in enumerate(reversed(lit[2])):
            strides[var] += n**power
        sign = 1 if lit[3] else -1
        literals.append((sign * layout.base[lit[:2]], [sign * stride for stride in strides]))
    return literals, equations


def _column(form: _Form, n: int) -> list[int]:
    """The form's value at every assignment of its variables, in
    itertools.product order."""
    column = [form[0]]
    for stride in form[1]:
        steps = [stride * a for a in range(n)]
        column = [x + t for x in column for t in steps]
    return column


def _ground(
    flats: Sequence[FlatClause],
    layout: _VarLayout,
    constants: Sequence[str],
    deadline: float,
    max_clauses: int,
) -> list[list[int]]:
    """The CNF of the clauses' instances over the domain.

    Every model can be renumbered so that the constants, in the given order,
    take their values in order of first appearance: ci is at most i, and
    ci = d >= 1 only if some cj with j < i is d - 1.

    The instances of a clause come in itertools.product order, in blocks:
    the innermost variables, as many as keep a block to at most 4096
    instances, span the block, and each assignment of the outer ones is one
    block.  Each literal and equation has a column of values per block, its
    column over the inner variables (see _column) plus the outer variables'
    offset.  An instance where some equation holds is satisfied and left
    out.  Every other instance is the row of its literals, which the
    literals give in table order: the tables' variable ranges ascend, so
    that is the order by variable wherever no two literals share a table.
    Literals of one table are ordered per instance by compare-exchanges of
    their columns, and an instance where two of them meet, the same
    variable of the same sign or of opposite signs, is the one row that
    takes a step of its own: its repeats merge, and a tautology is dropped.
    An instance with no literal left falsifies its clause: grounding stops
    there, and the CNF ends with the empty clause.  Past the deadline, or
    once the CNF holds more than max_clauses clauses, grounding raises
    OutOfBudget; both are checked before every block, so the CNF up to the
    cap and one block's columns are all it holds."""
    n = layout.n
    cnf: list[list[int]] = []
    for i, c in enumerate(constants):
        for d in range(1, n):
            clause = [-layout.var(("func", c), (d,))]
            if d <= i:
                clause += [layout.var(("func", prev), (d - 1,)) for prev in constants[:i]]
            cnf.append(clause)
    for flat in flats:
        literals, equations = _compile(flat, layout)
        # A form's base is its table's base, signed: order by table, stably.
        literals.sort(key=lambda form: abs(form[0]))
        tables = [abs(base) for base, _ in literals]
        # Selection sort's compare-exchanges, in this order, sort each table.
        pairs = [
            (i, j)
            for i in range(len(tables))
            for j in range(i + 1, len(tables))
            if tables[i] == tables[j]
        ]
        inner = flat.nvars
        while n**inner > 4096:
            inner -= 1
        outer = flat.nvars - inner
        forms = literals + equations
        columns = [_column((base, strides[outer:]), n) for base, strides in forms]
        for prefix in itertools.product(range(n), repeat=outer):
            if len(cnf) > max_clauses or time.monotonic() >= deadline:
                raise OutOfBudget
            cols = columns[:]
            if any(prefix):
                for k, (_, strides) in enumerate(forms):
                    offset = sum(map(operator.mul, strides[:outer], prefix))
                    if offset:
                        cols[k] = list(map(offset.__add__, columns[k]))
            eqs = cols[len(literals) :]
            # An instance where some equation holds is satisfied: keep the others.
            kept = list(map(all, zip(*eqs))) if eqs else None
            if not literals:
                if kept is None or any(kept):
                    cnf.append([])
                    return cnf
                continue
            if not pairs:
                rows = zip(*cols[: len(literals)])
                cnf.extend(map(list, rows if kept is None else itertools.compress(rows, kept)))
                continue
            # Literals of one sign meet where they are equal, of opposite
            # signs where they are opposite; before the exchanges, each
            # column has its literal's sign.
            masks = [
                map(operator.eq, cols[i], cols[j])
                if (literals[i][0] > 0) == (literals[j][0] > 0)
                else map(operator.eq, cols[i], map(operator.neg, cols[j]))
                for i, j in pairs
            ]
            meet = masks[0] if len(masks) == 1 else map(any, zip(*masks))
            for i, j in pairs:
                a, b = cols[i], cols[j]
                cols[i] = [x if abs(x) < abs(y) else y for x, y in zip(a, b)]
                cols[j] = [y if abs(x) < abs(y) else x for x, y in zip(a, b)]
            rows = zip(*cols[: len(literals)])
            if kept is not None:
                rows, meet = itertools.compress(rows, kept), itertools.compress(meet, kept)
            clauses = list(map(list, rows))
            for k in itertools.compress(range(len(clauses)), meet):
                uniq = set(clauses[k])
                # Two literals on one variable make a tautology.
                tautology = len({*map(abs, uniq)}) < len(uniq)
                clauses[k] = None if tautology else sorted(uniq, key=abs)
            cnf.extend(filter(None, clauses))
    # Totality and functionality for every function symbol.
    for name in sorted(layout.funcs):
        arity = layout.funcs[name]
        for args in itertools.product(range(n), repeat=arity):
            cells = [layout.var(("func", name), (*args, v)) for v in range(n)]
            cnf.append(cells)
            for i in range(n):
                for j in range(i + 1, n):
                    cnf.append([-cells[i], -cells[j]])
    if len(cnf) > max_clauses:
        raise OutOfBudget
    return cnf


# ---------------------------------------------------------------------------
# DPLL with clause learning: two watched literals, first-UIP learning and
# backjumping, least-unassigned branching, positive first, no restarts


def _dpll(
    clauses: list[list[int]], nvars: int, deadline: float, max_learned: int
) -> list[int] | None:
    """Returns a complete assignment (list indexed 1..nvars) or None; raises
    OutOfBudget past the deadline, or when a conflict would make it hold
    more than max_learned learned clauses.

    Conflict-driven clause learning (Marques-Silva & Sakallah 1999): a
    conflict is analysed to its first unique implication point, the learned
    clause is watched like the input clauses, and the search backjumps to the
    learned clause's second-highest level, where the clause asserts its UIP
    literal.  It branches on the least unassigned variable, true first, with
    no restarts, activity, phase saving or clause deletion.  The literals of
    a clause must be on distinct variables, as _ground emits them; the
    caller's lists are left as they are.

    The answer is that of chronological DPLL with the same branching: None
    exactly when the clauses are unsatisfiable, otherwise their
    lexicographically greatest model in variable order, M.  Learned clauses
    follow from the input, so M satisfies them, and every literal that
    propagation derives from literals agreeing with M agrees with M.  A
    decision x = true where M has x false is wrong: every smaller variable
    is already assigned, so a model below it would agree with M up to x and
    have x true, greater than M.  No complete assignment lies below a wrong
    decision, and the search ends (each learned clause asserts a literal and
    nothing restarts), so the solver must backjump below the first one; after
    the backjump every literal on the trail still agrees with M.  A complete
    assignment has no wrong decision and is therefore M.  The clock is
    checked every 2048 propagated literals."""
    if not all(clauses):
        return None
    full = len(clauses) + max_learned  # clause count with max_learned learned
    clauses = list(clauses)  # learned clauses are added to this copy
    # The two literals each clause is watched on; a unit clause is not watched.
    first = [c[0] for c in clauses]
    second = [c[-1] for c in clauses]
    # Per literal l, indexed by l itself: a negative l counts from the end.
    size = 2 * nvars + 1
    value = [0] * size  # 1 true, -1 false, 0 unassigned
    watch: list[list[int]] = [[] for _ in range(size)]  # clauses watching l
    level = [0] * size  # decision level of a true literal
    reason = [0] * size  # the clause that implied a true literal
    seen = [False] * size  # true literals met in conflict analysis
    trail: list[int] = []
    limits: list[int] = []  # trail length at each decision
    for ci, c in enumerate(clauses):
        if len(c) > 1:
            watch[c[0]].append(ci)
            watch[c[-1]].append(ci)
        elif value[c[0]] == -1:
            return None
        elif not value[c[0]]:
            value[c[0]], value[-c[0]] = 1, -1
            trail.append(c[0])

    head = ticks = 0
    next_var = 1
    while True:
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            ticks += 1
            if ticks % 2048 == 0 and time.monotonic() >= deadline:
                raise OutOfBudget
            falsified = -lit
            watching = watch[falsified]
            if not watching:
                continue
            depth = len(limits)
            keep: list[int] = []
            for pos, ci in enumerate(watching):
                if first[ci] == falsified:
                    other, moved = second[ci], first
                else:
                    other, moved = first[ci], second
                v = value[other]
                if v == 1:
                    keep.append(ci)
                    continue
                # A false candidate is never taken, so neither is falsified.
                for cand in clauses[ci]:
                    if cand != other and value[cand] != -1:
                        moved[ci] = cand
                        watch[cand].append(ci)
                        break
                else:
                    keep.append(ci)
                    if v == -1:
                        keep.extend(watching[pos + 1 :])
                        conflict = clauses[ci]
                        break
                    value[other], value[-other] = 1, -1
                    level[other], reason[other] = depth, ci
                    trail.append(other)
            watch[falsified] = keep
            if conflict:
                break

        if not conflict:
            while next_var <= nvars and value[next_var]:
                next_var += 1
            if next_var > nvars:
                return value[: nvars + 1]
            limits.append(len(trail))
            value[next_var], value[-next_var] = 1, -1
            level[next_var] = len(limits)
            trail.append(next_var)
            continue
        if not limits:
            return None

        # First-UIP analysis: resolve the conflict clause with the reasons of
        # its current-level literals, latest first, until one is left.
        depth = len(limits)
        learned = [0]
        pending = 0
        index = len(trail)
        lits = conflict
        uip = 0
        while True:
            for q in lits:
                t = -q
                # Level 0 is false for good; uip is the literal lits implied.
                if not seen[t] and level[t] and q != uip:
                    seen[t] = True
                    if level[t] == depth:
                        pending += 1
                    else:
                        learned.append(q)
            index -= 1
            while not seen[trail[index]]:
                index -= 1
            uip = trail[index]
            seen[uip] = False
            pending -= 1
            if not pending:
                break
            lits = clauses[reason[uip]]
        learned[0] = -uip
        back = 0
        for k in range(1, len(learned)):
            seen[-learned[k]] = False
            if level[-learned[k]] > back:
                back = level[-learned[k]]
                learned[1], learned[k] = learned[k], learned[1]

        # Backjump; the decision of level back + 1 is the least variable undone.
        mark = limits[back]
        next_var = trail[mark]
        for lit in trail[mark:]:
            value[lit] = value[-lit] = 0
        del trail[mark:], limits[back:]
        head = mark
        lit = learned[0]
        value[lit], value[-lit] = 1, -1
        level[lit] = back
        trail.append(lit)
        if len(learned) > 1:
            if len(clauses) == full:
                raise OutOfBudget
            reason[lit] = len(clauses)
            watch[lit].append(len(clauses))
            watch[learned[1]].append(len(clauses))
            first.append(lit)
            second.append(learned[1])
            clauses.append(learned)


# ---------------------------------------------------------------------------
# Decode, verify, search


def _decode(assign: list[int], layout: _VarLayout) -> Interpretation:
    n = layout.n
    predicates: dict[str, dict[tuple[int, ...], bool]] = {}
    for name in sorted(layout.preds):
        arity = layout.preds[name]
        table: dict[tuple[int, ...], bool] = {}
        for args in itertools.product(range(n), repeat=arity):
            table[args] = assign[layout.var(("pred", name), args)] == 1
        predicates[name] = table
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    for name in sorted(layout.funcs):
        arity = layout.funcs[name]
        table_f: dict[tuple[int, ...], int] = {}
        for args in itertools.product(range(n), repeat=arity):
            for v in range(n):
                if assign[layout.var(("func", name), (*args, v))] == 1:
                    table_f[args] = v
                    break
        functions[name] = table_f
    return Interpretation(n, predicates, functions)


def verify_model(
    m: Interpretation, formulas: Sequence[Formula], deadline: float | None = None
) -> bool:
    """True iff every formula evaluates to true under the interpretation;
    OutOfBudget past the deadline, as for evaluate."""
    return all(evaluate(m, f, deadline) for f in formulas)


def find_model(
    formulas: Sequence[tuple[str, Formula]], limits: EngineLimits
) -> ModelOutcome:
    """Search domains of increasing size for a verified model of the formulas.

    The call's budget running out while clausifying, grounding, solving or
    verifying ends the search with ResourceOut.  A symbol used at two
    arities is an input error (ValueError)."""
    deadline = time.monotonic() + limits.timeout
    originals = [f for _, f in formulas]
    input_signature = formula_signature(originals)
    try:
        clauses = clausify(list(formulas), limits.max_clause_count)
        preds, funcs = clause_signature(clauses)
        constants = [sym for sym, arity in funcs.items() if arity == 0]  # pre-order
        # Clauses can drop tautological parts; decoded models must still
        # cover every symbol of the original formulas for verification.
        # Skolem functions are fresh, so they clash with no input symbol.
        for table, extra in zip((preds, funcs), input_signature):
            for sym, arity in extra.items():
                table.setdefault(sym, arity)
        splits: list[int] = []
        flats = [p for literals, _ in clauses for p in _split(_flatten(literals), splits)]
        for n in range(1, limits.max_domain_size + 1):
            if time.monotonic() >= deadline:
                raise OutOfBudget
            layout = _VarLayout(preds, funcs, splits, n)
            cnf = _ground(flats, layout, constants, deadline, limits.max_clause_count)
            result = _dpll(cnf, layout.count, deadline, limits.max_clause_count)
            if result is None:
                continue
            model = _decode(result, layout)
            if not verify_model(model, originals, deadline):
                raise RuntimeError("decoded model failed verification; grounding bug")
            return ModelOutcome(ModelKind.ModelFound, model=model)
    except OutOfBudget:
        return ModelOutcome(ModelKind.ResourceOut)
    return ModelOutcome(ModelKind.ExhaustedUpTo, exhausted_size=limits.max_domain_size)


def model_to_text(m: Interpretation) -> str:
    """Stable-ordered text rendering of an interpretation."""
    lines = [f"domain size: {m.domain_size}"]
    for name in sorted(m.functions):
        table = m.functions[name]
        for args in sorted(table):
            if args:
                lines.append(f"{name}({','.join(map(str, args))}) = {table[args]}")
            else:
                lines.append(f"{name} = {table[args]}")
    for name in sorted(m.predicates):
        table_p = m.predicates[name]
        for args in sorted(table_p):
            value = "true" if table_p[args] else "false"
            if args:
                lines.append(f"{name}({','.join(map(str, args))}) = {value}")
            else:
                lines.append(f"{name} = {value}")
    return "\n".join(lines)


def model_to_tables(m: Interpretation) -> dict:
    """JSON-friendly rendering of an interpretation."""
    return {
        "domain_size": m.domain_size,
        "functions": {
            name: {",".join(map(str, args)): val for args, val in sorted(table.items())}
            for name, table in sorted(m.functions.items())
        },
        "predicates": {
            name: {",".join(map(str, args)): val for args, val in sorted(table.items())}
            for name, table in sorted(m.predicates.items())
        },
    }
