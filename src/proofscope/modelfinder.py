"""MACE-style finite model search: ground, solve with DPLL, decode, verify.

Clauses are flattened in the style of Paradox (Claessen & Sorensson 2003)
so the propositional encoding stays polynomial in the domain size per
clause: every nested subterm gets a fresh variable, a positive equation
with a function term on one side becomes one function-cell literal, and a
negative equation between variables is removed by substitution.  Function
symbols contribute totality and functionality constraints.  Symmetry is
broken by a canonical constant ordering: with the constants of the clauses
in pre-order c0, c1, ..., each ci takes a value of at most i, and a value
d >= 1 only if some earlier constant takes d - 1.

Grounding is compiled once per flattened clause and domain size: each
literal becomes a linear form in the clause's variables, whose value at an
assignment is its propositional literal, so the instances of a clause come
from integer sums instead of per-instance lookups.  A size whose CNF would
hold more than the call's max_clause_count clauses ends the search with
ResourceOut.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Sequence

from .clauses import Literals, TooManyClauses, clause_signature, clausify
from .logic import EQUALITY, Formula, Interpretation, Term, evaluate, symbols

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
#   ("pred", name, argvar_indices, positive)
#   ("eq", var_index, var_index)  (positive; negative ones are substituted away)
#   ("func", name, argvar_indices, result_var_index, positive)
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
        lits.append(("func", head, arg_ids, aux, False))
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
                arg_ids = tuple(flat_term(a) for a in left[1])
                lits.append(("func", left[0], arg_ids, flat_term(right), True))
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
        tag = lit[0]
        if tag == "eq":
            out.append(("eq", renumber(lit[1]), renumber(lit[2])))
        elif tag == "pred":
            out.append(("pred", lit[1], tuple(map(renumber, lit[2])), lit[3]))
        else:
            args = tuple(map(renumber, lit[2]))
            out.append(("func", lit[1], args, renumber(lit[3]), lit[4]))
    return FlatClause(len(dense), tuple(dict.fromkeys(out)))


# ---------------------------------------------------------------------------
# Propositional variable layout


class _VarLayout:
    """Deterministic numbering of predicate atoms and function cells."""

    def __init__(self, preds: dict[str, int], funcs: dict[str, int], n: int):
        self.n = n
        self.pred_base: dict[str, int] = {}
        self.func_base: dict[str, int] = {}
        next_id = 1  # DIMACS-style 1-based variables
        # Function cells first: deciding them early lets the clause
        # constraints propagate into the predicate tables.
        for name in sorted(funcs):
            self.func_base[name] = next_id
            next_id += n ** (funcs[name] + 1)
        for name in sorted(preds):
            self.pred_base[name] = next_id
            next_id += n ** preds[name]
        self.count = next_id - 1
        self.preds = preds
        self.funcs = funcs

    def pred_var(self, name: str, args: tuple[int, ...]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.n + a
        return self.pred_base[name] + idx

    def func_var(self, name: str, args: tuple[int, ...], value: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.n + a
        return self.func_base[name] + idx * self.n + value


# A linear form over a flat clause's variables: (base, stride per variable).
_Form = tuple[int, list[int]]


def _compile(flat: FlatClause, layout: _VarLayout) -> tuple[list[_Form], list[_Form]]:
    """The literals of a flat clause as linear forms over its variables.

    A form (base, strides) takes the value base + sum(strides[i] * a[i]) under
    the assignment a.  A pred or func literal's form is its signed
    propositional literal, the position strides of _VarLayout summed per
    variable; an eq literal's form is a[i] - a[j], zero where it holds."""
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
        if lit[0] == "pred":
            base, cells, positive = layout.pred_base[lit[1]], lit[2], lit[3]
        else:
            base, cells, positive = layout.func_base[lit[1]], lit[2] + (lit[3],), lit[4]
        for power, var in enumerate(reversed(cells)):
            strides[var] += n**power
        sign = 1 if positive else -1
        literals.append((sign * base, [sign * stride for stride in strides]))
    return literals, equations


def _values(form: _Form, n: int) -> Iterator[int]:
    """The form's value at every assignment, in itertools.product order."""
    base, strides = form
    return map(sum, itertools.product((base,), *([s * v for v in range(n)] for s in strides)))


def _ground(
    flats: Sequence[FlatClause],
    layout: _VarLayout,
    constants: Sequence[str],
    deadline: float,
    max_clauses: int,
) -> tuple[list[list[int]], bool, bool]:
    """Ground clauses over the domain; returns (cnf, trivially_unsat, resource_out).

    Every model can be renumbered so that the constants, in the given order,
    take their values in order of first appearance: ci is at most i, and
    ci = d >= 1 only if some cj with j < i is d - 1.  Past the deadline, or
    once the CNF holds more than max_clauses clauses, grounding stops with
    resource_out set; both are checked every 4096 clause instances."""
    n = layout.n
    cnf: list[list[int]] = []
    for i, c in enumerate(constants):
        for d in range(1, n):
            clause = [-layout.func_var(c, (), d)]
            if d <= i:
                clause += [layout.func_var(prev, (), d - 1) for prev in constants[:i]]
            cnf.append(clause)
    for flat in flats:
        literals, equations = _compile(flat, layout)
        # An instance where some equation holds is satisfied: keep the others.
        if equations:
            kept = map(all, zip(*(_values(e, n) for e in equations)))
        else:
            kept = itertools.repeat(True)
        if not literals:
            if any(kept):
                return cnf, True, False
            continue
        rows = zip(*(_values(lit, n) for lit in literals))
        for _ in range(0, n**flat.nvars, 4096):
            if len(cnf) > max_clauses or time.monotonic() >= deadline:
                return cnf, False, True
            block = itertools.islice(rows, 4096), itertools.islice(kept, 4096)
            for row in itertools.compress(*block):
                uniq = set(row)
                # Two literals on one variable make a tautology; in any other
                # instance sorting by variable alone gives the clause order.
                if len({*map(abs, uniq)}) == len(uniq):
                    cnf.append(sorted(uniq, key=abs))
    # Totality and functionality for every function symbol.
    for name in sorted(layout.funcs):
        arity = layout.funcs[name]
        for args in itertools.product(range(n), repeat=arity):
            cells = [layout.func_var(name, args, v) for v in range(n)]
            cnf.append(cells)
            for i in range(n):
                for j in range(i + 1, n):
                    cnf.append([-cells[i], -cells[j]])
    return cnf, False, len(cnf) > max_clauses


# ---------------------------------------------------------------------------
# DPLL with two watched literals, first-unassigned branching, positive first


_TIMEOUT = "timeout"


def _dpll(clauses: list[list[int]], nvars: int, deadline: float):
    """Returns a complete assignment (list indexed 1..nvars), None, or _TIMEOUT."""
    for c in clauses:
        if not c:
            return None
    assign = [0] * (nvars + 1)  # 0 unassigned, 1 true, -1 false
    watch: dict[int, list[int]] = {}
    watched: list[list[int]] = []
    units: list[int] = []
    for ci, c in enumerate(clauses):
        if len(c) == 1:
            units.append(c[0])
            watched.append([c[0], c[0]])
        else:
            watched.append([c[0], c[1]])
            watch.setdefault(c[0], []).append(ci)
            watch.setdefault(c[1], []).append(ci)

    trail: list[int] = []
    levels: list[int] = []  # trail length at each decision
    decisions: list[tuple[int, bool]] = []  # (var, second_phase_tried)
    queue: list[int] = []
    ticks = 0

    def enqueue(lit: int) -> bool:
        v = assign[lit] if lit > 0 else -assign[-lit]
        if v == 1:
            return True
        if v == -1:
            return False
        assign[abs(lit)] = 1 if lit > 0 else -1
        trail.append(lit)
        queue.append(lit)
        return True

    def propagate() -> bool:
        nonlocal ticks
        while queue:
            lit = queue.pop()
            ticks += 1
            if ticks % 2048 == 0 and time.monotonic() >= deadline:
                raise TimeoutError
            falsified = -lit
            watching = watch.get(falsified)
            if not watching:
                continue
            keep: list[int] = []
            for pos, ci in enumerate(watching):
                w = watched[ci]
                other = w[0] if w[1] == falsified else w[1]
                # The value of a literal is assign[l] for l > 0, -assign[-l] else.
                v = assign[other] if other > 0 else -assign[-other]
                if v == 1:
                    keep.append(ci)
                    continue
                replacement = 0
                for cand in clauses[ci]:
                    if cand != other and cand != falsified and (
                        assign[cand] != -1 if cand > 0 else assign[-cand] != 1
                    ):
                        replacement = cand
                        break
                if replacement:
                    if w[0] == falsified:
                        w[0] = replacement
                    else:
                        w[1] = replacement
                    watch.setdefault(replacement, []).append(ci)
                    continue
                keep.append(ci)
                if v == -1:
                    keep.extend(watching[pos + 1 :])
                    watch[falsified] = keep
                    return False
                assign[abs(other)] = 1 if other > 0 else -1
                trail.append(other)
                queue.append(other)
            watch[falsified] = keep
        return True

    for u in units:
        if not enqueue(u):
            return None

    next_var = 1
    while True:
        try:
            ok = propagate()
        except TimeoutError:
            return _TIMEOUT
        if ok:
            while next_var <= nvars and assign[next_var] != 0:
                next_var += 1
            if next_var > nvars:
                return assign
            levels.append(len(trail))
            decisions.append((next_var, False))
            enqueue(next_var)  # positive polarity first
            continue
        # Conflict: backtrack chronologically.
        queue.clear()
        while decisions and decisions[-1][1]:
            mark = levels.pop()
            decisions.pop()
            while len(trail) > mark:
                assign[abs(trail.pop())] = 0
        if not decisions:
            return None
        var, _ = decisions[-1]
        mark = levels[-1]
        while len(trail) > mark:
            assign[abs(trail.pop())] = 0
        decisions[-1] = (var, True)
        enqueue(-var)
        next_var = var  # every variable below var was assigned before it


# ---------------------------------------------------------------------------
# Decode, verify, search


def _decode(
    assign: list[int], layout: _VarLayout, n: int
) -> Interpretation:
    predicates: dict[str, dict[tuple[int, ...], bool]] = {}
    for name in sorted(layout.preds):
        arity = layout.preds[name]
        table: dict[tuple[int, ...], bool] = {}
        for args in itertools.product(range(n), repeat=arity):
            table[args] = assign[layout.pred_var(name, args)] == 1
        predicates[name] = table
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    for name in sorted(layout.funcs):
        arity = layout.funcs[name]
        table_f: dict[tuple[int, ...], int] = {}
        for args in itertools.product(range(n), repeat=arity):
            for v in range(n):
                if assign[layout.func_var(name, args, v)] == 1:
                    table_f[args] = v
                    break
        functions[name] = table_f
    return Interpretation(n, predicates, functions)


def verify_model(
    m: Interpretation, formulas: Sequence[Formula], deadline: float | None = None
) -> bool:
    """True iff every formula evaluates to true under the interpretation;
    TimeoutError past the deadline, as for evaluate."""
    return all(evaluate(m, f, deadline) for f in formulas)


def find_model(
    formulas: Sequence[tuple[str, Formula]], limits: EngineLimits
) -> ModelOutcome:
    """Search domains of increasing size for a verified model of the formulas.

    A symbol used at two arities is an input error (ValueError)."""
    deadline = time.monotonic() + limits.timeout
    try:
        clauses = clausify(list(formulas), limits.max_clause_count)
    except TooManyClauses:
        return ModelOutcome(ModelKind.ResourceOut)
    originals = [f for _, f in formulas]
    preds, funcs = clause_signature(clauses)
    constants = [sym for sym, arity in funcs.items() if arity == 0]  # pre-order
    # Clauses can drop tautological parts; decoded models must still cover
    # every symbol of the original formulas for verification.  Skolem
    # functions are fresh, so a clash of arities is in the input.
    for f in originals:
        for sym, arity, is_predicate in symbols(f):
            table = preds if is_predicate else funcs
            if table.setdefault(sym, arity) != arity:
                raise ValueError(f"symbol {sym} used with arity {table[sym]} and arity {arity}")
    flats = [_flatten(literals) for literals, _ in clauses]
    for n in range(1, limits.max_domain_size + 1):
        if time.monotonic() >= deadline:
            return ModelOutcome(ModelKind.ResourceOut)
        layout = _VarLayout(preds, funcs, n)
        cnf, trivially_unsat, resource_out = _ground(
            flats, layout, constants, deadline, limits.max_clause_count
        )
        if resource_out:
            return ModelOutcome(ModelKind.ResourceOut)
        if trivially_unsat:
            continue
        result = _dpll(cnf, layout.count, deadline)
        if result == _TIMEOUT:
            return ModelOutcome(ModelKind.ResourceOut)
        if result is None:
            continue
        model = _decode(result, layout, n)
        try:
            verified = verify_model(model, originals, deadline)
        except TimeoutError:
            return ModelOutcome(ModelKind.ResourceOut)
        if not verified:
            raise RuntimeError("decoded model failed verification; grounding bug")
        return ModelOutcome(ModelKind.ModelFound, model=model)
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
