"""First-order syntax trees and evaluation over finite interpretations.

Terms are the clause form's plain tuples: a variable is its name (a `str`),
an application is `(head, args)` and a constant `(head, ())`.  An equation
s = t is the atom `Atom(EQUALITY, (s, t))`, the formula form of the clause
literal `(positive, EQUALITY, (s, t))`; equality is not a symbol of the
signature and is interpreted as identity.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator

Term = str | tuple[str, tuple["Term", ...]]  # variable name, or (head, args)

EQUALITY = "="

FORALL = "!"
EXISTS = "?"
QUANTIFIERS = (FORALL, EXISTS)

AND = "&"
OR = "|"
IMPLIES = "=>"
IMPLIED_BY = "<="
IFF = "<=>"
XOR = "<~>"
NOR = "~|"
NAND = "~&"
BINARY_CONNECTIVES = (AND, OR, IMPLIES, IMPLIED_BY, IFF, XOR, NOR, NAND)


@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Truth:
    value: bool  # $true / $false


@dataclass(frozen=True, slots=True)
class Not:
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Formula"
    right: "Formula"

    def __post_init__(self) -> None:
        if self.op not in BINARY_CONNECTIVES:
            raise ValueError(f"unknown connective {self.op!r}")


@dataclass(frozen=True, slots=True)
class Quantified:
    kind: str  # FORALL or EXISTS
    variables: tuple[str, ...]
    body: "Formula"

    def __post_init__(self) -> None:
        if self.kind not in QUANTIFIERS:
            raise ValueError(f"unknown quantifier {self.kind!r}")
        if not self.variables:
            raise ValueError("quantifier with empty variable list")


Formula = Atom | Truth | Not | Binary | Quantified


def term_symbols(t: Term) -> Iterator[tuple[str, int, bool]]:
    """(symbol, arity, False) for every function and constant occurrence in a
    term, in pre-order."""
    if not isinstance(t, str):
        yield t[0], len(t[1]), False
        for a in t[1]:
            yield from term_symbols(a)


def symbols(f: Formula) -> Iterator[tuple[str, int, bool]]:
    """(symbol, arity, is_predicate) for every symbol occurrence in a formula,
    in pre-order.  Equality is not a symbol."""
    if isinstance(f, Atom):
        if f.pred != EQUALITY:
            yield f.pred, len(f.args), True
        for a in f.args:
            yield from term_symbols(a)
    elif isinstance(f, Binary):
        yield from symbols(f.left)
        yield from symbols(f.right)
    elif isinstance(f, (Not, Quantified)):
        yield from symbols(f.body)


def _term_vars(t: Term, out: set[str]) -> None:
    if isinstance(t, str):
        out.add(t)
    else:
        for a in t[1]:
            _term_vars(a, out)


def free_variables(f: Formula) -> frozenset[str]:
    """Unbound variables of a formula; empty iff the formula is closed."""
    out: set[str] = set()

    def walk(g: Formula, bound: frozenset[str]) -> None:
        if isinstance(g, Atom):
            acc: set[str] = set()
            for a in g.args:
                _term_vars(a, acc)
            out.update(acc - bound)
        elif isinstance(g, Truth):
            pass
        elif isinstance(g, Not):
            walk(g.body, bound)
        elif isinstance(g, Binary):
            walk(g.left, bound)
            walk(g.right, bound)
        else:
            walk(g.body, bound | set(g.variables))

    walk(f, frozenset())
    return frozenset(out)


@dataclass
class Interpretation:
    """A finite interpretation: tables over the domain {0, ..., domain_size-1}.

    Equality is interpreted as identity on domain elements.  Function tables
    must be total; predicate tuples absent from a table read as false.
    """

    domain_size: int
    predicates: dict[str, dict[tuple[int, ...], bool]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)


class EvaluationError(Exception):
    """A symbol required by the formula is missing from the interpretation."""


class OutOfBudget(Exception):
    """A call's budget ran out: the deadline passed, or the call would hold
    more clauses than its limit."""


def _eval_term(m: Interpretation, t: Term, env: dict[str, int]) -> int:
    if isinstance(t, str):
        try:
            return env[t]
        except KeyError:
            raise EvaluationError(f"unbound variable {t}") from None
    head, terms = t
    table = m.functions.get(head)
    if table is None:
        raise EvaluationError(f"no function table for {head}/{len(terms)}")
    args = tuple([_eval_term(m, a, env) for a in terms])
    try:
        return table[args]
    except KeyError:
        raise EvaluationError(f"function table for {head} not total at {args}") from None


def _eval(m: Interpretation, f: Formula, env: dict[str, int], deadline: float | None) -> bool:
    if isinstance(f, Atom):
        table = m.predicates.get(f.pred)
        args = tuple([_eval_term(m, a, env) for a in f.args])
        if table is not None:
            return table.get(args, False)
        if f.pred == EQUALITY:
            return args[0] == args[1]
        raise EvaluationError(f"no predicate table for {f.pred}/{len(f.args)}")
    if isinstance(f, Truth):
        return f.value
    if isinstance(f, Not):
        return not _eval(m, f.body, env, deadline)
    if isinstance(f, Binary):
        a = _eval(m, f.left, env, deadline)
        b = _eval(m, f.right, env, deadline)
        if f.op == AND:
            return a and b
        if f.op == OR:
            return a or b
        if f.op == IMPLIES:
            return (not a) or b
        if f.op == IMPLIED_BY:
            return a or (not b)
        if f.op == IFF:
            return a == b
        if f.op == XOR:
            return a != b
        if f.op == NOR:
            return not (a or b)
        return not (a and b)  # NAND
    # Quantified
    rows = itertools.product(range(m.domain_size), repeat=len(f.variables))
    if deadline is not None:
        rows = _until(deadline, rows)
    bodies = (_eval(m, f.body, env | dict(zip(f.variables, row)), deadline) for row in rows)
    return all(bodies) if f.kind == FORALL else any(bodies)


def _until(deadline: float, rows: Iterator[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """rows, with OutOfBudget for the first one asked for past the deadline."""
    for row in rows:
        if time.monotonic() >= deadline:
            raise OutOfBudget
        yield row


def evaluate(m: Interpretation, f: Formula, deadline: float | None = None) -> bool:
    """Tarskian truth value of a closed formula under a finite interpretation.

    With a deadline (a time.monotonic() value), raises OutOfBudget once an
    assignment to a quantifier's variables is tried past it."""
    fv = free_variables(f)
    if fv:
        raise ValueError(f"formula is not closed; free variables {sorted(fv)}")
    return _eval(m, f, {}, deadline)
