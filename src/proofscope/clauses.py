"""Clause forms and origin-tracking clausification (NNF, skolemize, distribute)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .logic import (
    AND,
    EXISTS,
    FORALL,
    IFF,
    IMPLIED_BY,
    IMPLIES,
    NOR,
    OR,
    XOR,
    App,
    Atom,
    Binary,
    Equality,
    Formula,
    Not,
    Quantified,
    Term,
    Truth,
    Var,
    symbols,
    term_symbols,
)

EQUALITY_PRED = "="

# Reserved origin names; TPTP formula names cannot start with '$'.
ORIGIN_CONJECTURE = "$conjecture"
ORIGIN_EQUALITY = "$equality"


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    pred: str  # EQUALITY_PRED for equality literals
    args: tuple[Term, ...]

    def __str__(self) -> str:
        if self.pred == EQUALITY_PRED:
            op = "=" if self.positive else "!="
            return f"{self.args[0]} {op} {self.args[1]}"
        body = self.pred if not self.args else f"{self.pred}({','.join(map(str, self.args))})"
        return body if self.positive else f"~{body}"


@dataclass(frozen=True, slots=True)
class Clause:
    literals: tuple[Literal, ...]
    origins: frozenset[str]

    def __str__(self) -> str:
        return "{" + " | ".join(map(str, self.literals)) + "}"


ClauseSet = tuple[Clause, ...]


def _nnf(f: Formula, positive: bool) -> Formula:
    """Negation normal form; eliminates every connective except & and |."""
    if isinstance(f, (Atom, Equality)):
        return f if positive else Not(f)
    if isinstance(f, Truth):
        return Truth(f.value if positive else not f.value)
    if isinstance(f, Not):
        return _nnf(f.body, not positive)
    if isinstance(f, Binary):
        l, r = f.left, f.right
        if f.op == AND:
            op = AND if positive else OR
            return Binary(op, _nnf(l, positive), _nnf(r, positive))
        if f.op == OR:
            op = OR if positive else AND
            return Binary(op, _nnf(l, positive), _nnf(r, positive))
        if f.op == IMPLIES:
            return _nnf(Binary(OR, Not(l), r), positive)
        if f.op == IMPLIED_BY:
            return _nnf(Binary(OR, l, Not(r)), positive)
        if f.op == IFF:
            both = Binary(AND, Binary(OR, Not(l), r), Binary(OR, l, Not(r)))
            return _nnf(both, positive)
        if f.op == XOR:
            return _nnf(Binary(IFF, l, r), not positive)
        if f.op == NOR:
            return _nnf(Binary(OR, l, r), not positive)
        return _nnf(Binary(AND, l, r), not positive)  # NAND
    # Quantified
    kind = f.kind if positive else (EXISTS if f.kind == FORALL else FORALL)
    return Quantified(kind, f.variables, _nnf(f.body, positive))


def _subst_term(t: Term, subst: dict[str, Term]) -> Term:
    if isinstance(t, Var):
        return subst.get(t.name, t)
    if not t.args:
        return t
    return App(t.head, tuple(_subst_term(a, subst) for a in t.args))


class _Skolemizer:
    """Outer (prenex-free, polarity-resolved) skolemization over NNF input."""

    def __init__(self, taken_symbols: set[str]):
        self.taken = taken_symbols
        self.sk_counter = 0
        self.var_counter = 0

    def fresh_skolem(self) -> str:
        while True:
            self.sk_counter += 1
            name = f"sk{self.sk_counter}"
            if name not in self.taken:
                self.taken.add(name)
                return name

    def fresh_var(self) -> str:
        self.var_counter += 1
        return f"V{self.var_counter}"

    def walk(self, f: Formula, universals: tuple[Var, ...], subst: dict[str, Term]) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(_subst_term(a, subst) for a in f.args))
        if isinstance(f, Equality):
            return Equality(_subst_term(f.left, subst), _subst_term(f.right, subst))
        if isinstance(f, Truth):
            return f
        if isinstance(f, Not):
            return Not(self.walk(f.body, universals, subst))
        if isinstance(f, Binary):
            return Binary(
                f.op,
                self.walk(f.left, universals, subst),
                self.walk(f.right, universals, subst),
            )
        # Quantified: NNF guarantees polarity is already resolved.
        if f.kind == FORALL:
            fresh = tuple(Var(self.fresh_var()) for _ in f.variables)
            inner = dict(subst)
            inner.update({old: new for old, new in zip(f.variables, fresh)})
            return self.walk(f.body, universals + fresh, inner)
        inner = dict(subst)
        for old in f.variables:
            inner[old] = App(self.fresh_skolem(), universals)
        return self.walk(f.body, universals, inner)


def _distribute(f: Formula) -> list[list[Literal]]:
    """CNF of a quantifier-free NNF matrix, as lists of literals.

    Truth constants fall out of the representation: a true formula yields no
    clauses, a false one yields the empty clause.
    """
    if isinstance(f, Atom):
        return [[Literal(True, f.pred, f.args)]]
    if isinstance(f, Equality):
        return [[Literal(True, EQUALITY_PRED, (f.left, f.right))]]
    if isinstance(f, Truth):
        return [] if f.value else [[]]
    if isinstance(f, Not):
        body = f.body
        if isinstance(body, Atom):
            return [[Literal(False, body.pred, body.args)]]
        if isinstance(body, Equality):
            return [[Literal(False, EQUALITY_PRED, (body.left, body.right))]]
        if isinstance(body, Truth):
            return [[]] if body.value else []
        raise ValueError(f"matrix not in NNF: negation of {type(body).__name__}")
    if isinstance(f, Binary):
        if f.op == AND:
            return _distribute(f.left) + _distribute(f.right)
        if f.op == OR:
            return [ci + cj for ci in _distribute(f.left) for cj in _distribute(f.right)]
    raise ValueError(f"matrix contains unexpected node {type(f).__name__}")


def _dedupe(lits: Iterable[Literal]) -> tuple[Literal, ...]:
    seen: set[Literal] = set()
    out: list[Literal] = []
    for l in lits:
        if l not in seen:
            seen.add(l)
            out.append(l)
    return tuple(out)


def clausify(named: Sequence[tuple[str, Formula]]) -> ClauseSet:
    """Convert named closed formulas to an equisatisfiable clause set.

    Every output clause's origin set is exactly the singleton name of its
    source formula.  Skolem symbols are fresh with respect to the whole input
    signature and numbered deterministically in input order.
    """
    sk = _Skolemizer({sym for _, f in named for sym, _, _ in symbols(f)})
    clauses: list[Clause] = []
    for name, f in named:
        nnf = _nnf(f, True)
        matrix = sk.walk(nnf, (), {})
        for lits in _distribute(matrix):
            clauses.append(Clause(_dedupe(lits), frozenset({name})))
    return tuple(clauses)


def clause_signature(clauses: Iterable[Clause]) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function symbols (with arities) occurring in clauses."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for c in clauses:
        for lit in c.literals:
            if lit.pred != EQUALITY_PRED:
                preds.setdefault(lit.pred, len(lit.args))
            for a in lit.args:
                for sym, arity, _ in term_symbols(a):
                    funcs.setdefault(sym, arity)
    return preds, funcs


def contains_equality(clauses: Iterable[Clause]) -> bool:
    return any(lit.pred == EQUALITY_PRED for c in clauses for lit in c.literals)
