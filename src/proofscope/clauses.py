"""The clause form, and origin-tracking clausification (NNF, skolemize,
distribute).

One clause form serves the prover and the model finder.  It is made of
plain tuples, which hash and compare in C: a variable is its name (a
`str`), an application is `(head, args)` and a constant `(head, ())`, a
literal is `(positive, pred, args)` and a clause `(literals, origins)`.
"""

from __future__ import annotations

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
)

EQUALITY_PRED = "="

# Reserved origin names; TPTP formula names cannot start with '$'.
ORIGIN_CONJECTURE = "$conjecture"
ORIGIN_EQUALITY = "$equality"

ClauseTerm = str | tuple[str, tuple["ClauseTerm", ...]]  # variable name, or (head, args)
Literal = tuple[bool, str, tuple[ClauseTerm, ...]]  # (positive, pred, args)
Literals = tuple[Literal, ...]
Clause = tuple[Literals, frozenset[str]]  # (literals, origins)
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


def _clause_term(t: Term) -> ClauseTerm:
    if isinstance(t, Var):
        return t.name
    return (t.head, tuple(_clause_term(a) for a in t.args))


def _literal(positive: bool, f: Atom | Equality) -> Literal:
    if isinstance(f, Atom):
        return (positive, f.pred, tuple(_clause_term(a) for a in f.args))
    return (positive, EQUALITY_PRED, (_clause_term(f.left), _clause_term(f.right)))


def _distribute(f: Formula) -> list[list[Literal]]:
    """CNF of a quantifier-free NNF matrix, as lists of literals.

    Truth constants fall out of the representation: a true formula yields no
    clauses, a false one yields the empty clause.
    """
    if isinstance(f, (Atom, Equality)):
        return [[_literal(True, f)]]
    if isinstance(f, Truth):
        return [] if f.value else [[]]
    if isinstance(f, Not):
        body = f.body
        if isinstance(body, (Atom, Equality)):
            return [[_literal(False, body)]]
        if isinstance(body, Truth):
            return [[]] if body.value else []
        raise ValueError(f"matrix not in NNF: negation of {type(body).__name__}")
    if isinstance(f, Binary):
        if f.op == AND:
            return _distribute(f.left) + _distribute(f.right)
        if f.op == OR:
            return [ci + cj for ci in _distribute(f.left) for cj in _distribute(f.right)]
    raise ValueError(f"matrix contains unexpected node {type(f).__name__}")


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
            clauses.append((tuple(dict.fromkeys(lits)), frozenset({name})))
    return tuple(clauses)


def function_symbols(t: ClauseTerm, out: dict[str, int]) -> None:
    """Record each function and constant symbol of t with its arity, in
    pre-order; a symbol already in out keeps its entry."""
    if not isinstance(t, str):
        out.setdefault(t[0], len(t[1]))
        for a in t[1]:
            function_symbols(a, out)


def clause_signature(clauses: Iterable[Clause]) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function symbols (with arities) occurring in clauses,
    each in pre-order of first occurrence."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for literals, _ in clauses:
        for _, pred, args in literals:
            if pred != EQUALITY_PRED:
                preds.setdefault(pred, len(args))
            for a in args:
                function_symbols(a, funcs)
    return preds, funcs


def contains_equality(clauses: Iterable[Clause]) -> bool:
    return any(pred == EQUALITY_PRED for literals, _ in clauses for _, pred, _ in literals)
