"""The clause form, and origin-tracking clausification.

One clause form serves the prover and the model finder.  It is made of
plain tuples, which hash and compare in C, and its terms are the formulas'
own (`logic.Term`): a variable is its name (a `str`), an application is
`(head, args)` and a constant `(head, ())`.  A literal is
`(positive, pred, args)`, an equation the literal of the `logic.EQUALITY`
predicate, and a clause `(literals, origins)`.

`clausify` makes the clauses of each formula in one walk that carries the
polarity instead of rewriting negations: a quantifier that is universal
under its polarity binds fresh variables, an existential one Skolem terms
over the universals around it, and each connective joins its operands'
clauses by concatenation (a conjunction) or by product (a disjunction).

`query_formulas` names what either engine refutes for a theory: its
premises, then the negated conjecture under `ORIGIN_CONJECTURE`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .logic import (
    AND,
    EQUALITY,
    FORALL,
    IFF,
    IMPLIED_BY,
    IMPLIES,
    NAND,
    NOR,
    OR,
    XOR,
    Atom,
    Formula,
    Not,
    OutOfBudget,
    Quantified,
    Term,
    Truth,
    symbols,
    term_symbols,
)
from .tptp import Theory

# Reserved origin names; TPTP formula names cannot start with '$'.
ORIGIN_CONJECTURE = "$conjecture"
ORIGIN_EQUALITY = "$equality"

Literal = tuple[bool, str, tuple[Term, ...]]  # (positive, pred, args)
Literals = tuple[Literal, ...]
Clause = tuple[Literals, frozenset[str]]  # (literals, origins)
ClauseSet = tuple[Clause, ...]


# Each binary connective other than <=> and <~> in positive polarity: whether
# its clause form is a disjunction, and the polarities of its two operands.
# Negative polarity swaps & and | and flips both operands.
_SHAPES = {
    AND: (False, True, True),
    OR: (True, True, True),
    IMPLIES: (True, False, True),
    IMPLIED_BY: (True, True, False),
    NOR: (False, False, False),
    NAND: (True, False, False),
}


def query_formulas(t: Theory) -> list[tuple[str, Formula]]:
    """What an engine refutes for t: its premises by name, then the negated
    conjecture under ORIGIN_CONJECTURE if t has one."""
    named = [(p.name, p.formula) for p in t.premises]
    if t.conjecture is not None:
        named.append((ORIGIN_CONJECTURE, Not(t.conjecture.formula)))
    return named


def clausify(named: Sequence[tuple[str, Formula]], limit: float = math.inf) -> ClauseSet:
    """Convert named closed formulas to an equisatisfiable clause set.

    Every output clause's origin set is exactly the singleton name of its
    source formula.  Skolem symbols are fresh with respect to the whole input
    signature and numbered deterministically in input order.  Raises
    OutOfBudget before any clause list, or the whole set, would grow past
    limit clauses.
    """
    taken = {sym for _, f in named for sym, _, _ in symbols(f)}
    var_count = skolem_count = 0
    # Walks of <=> and <~> operands that took no V<n> or sk<n> name, by
    # (operand, polarity, substitution); each entry keeps the operand and the
    # substitution alive, so their ids stay unique.
    walks: dict[tuple[int, bool, int], tuple[list[Literals], Formula, dict[str, Term]]] = {}

    def join(disjoin: bool, a: list[Literals], b: list[Literals]) -> list[Literals]:
        """Clauses of the disjunction of a and b, or of their conjunction.
        A list that holds the empty clause is exactly [()], so a conjunction
        with it is [()]."""
        if not disjoin and (a == [()] or b == [()]):
            return [()]
        if (len(a) * len(b) if disjoin else len(a) + len(b)) > limit:
            raise OutOfBudget
        return [x + y for x in a for y in b] if disjoin else a + b

    def term(t: Term, subst: dict[str, Term]) -> Term:
        if isinstance(t, str):
            return subst.get(t, t)
        return (t[0], tuple([term(a, subst) for a in t[1]]))

    def operand(
        f: Formula, positive: bool, universals: tuple[str, ...], subst: dict[str, Term]
    ) -> list[Literals]:
        """cnf of an operand of <=> or <~>, which walks each operand under
        both polarities; reusing a walk that took no name keeps nested
        biconditionals linear."""
        key = (id(f), positive, id(subst))
        if key in walks:
            return walks[key][0]
        names = var_count, skolem_count
        out = cnf(f, positive, universals, subst)
        if (var_count, skolem_count) == names:
            walks[key] = (out, f, subst)
        return out

    def cnf(
        f: Formula, positive: bool, universals: tuple[str, ...], subst: dict[str, Term]
    ) -> list[Literals]:
        """Clauses of f, or of its negation, with the variables in subst
        replaced; a true formula has none and a false one the empty clause.
        Operands are walked, and V<n> and sk<n> names taken, in the order
        the negation normal form of f lists them; the engines' search order
        follows that numbering."""
        nonlocal var_count, skolem_count
        if isinstance(f, Atom):
            return [((positive, f.pred, tuple([term(a, subst) for a in f.args])),)]
        if isinstance(f, Truth):
            return [] if f.value == positive else [()]
        if isinstance(f, Not):
            return cnf(f.body, not positive, universals, subst)
        if isinstance(f, Quantified):
            inner = dict(subst)
            for v in f.variables:
                if (f.kind == FORALL) == positive:
                    var_count += 1
                    inner[v] = f"V{var_count}"
                    universals += (inner[v],)
                else:
                    skolem_count += 1
                    while f"sk{skolem_count}" in taken:
                        skolem_count += 1
                    inner[v] = (f"sk{skolem_count}", universals)
            return cnf(f.body, positive, universals, inner)
        l, r = f.left, f.right
        if f.op in (IFF, XOR):
            # l <=> r is (~l | r) & (l | ~r); its negation and l <~> r are
            # (l & ~r) | (~l & r).
            p = positive == (f.op == IFF)
            a = join(p, operand(l, not p, universals, subst), operand(r, p, universals, subst))
            b = join(p, operand(l, p, universals, subst), operand(r, not p, universals, subst))
            return join(not p, a, b)
        disjoin, left, right = _SHAPES[f.op]
        return join(
            disjoin == positive,
            cnf(l, left == positive, universals, subst),
            cnf(r, right == positive, universals, subst),
        )

    clauses: list[Clause] = []
    for name, f in named:
        origins = frozenset({name})
        clauses.extend((tuple(dict.fromkeys(lits)), origins) for lits in cnf(f, True, (), {}))
        if len(clauses) > limit:
            raise OutOfBudget
    return tuple(clauses)


def formula_signature(formulas: Iterable[Formula]) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function symbols (with arities) occurring in formulas,
    each in pre-order of first occurrence.  A symbol used at two arities is
    an input error (ValueError): the parser rejects such a theory, the
    library API does not, and neither engine can answer it soundly."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for f in formulas:
        for sym, arity, is_predicate in symbols(f):
            table = preds if is_predicate else funcs
            if table.setdefault(sym, arity) != arity:
                raise ValueError(f"symbol {sym} used with arity {table[sym]} and arity {arity}")
    return preds, funcs


def clause_signature(clauses: Iterable[Clause]) -> tuple[dict[str, int], dict[str, int]]:
    """Predicate and function symbols (with arities) occurring in clauses,
    each in pre-order of first occurrence."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for literals, _ in clauses:
        for _, pred, args in literals:
            if pred != EQUALITY:
                preds.setdefault(pred, len(args))
            for a in args:
                for sym, arity, _ in term_symbols(a):
                    funcs.setdefault(sym, arity)
    return preds, funcs


def contains_equality(clauses: Iterable[Clause]) -> bool:
    return any(pred == EQUALITY for literals, _ in clauses for _, pred, _ in literals)
