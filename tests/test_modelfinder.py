"""Finite model finder tests: soundness, least sizes, exhaustion, limits."""

import hashlib
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from proofscope import modelfinder
from proofscope.analysis import QuerySession, consistency_triple
from proofscope.clauses import OutOfBudget, clause_signature, clausify, contains_equality
from proofscope.engines import BuiltinModelFinder, EngineLimits
from proofscope.logic import Not, evaluate
from proofscope.modelfinder import (
    ModelKind,
    find_model,
    model_to_text,
    verify_model,
)
from proofscope.logic import EQUALITY, Atom, Interpretation, Not, Quantified
from proofscope.tptp import parse_file

from conftest import PUZ001, enumerate_interpretations, mk, random_closed_formula


def formulas_of(text):
    return [(f.name, f.formula) for f in mk(text).formulas]


def flat_clause(formula_text):
    [(literals, _)] = clausify(formulas_of(f"fof(a1, axiom, {formula_text})."))
    return modelfinder._flatten(literals)


GROUP_AXIOMS = """
fof(assoc, axiom, ![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))).
fof(left_identity, axiom, ![X]: mult(e,X) = X).
fof(left_inverse, axiom, ![X]: mult(inv(X),X) = e).
"""

PIGEONHOLE_5_4 = """
fof(distinct, axiom, p1 != p2 & p1 != p3 & p1 != p4 & p1 != p5
    & p2 != p3 & p2 != p4 & p2 != p5 & p3 != p4 & p3 != p5 & p4 != p5).
fof(pigeons, axiom, pigeon(p1) & pigeon(p2) & pigeon(p3)
    & pigeon(p4) & pigeon(p5)).
fof(holes, axiom, ![X]: (hole(X) <=> (X = h1 | X = h2 | X = h3 | X = h4))).
fof(placed, axiom, ![X]: (pigeon(X) => ?[H]: (hole(H) & in(X,H)))).
fof(no_share, axiom, ![X,Y,H]: ((in(X,H) & in(Y,H)) => X = Y)).
"""

PIGEONHOLE_6_5 = """
fof(distinct, axiom, p1 != p2 & p1 != p3 & p1 != p4 & p1 != p5 & p1 != p6
    & p2 != p3 & p2 != p4 & p2 != p5 & p2 != p6 & p3 != p4 & p3 != p5
    & p3 != p6 & p4 != p5 & p4 != p6 & p5 != p6).
fof(pigeons, axiom, pigeon(p1) & pigeon(p2) & pigeon(p3)
    & pigeon(p4) & pigeon(p5) & pigeon(p6)).
fof(holes, axiom, ![X]: (hole(X) <=> (X = h1 | X = h2 | X = h3 | X = h4 | X = h5))).
fof(placed, axiom, ![X]: (pigeon(X) => ?[H]: (hole(H) & in(X,H)))).
fof(no_share, axiom, ![X,Y,H]: ((in(X,H) & in(Y,H)) => X = Y)).
"""


def power(k):
    """a multiplied by itself k times, as mult(a,mult(a,...))."""
    return "a" if k == 1 else f"mult(a,{power(k - 1)})"


def cyclic_order(k):
    """Group axioms and an element a of order exactly k: the least model is Z_k."""
    lines = [f"fof(order, axiom, {power(k)} = e)."]
    lines += [f"fof(order_{j}, axiom, {power(j)} != e)." for j in range(1, k)]
    return GROUP_AXIOMS + "\n".join(lines)


class TestFlatten:
    """Paradox-style flattening: a positive equation with a function term on
    one side is one function-cell literal, a negative variable equation is
    substituted away."""

    def test_associativity_has_six_variables(self):
        flat = flat_clause("![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))")
        assert flat.nvars == 6
        assert not any(lit[0] == "eq" for lit in flat.literals)

    def test_left_identity_has_two_variables(self):
        flat = flat_clause("![X]: mult(e,X) = X")
        assert flat.nvars == 2
        assert [lit[0] for lit in flat.literals] == ["func", "func"]

    def test_negative_variable_equation_is_substituted(self):
        flat = flat_clause("![X]: f(X) != X")
        assert flat.nvars == 1
        assert flat.literals == (("func", "f", (0, 0), False),)

    def test_variable_equation_stays(self):
        flat = flat_clause("![X,Y]: X = Y")
        assert flat.nvars == 2
        assert flat.literals == (("eq", 0, 1),)

    def test_variables_are_numbered_densely(self):
        flat = flat_clause("![X,Y,Z]: (X != Y | Y != Z | r(X, Z))")
        assert flat.nvars == 1
        assert flat.literals == (("pred", "r", (0, 0), True),)


# A signature for random flat clauses: name -> arity.
FLAT_PREDS = {"p": 0, "q": 1, "r": 2}
FLAT_FUNCS = {"c": 0, "d": 0, "f": 1, "g": 2}


@st.composite
def flat_clauses(draw, min_vars=1, max_vars=4, max_literals=4):
    """Random flat clauses over FLAT_PREDS and FLAT_FUNCS, literal-less ones
    included.  A literal may take the table of an earlier one, with its own
    cell and sign, so that two literals of one table meet or swap places
    from one instance to the next."""
    nvars = draw(st.integers(min_vars, max_vars))
    var = st.integers(0, nvars - 1)
    literals = []
    for _ in range(draw(st.integers(0, max_literals))):
        used = sorted({lit[:2] for lit in literals if lit[0] != "eq"}, key=repr)
        kind = draw(st.sampled_from(["pred", "func", "eq"] + (["again"] if used else [])))
        if kind == "eq":
            literals.append(("eq", draw(var), draw(var)))
            continue
        if kind == "again":
            kind, name = draw(st.sampled_from(used))
        else:
            name = draw(st.sampled_from(sorted(FLAT_PREDS if kind == "pred" else FLAT_FUNCS)))
        table = FLAT_PREDS if kind == "pred" else FLAT_FUNCS
        width = table[name] + (kind == "func")
        cell = tuple(draw(var) for _ in range(width))
        literals.append((kind, name, cell, draw(st.booleans())))
    return modelfinder.FlatClause(nvars, tuple(literals))


@given(flat=flat_clauses(), n=st.integers(1, 4))
def test_compiled_literals_agree_with_the_layout(flat, n):
    """At every assignment, a compiled pred or func literal is the signed
    variable of its instance's cell in its table, and a compiled equation
    is zero exactly where its two variables are equal."""
    layout = modelfinder._VarLayout(FLAT_PREDS, FLAT_FUNCS, [], n)
    literals, equations = modelfinder._compile(flat, layout)
    assignments = list(itertools.product(range(n), repeat=flat.nvars))
    want_literals, want_equations = [], []
    for lit in flat.literals:
        if lit[0] == "eq":
            want_equations.append([a[lit[1]] == a[lit[2]] for a in assignments])
            continue
        cells = [layout.var(lit[:2], tuple(a[i] for i in lit[2])) for a in assignments]
        want_literals.append([v if lit[-1] else -v for v in cells])
    assert [modelfinder._column(f, n) for f in literals] == want_literals
    assert [[v == 0 for v in modelfinder._column(f, n)] for f in equations] == want_equations


def ground_instance_by_instance(flats, layout, constants):
    """_ground's CNF worked out one instance at a time: each table literal's
    cell through layout.var, an instance where an equation holds skipped,
    equal literals merged, a tautology dropped and the rest sorted by
    variable."""
    n = layout.n
    cnf = []
    for i, c in enumerate(constants):
        for d in range(1, n):
            clause = [-layout.var(("func", c), (d,))]
            if d <= i:
                clause += [layout.var(("func", prev), (d - 1,)) for prev in constants[:i]]
            cnf.append(clause)
    for flat in flats:
        table_literals = [lit for lit in flat.literals if lit[0] != "eq"]
        equations = [lit for lit in flat.literals if lit[0] == "eq"]
        for a in itertools.product(range(n), repeat=flat.nvars):
            if any(a[i] == a[j] for _, i, j in equations):
                continue
            clause = set()
            for lit in table_literals:
                v = layout.var(lit[:2], tuple(a[i] for i in lit[2]))
                clause.add(v if lit[3] else -v)
            if not clause:
                cnf.append([])
                return cnf
            if not any(-v in clause for v in clause):
                cnf.append(sorted(clause, key=abs))
    for name in sorted(layout.funcs):
        for args in itertools.product(range(n), repeat=layout.funcs[name]):
            cells = [layout.var(("func", name), (*args, v)) for v in range(n)]
            cnf.append(cells)
            cnf += [[-x, -y] for x, y in itertools.combinations(cells, 2)]
    return cnf


FLAT_CONSTANTS = sorted(name for name, arity in FLAT_FUNCS.items() if arity == 0)


@settings(max_examples=300)
@given(
    flats=st.lists(flat_clauses(), max_size=4),
    n=st.integers(1, 4),
    constants=st.permutations(FLAT_CONSTANTS).flatmap(
        lambda order: st.integers(0, len(order)).map(lambda k: order[:k])
    ),
)
def test_ground_agrees_with_instance_by_instance_grounding(flats, n, constants):
    """The CNF is the clause list of every instance in turn, literal for
    literal, and ends at the first instance with no literal left."""
    layout = modelfinder._VarLayout(FLAT_PREDS, FLAT_FUNCS, [], n)
    cnf = modelfinder._ground(flats, layout, constants, time.monotonic() + 60, 10**9)
    assert cnf == ground_instance_by_instance(flats, layout, constants)


@settings(max_examples=8)
@given(flat=flat_clauses(min_vars=7, max_vars=7, max_literals=6))
@example(
    flat=modelfinder.FlatClause(
        7,
        (
            ("func", "g", (0, 1, 2), False),
            ("func", "g", (1, 2, 3), False),
            ("pred", "r", (3, 3), True),
            ("pred", "r", (4, 5), False),
            ("eq", 5, 6),
            ("pred", "q", (6,), True),
        ),
    )
)
def test_ground_agrees_with_instance_by_instance_grounding_over_many_instances(flat):
    """Seven variables at size 4 are 16,384 instances of one clause, more
    than grounding takes at once."""
    layout = modelfinder._VarLayout(FLAT_PREDS, FLAT_FUNCS, [], 4)
    cnf = modelfinder._ground([flat], layout, [], time.monotonic() + 60, 10**9)
    assert cnf == ground_instance_by_instance([flat], layout, [])


def layout_tables(preds, funcs, splits):
    """The tables of a layout in numbering order, each with its width:
    function tables by name, then predicate tables by name, then split
    tables by index."""
    return (
        [(("func", name), funcs[name] + 1) for name in sorted(funcs)]
        + [(("pred", name), preds[name]) for name in sorted(preds)]
        + [(("pred", index), arity) for index, arity in enumerate(splits)]
    )


# Random layouts: predicate and function signatures, which may share names
# as the library API allows, split arities and a domain size.
layout_signatures = st.tuples(
    st.dictionaries(st.sampled_from("abfp"), st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from("abfp"), st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.integers(1, 4),
)


@settings(max_examples=300)
@given(signature=layout_signatures)
def test_layout_numbers_every_cell_once_in_table_order(signature):
    """The cells of the tables, table after table and each table's in
    itertools.product order, are the variables 1..count, so the signature's
    variables come before the split atoms' as _split's greatest-model
    argument needs.  A function cell ends with its value: the totality
    clause of each argument tuple holds its cells for every value."""
    preds, funcs, splits, n = signature
    layout = modelfinder._VarLayout(preds, funcs, splits, n)
    numbers = [
        layout.var(table, cell)
        for table, width in layout_tables(preds, funcs, splits)
        for cell in itertools.product(range(n), repeat=width)
    ]
    assert numbers == list(range(1, layout.count + 1))
    assert signature_variables(layout) == layout.count - sum(n**arity for arity in splits)
    cnf = modelfinder._ground([], layout, [], time.monotonic() + 60, 10**9)
    totality = [
        [layout.var(("func", name), args + (value,)) for value in range(n)]
        for name in sorted(funcs)
        for args in itertools.product(range(n), repeat=funcs[name])
    ]
    assert [clause for clause in cnf if clause[0] > 0] == totality


@given(signature=layout_signatures, seed=st.integers(0, 2**32 - 1))
def test_decode_reads_back_the_interpretation_of_an_assignment(signature, seed):
    """An assignment that sets the cells of a random interpretation's tables,
    and the split atoms at random, decodes to that interpretation."""
    preds, funcs, splits, n = signature
    rng = random.Random(seed)
    layout = modelfinder._VarLayout(preds, funcs, splits, n)
    predicates = {
        name: {args: rng.random() < 0.5 for args in itertools.product(range(n), repeat=arity)}
        for name, arity in preds.items()
    }
    functions = {
        name: {args: rng.randrange(n) for args in itertools.product(range(n), repeat=arity)}
        for name, arity in funcs.items()
    }
    assign = [0] + [rng.choice((1, -1)) for _ in range(layout.count)]
    for name, table in predicates.items():
        for args, value in table.items():
            assign[layout.var(("pred", name), args)] = 1 if value else -1
    for name, table in functions.items():
        for args, value in table.items():
            for v in range(n):
                assign[layout.var(("func", name), args + (v,))] = 1 if v == value else -1
    assert modelfinder._decode(assign, layout) == Interpretation(n, predicates, functions)


def split_by_definition(flat):
    """_split's rule with every cut worked out again from the literals, as
    (pieces, splits)."""
    literals = list(flat.literals)
    variables = [modelfinder._variables(lit) for lit in literals]
    splits, done, work = [], [], [list(range(len(literals)))]
    while work:
        ids = work.pop()
        every = set().union(*(variables[i] for i in ids))
        cuts = []
        for x in sorted(every):
            a = [i for i in ids if x in variables[i]]
            b = [i for i in ids if x not in variables[i]]
            va = set().union(*(variables[i] for i in a))
            vb = set().union(*(variables[i] for i in b))
            if a and b and len(va) < len(every) and len(vb) < len(every):
                cuts.append((max(len(va), len(vb)), len(va) + len(vb), x, a, b, va & vb))
        if not cuts:
            done.append(ids)
            continue
        *_, a, b, shared = min(cuts)
        name, args = len(splits), tuple(sorted(shared))
        splits.append(len(args))
        literals += [("pred", name, args, True), ("pred", name, args, False)]
        variables += [shared, shared]
        work += [b + [len(literals) - 1], a + [len(literals) - 2]]
    if len(done) == 1:
        return [flat], splits
    pieces = [modelfinder._substitute([literals[i] for i in sorted(ids)], []) for ids in done]
    return pieces, splits


class TestSplit:
    """Clause splitting: a cut at the variable x takes the literals on x as
    A, the rest as B, and links A | s(S) and ~s(S) | B by the variables S
    they share."""

    def test_associativity_becomes_two_five_variable_clauses(self):
        flat = flat_clause("![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))")
        splits = []
        pieces = modelfinder._split(flat, splits)
        assert [piece.nvars for piece in pieces] == [5, 5]
        assert splits == [4]

    def test_a_wide_clause_splits_without_recursion(self):
        """2,000 literals on as many variables come apart one literal per
        cut, 1,999 cuts deep."""
        flat = modelfinder.FlatClause(2000, tuple(("pred", "q", (i,), True) for i in range(2000)))
        splits = []
        start = time.monotonic()
        pieces = modelfinder._split(flat, splits)
        assert time.monotonic() - start < 1
        assert (len(pieces), max(piece.nvars for piece in pieces)) == (2000, 1)
        assert splits == [0] * 1999

    @settings(max_examples=300)
    @given(flat=flat_clauses(max_vars=7, max_literals=8))
    def test_split_follows_its_rule(self, flat):
        """_split keeps each cut's size up to date as pieces come off; the
        definition works every cut out afresh."""
        splits = []
        assert (modelfinder._split(flat, splits), splits) == split_by_definition(flat)

    @given(flat=flat_clauses(), n=st.integers(1, 3))
    def test_split_keeps_the_greatest_model(self, flat, n):
        """Every piece has fewer variables than its clause.  The pieces have
        a model at size n exactly when the clause has one, and the solver's
        model agrees on the signature's variables, which come first."""
        splits = []
        pieces = modelfinder._split(flat, splits)
        if pieces != [flat]:
            assert all(piece.nvars < flat.nvars for piece in pieces)
        deadline = time.monotonic() + 60
        answers = []
        for flats, split in (([flat], []), (pieces, splits)):
            layout = modelfinder._VarLayout(FLAT_PREDS, FLAT_FUNCS, split, n)
            cnf = modelfinder._ground(flats, layout, [], deadline, 10**9)
            answer = modelfinder._dpll(cnf, layout.count, deadline, 10**9)
            answers.append(answer and answer[: signature_variables(layout) + 1])
        assert answers[0] == answers[1]


class TestFindModel:
    def test_single_fact_size_one(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p(a))."),
            EngineLimits(timeout=10, max_domain_size=3),
        )
        assert out.kind == ModelKind.ModelFound
        assert out.model.domain_size == 1

    def test_least_size_two(self):
        formulas = formulas_of("fof(a1, axiom, ! [X] : ? [Y] : X != Y).")
        # oracle: no size-1 interpretation satisfies it
        fs = [f for _, f in formulas]
        assert not any(
            all(evaluate(m, f) for f in fs) for m in enumerate_interpretations(fs, 1)
        )
        out = find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))
        assert out.kind == ModelKind.ModelFound
        assert out.model.domain_size == 2

    def test_least_size_three(self):
        formulas = formulas_of(
            "fof(a1, axiom, ? [X,Y,Z] : (X != Y & X != Z & Y != Z))."
        )
        out = find_model(formulas, EngineLimits(timeout=10, max_domain_size=4))
        assert out.kind == ModelKind.ModelFound
        assert out.model.domain_size == 3

    def test_propositional_contradiction_exhausts(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p). fof(a2, axiom, ~p)."),
            EngineLimits(timeout=10, max_domain_size=3),
        )
        assert out.kind == ModelKind.ExhaustedUpTo
        assert out.exhausted_size == 3
        assert out.model is None

    def test_function_totality(self):
        out = find_model(
            formulas_of(
                "fof(a1, axiom, ! [X] : p(f(X))). fof(a2, axiom, ? [X] : ~p(X))."
            ),
            EngineLimits(timeout=10, max_domain_size=4),
        )
        assert out.kind == ModelKind.ModelFound
        m = out.model
        table = m.functions["f"]
        assert set(table.keys()) == {(i,) for i in range(m.domain_size)}

    def test_resource_out(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p)."),
            EngineLimits(timeout=0.000001, max_domain_size=3),
        )
        assert out.kind == ModelKind.ResourceOut

    def test_symbol_at_two_arities_is_an_input_error(self, monkeypatch):
        """The parser rejects such a theory, the library API does not: the
        finder names the clash before it grounds anything."""

        def no_grounding(*args):
            raise AssertionError("grounded a clashing signature")

        monkeypatch.setattr(modelfinder, "_ground", no_grounding)
        formulas = [
            ("a", Quantified("?", ("X",), Atom("p", (("f", ("X",)),)))),
            ("b", Not(Not(Atom("p")))),
        ]
        with pytest.raises(ValueError, match=r"symbol p used with arity 1 and arity 0"):
            find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))

    def test_a_name_can_be_a_predicate_and_a_constant(self):
        """The library API lets p name a predicate and a constant at once:
        they are two tables, so p(p) & ~p(c) has a model of size 2 with both,
        and so has p(p) & p(c) & c != p.  A layout keyed by name alone would
        give both one table, whose totality lets p hold of one element only."""
        p_of_p, p_of_c = Atom("p", (("p", ()),)), Atom("p", (("c", ()),))
        limits = EngineLimits(timeout=10, max_domain_size=3)
        out = find_model([("a", p_of_p), ("b", Not(p_of_c))], limits)
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 2)
        assert (set(out.model.predicates), set(out.model.functions)) == ({"p"}, {"c", "p"})
        assert out.model.predicates["p"][(out.model.functions["p"][()],)]
        assert not out.model.predicates["p"][(out.model.functions["c"][()],)]
        apart = Not(Atom(EQUALITY, (("c", ()), ("p", ()))))
        out = find_model([("a", p_of_p), ("b", p_of_c), ("c", apart)], limits)
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 2)
        assert out.model.predicates["p"] == {(0,): True, (1,): True}

    def test_input_symbols_never_meet_split_atoms(self):
        """A split predicate is named by an int, so no input symbol shares its
        atoms, '$'-prefixed ones from the library API included."""
        assoc = "![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))"
        splits = []
        modelfinder._split(flat_clause(assoc), splits)
        layout = modelfinder._VarLayout({"$split0": 4, "0": 4}, {"mult": 2}, splits, 2)
        assert layout.base == {
            ("func", "mult"): 1,
            ("pred", "$split0"): 9,
            ("pred", "0"): 25,
            ("pred", 0): 41,
        }
        # Were the split atom's table that of $split0, this would leave
        # associativity's first piece without its split literal: no model.
        empty = Quantified("!", ("X", "Y", "Z", "W"), Not(Atom("$split0", ("X", "Y", "Z", "W"))))
        formulas = formulas_of(f"fof(assoc, axiom, {assoc}).") + [("a", empty)]
        outcome = find_model(formulas, EngineLimits(timeout=10, max_domain_size=2))
        assert outcome.kind is ModelKind.ModelFound

    @pytest.mark.parametrize("depth", [20, 100])
    def test_a_deep_ground_term_is_found_at_once(self, depth):
        """Flattening gives q = f(...f(c)...) depth + 1 variables, so the
        clause has 2**(depth + 1) instances at size 2; split, none of its
        pieces has more than two variables."""
        term = "c"
        for _ in range(depth):
            term = f"f({term})"
        formulas = formulas_of(f"fof(a1, axiom, q = {term}). fof(a2, axiom, c != q).")
        out = find_model(formulas, EngineLimits(timeout=1, max_domain_size=2))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 2)

    def test_determinism(self):
        formulas = formulas_of(
            "fof(a1, axiom, ! [X] : (p(X) | q(X))). fof(a2, axiom, ? [X] : ~p(X))."
        )
        a = find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))
        b = find_model(formulas, EngineLimits(timeout=10, max_domain_size=3))
        assert a.model == b.model

    def test_dreadbury_countermodel_for_wrong_killer(self, puz001):
        """The mystery has a unique answer, so a charles-based accusation
        admits a countermodel."""
        axioms = [(p.name, p.formula) for p in puz001.premises]
        wrong = mk("fof(goal, conjecture, killed(charles, agatha)).").conjecture
        out = find_model(
            axioms + [("$neg", Not(wrong.formula))],
            EngineLimits(timeout=30, max_domain_size=4),
        )
        assert out.kind == ModelKind.ModelFound
        assert verify_model(out.model, [f for _, f in axioms])


def record_ground_sizes(monkeypatch):
    """A dict that fills with the CNF size _ground returns per domain size."""
    ground_sizes = {}
    ground = modelfinder._ground

    def counting_ground(flats, layout, *rest):
        cnf = ground(flats, layout, *rest)
        ground_sizes[layout.n] = len(cnf)
        return cnf

    monkeypatch.setattr(modelfinder, "_ground", counting_ground)
    return ground_sizes


NON_ABELIAN = GROUP_AXIOMS + "fof(nc, axiom, ~ ![X,Y]: mult(X,Y) = mult(Y,X))."


class TestTextbookFamilies:
    def test_least_non_abelian_group_has_six_elements(self, monkeypatch):
        ground_sizes = record_ground_sizes(monkeypatch)
        formulas = formulas_of(NON_ABELIAN)
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=6))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 6)
        assert verify_model(out.model, [f for _, f in formulas])
        # 235,477 with a variable per side, 45,123 with associativity unsplit
        assert ground_sizes[6] < 20_000

    def test_five_pigeons_do_not_fit_four_holes(self):
        formulas = formulas_of(PIGEONHOLE_5_4)
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=5))
        assert (out.kind, out.exhausted_size) == (ModelKind.ExhaustedUpTo, 5)

    def test_element_of_order_four_needs_four_elements(self):
        formulas = formulas_of(cyclic_order(4))
        out = find_model(formulas, EngineLimits(timeout=60, max_domain_size=5))
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, 4)
        assert verify_model(out.model, [f for _, f in formulas])


GROUP_COMMUTATIVITY = GROUP_AXIOMS + (
    "fof(commutative, conjecture, ![X,Y]: mult(X,Y) = mult(Y,X))."
)

# Per problem: the largest domain searched, the domain sizes its consistency
# queries ground in order, and the sha256 of the reprs of every _ground output,
# of every _dpll result and of every _dpll result cut to the variables of the
# signature's cells and atoms, one per line.  The digests were taken when
# _ground returned (cnf, falsified, resource_out) and the solver did not run
# on a falsified CNF, so a CNF that ends with the empty clause is recorded
# without it as falsified, and the solver's answer on it is left out.
STAGE_PINS = {
    "cyclic_order_2": (
        5, [1, 2],
        "012e4088aa6a9b537f2da92e2feacd264b1fc201b80ae83380b9e5c988b7f5d5",
        "ec453df02bac548c054dfd28390840b18686d5dadbe2de4c8fc3728830b20ce7",
        "682b8ea9f7175c89cb328693af1869773b36e88f36aa25c812ea20883a438782",
    ),
    "cyclic_order_3": (
        5, [1, 2, 3],
        "3b371bd1024221b1d9d99bbae2ee3f3675536058b13b4299873432ebd862134f",
        "5501c6b40b86e87563b32c6ad1ad9242cccc40a328814cbc9af9936c84bce5a9",
        "4b193ad93998150cce93b58de14af631d9cc17398d16e04bbbd8221d5acaaa07",
    ),
    "cyclic_order_4": (
        5, [1, 2, 3, 4],
        "16db554cd39adabb0ab6491927fb24a7f16b5c3d7a87078def168b1871c89333",
        "2cc09323915fc1c523a59a4346992a21821778084e4b606e84dc9bf639c16e72",
        "1999a774b2d20448d7a2fd66be3f87ede0db7f58340da795ebb9ed1106e374bd",
    ),
    "cyclic_order_5": (
        5, [1, 2, 3, 4, 5],
        "9075e5a2de5fcf3231d93f470a7f369f47ef753b259f06111cb93edfbe1dcdf0",
        "41033f787f07cbb9533fb9dc888b10cf13b30b717d2d4f75f8298e6587d730d2",
        "640e05679e06493dffa14bafe4f5c7c3b7cbe3fe6752d6a0f64806f1c3565fea",
    ),
    "group_commutativity": (
        6, [1, 1, 1, 2, 3, 4, 5, 6],
        "1bc852ca48d2c47e90130870f7d40cc32bcaabf44919ef47d3c073d03ea9d48d",
        "b363702909924c3354d22095d20e92d17b22f267d2fa7f797243d8f732263f5c",
        "d7bf377d7b1a8bc2c7f891e2e457de3e92916a320cce8942a0c8cd7f7371b790",
    ),
    "pigeonhole_5_4": (
        5, [1, 2, 3, 4, 5],
        "f79dfd3dde025d05e95f4b4b67996eece0e79a5fc3e169fd1d442e548239fa22",
        "9bc2b72de5acdefc8b4b8bc59c0c79826cb5e6ed2eb35451134e395746b482e6",
        "9bc2b72de5acdefc8b4b8bc59c0c79826cb5e6ed2eb35451134e395746b482e6",
    ),
    "puz001": (
        4, [1, 2, 3, 1, 2, 3, 1, 2, 3, 4],
        "7c3d721511eafcce7e7307320e19254365a3c05ad20f8a8fa53ac9e67879079a",
        "b34008df49170d846526cc75f07ad76fdd9dd81548357fee680f4d74219f6d62",
        "401cd3a8f6aa472e6ad77b934d8ce4dbf1beb3a4774ac0cd37a49337c5788e01",
    ),
}


def pinned_theory(name):
    if name == "group_commutativity":
        return mk(GROUP_COMMUTATIVITY)
    if name == "pigeonhole_5_4":
        return mk(PIGEONHOLE_5_4)
    if name == "puz001":
        return parse_file(str(PUZ001))
    return mk(cyclic_order(int(name.rsplit("_", 1)[1])))


@pytest.mark.parametrize("name", sorted(STAGE_PINS))
def test_grounding_and_solving_are_pinned(name, monkeypatch):
    """The CNF of every size tried and the DPLL answer on it, whole and cut
    to the signature's variables, for the textbook families and PUZ001's
    three consistency queries."""
    max_size, want_sizes, want_cnf, want_dpll, want_models = STAGE_PINS[name]
    sizes, cnfs, answers, models, repeats = [], [], [], [], []
    layouts = []
    ground, dpll = modelfinder._ground, modelfinder._dpll

    def ground_spy(flats, layout, *rest):
        cnf = ground(flats, layout, *rest)
        sizes.append(layout.n)
        layouts.append(layout)
        falsified = falsifies(cnf)
        cnfs.append(repr((cnf[:-1] if falsified else cnf, falsified, False)))
        # The solver's watches need the literals of a clause on distinct variables.
        repeats.extend(c for c in cnf if len({*map(abs, c)}) < len(c))
        return cnf

    def dpll_spy(clauses, *rest):
        out = dpll(clauses, *rest)
        if falsifies(clauses):
            return out
        answers.append(repr(out))
        cut = out[: signature_variables(layouts[-1]) + 1] if isinstance(out, list) else out
        models.append(repr(cut))
        return out

    monkeypatch.setattr(modelfinder, "_ground", ground_spy)
    monkeypatch.setattr(modelfinder, "_dpll", dpll_spy)
    limits = EngineLimits(timeout=120, max_domain_size=max_size)
    session = QuerySession(pinned_theory(name), counters=[BuiltinModelFinder()], limits=limits)
    consistency_triple(session)

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    assert (sizes, digest(cnfs), digest(answers)) == (want_sizes, want_cnf, want_dpll)
    assert digest(models) == want_models
    assert repeats == []


def falsifies(cnf):
    """Whether grounding stopped at a falsified clause, which leaves the
    empty clause last."""
    return bool(cnf) and not cnf[-1]


def signature_variables(layout):
    """How many propositional variables the function cells and predicate
    atoms of the layout's signature take; they are numbered first."""
    n = layout.n
    return sum(n ** (a + 1) for a in layout.funcs.values()) + sum(
        n**a for a in layout.preds.values()
    )


def random_cnf(rng):
    """Up to 30 clauses over at most 10 variables; each clause has 1-4
    literals on distinct variables, as _ground emits them.  Two in three are
    dense; about a quarter of all the CNFs make the solver learn clauses."""
    if rng.random() < 1 / 3:
        nvars, nclauses, lengths = rng.randint(1, 10), rng.randint(0, 30), (1, 2, 3, 4)
    else:
        nvars, nclauses, lengths = rng.randint(6, 10), rng.randint(20, 30), (2, 3, 3, 4)
    clauses = []
    for _ in range(nclauses):
        variables = rng.sample(range(1, nvars + 1), min(rng.choice(lengths), nvars))
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return clauses, nvars


def greatest_model(clauses, nvars):
    """The lexicographically greatest model, variable 1 first and true before
    false, by enumeration; None if there is none."""
    for values in itertools.product((1, -1), repeat=nvars):
        assign = [0, *values]
        if all(any(assign[abs(lit)] * lit > 0 for lit in c) for c in clauses):
            return assign
    return None


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_solver_finds_the_greatest_model(seed):
    """Clause learning changes which conflicts the solver meets, not its
    answer: None exactly when no model exists, else the model chronological
    DPLL finds.  The caller's clause lists are left as they were."""
    clauses, nvars = random_cnf(random.Random(seed))
    before = [c[:] for c in clauses]
    assert modelfinder._dpll(clauses, nvars, time.monotonic() + 60, 10**9) == greatest_model(
        clauses, nvars
    )
    assert clauses == before


class TestGroundingLimits:
    """Grounding keeps to the call's clause cap and deadline; the solver
    keeps to the deadline and learns at most as many clauses as the cap."""

    def test_a_size_over_the_clause_cap_is_a_resource_out(self, monkeypatch):
        """Up to the cap the search is unchanged; one clause less and the
        size-6 CNF is over it, which is ResourceOut, never ExhaustedUpTo."""
        ground_sizes = record_ground_sizes(monkeypatch)
        formulas = formulas_of(NON_ABELIAN)
        find_model(formulas, EngineLimits(timeout=60, max_domain_size=6))
        largest = ground_sizes[6]
        assert largest == max(ground_sizes.values())
        at_cap = find_model(
            formulas, EngineLimits(timeout=60, max_domain_size=6, max_clause_count=largest)
        )
        assert (at_cap.kind, at_cap.model.domain_size) == (ModelKind.ModelFound, 6)
        for cap in (largest - 1, 5_000, 100):
            limits = EngineLimits(timeout=60, max_domain_size=6, max_clause_count=cap)
            assert find_model(formulas, limits).kind == ModelKind.ResourceOut, cap

    def test_capped_exhaustion_is_a_resource_out(self):
        """Pigeonhole 5/4 has no model at any size; with sizes cut off by the
        cap the search cannot claim to have exhausted them."""
        formulas = formulas_of(PIGEONHOLE_5_4)
        limits = EngineLimits(timeout=60, max_domain_size=5, max_clause_count=100)
        assert len(clausify(formulas)) <= 100
        assert find_model(formulas, limits).kind == ModelKind.ResourceOut

    def test_grounding_stops_at_the_deadline(self):
        """Associativity at size 10 has 10**6 instances, seconds of work;
        grounding stops within the instances after a 50 ms deadline."""
        flat = flat_clause("![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))")
        layout = modelfinder._VarLayout({}, {"mult": 2}, [], 10)
        start = time.monotonic()
        with pytest.raises(OutOfBudget):
            modelfinder._ground([flat], layout, [], start + 0.05, 10**9)
        assert time.monotonic() - start < 1

    def test_grounding_past_the_clause_cap_holds_little_memory(self):
        """Associativity at size 10 has 10**6 instances, about 180 MB of
        clauses; with a cap of 5,000 clauses grounding stops after a few
        thousand, holding those and one block of instances at a time."""
        flat = flat_clause("![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))")
        layout = modelfinder._VarLayout({}, {"mult": 2}, [], 10)
        tracemalloc.start()
        try:
            with pytest.raises(OutOfBudget):
                modelfinder._ground([flat], layout, [], time.monotonic() + 60, 5_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_a_falsified_instance_ends_the_cnf(self):
        """![X,Y]: X = Y has no literal but its equation.  At size 1 every
        instance holds; at size 2 X = 0, Y = 1 falsifies it, so grounding
        stops with the empty clause and the solver answers None."""
        flat = flat_clause("![X,Y]: X = Y")
        deadline = time.monotonic() + 60
        for n, want in ((1, []), (2, [[]])):
            layout = modelfinder._VarLayout({}, {}, [], n)
            cnf = modelfinder._ground([flat], layout, [], deadline, 10**9)
            assert cnf == want
        assert modelfinder._dpll(cnf, layout.count, deadline, 10**9) is None

    def test_solving_stops_at_the_deadline(self):
        """Refuting pigeonhole 5/4 at size 5 propagates between 2048 and 4095
        literals, so it passes one clock check; past the deadline the solver
        stops there."""
        cnf, nvars = pigeonhole_5_4_at_size_5()
        assert modelfinder._dpll(cnf, nvars, time.monotonic() + 60, 10**9) is None
        start = time.monotonic()
        with pytest.raises(OutOfBudget):
            modelfinder._dpll(cnf, nvars, start, 10**9)
        assert time.monotonic() - start < 0.5

    def test_solving_stops_at_the_learned_clause_cap(self):
        """Refuting pigeonhole 5/4 at size 5 learns 160 clauses of more than
        one literal; allowed one fewer, the solver stops."""
        cnf, nvars = pigeonhole_5_4_at_size_5()
        deadline = time.monotonic() + 60
        assert modelfinder._dpll(cnf, nvars, deadline, 160) is None
        with pytest.raises(OutOfBudget):
            modelfinder._dpll(cnf, nvars, deadline, 159)

    def test_learning_past_the_clause_cap_is_a_resource_out(self, monkeypatch):
        """Refuting pigeonhole 6/5 at size 6 learns more clauses than the
        largest CNF holds, so a cap that admits every CNF but not what is
        learned ends the search with ResourceOut, never ExhaustedUpTo."""
        ground_sizes = record_ground_sizes(monkeypatch)
        formulas = formulas_of(PIGEONHOLE_6_5)
        exhausted = find_model(formulas, EngineLimits(timeout=60, max_domain_size=6))
        assert exhausted.kind == ModelKind.ExhaustedUpTo
        cap = max(ground_sizes.values())
        limits = EngineLimits(timeout=60, max_domain_size=6, max_clause_count=cap)
        assert find_model(formulas, limits).kind == ModelKind.ResourceOut


def pigeonhole_5_4_at_size_5():
    """The ground CNF of pigeonhole 5/4 at size 5 and its variable count."""
    clauses = clausify(formulas_of(PIGEONHOLE_5_4))
    preds, funcs = clause_signature(clauses)
    constants = [sym for sym, arity in funcs.items() if arity == 0]
    layout = modelfinder._VarLayout(preds, funcs, [], 5)
    flats = [modelfinder._flatten(literals) for literals, _ in clauses]
    cnf = modelfinder._ground(flats, layout, constants, time.monotonic() + 60, 10**9)
    return cnf, layout.count


class TestVerifyModel:
    def test_accepts_true(self):
        m = Interpretation(1, {"p": {(): True}}, {})
        assert verify_model(m, [Atom("p")])

    def test_rejects_false(self):
        m = Interpretation(1, {"p": {(): False}}, {})
        assert not verify_model(m, [Atom("p")])

    def test_past_the_deadline_is_a_timeout(self):
        m = Interpretation(1, {"p": {(0,): True}}, {})
        f = Quantified("!", ("X",), Atom("p", ("X",)))
        assert verify_model(m, [f], time.monotonic() + 60)
        with pytest.raises(OutOfBudget):
            verify_model(m, [f], time.monotonic() - 1)

    def test_verification_keeps_to_the_call_budget(self):
        """The tautology makes no clause, so grounding never meets its 20
        variables; verifying the size-2 model tries 2**20 assignments, which
        takes seconds, and stops at the deadline instead."""
        xs = ", ".join(f"X{i}" for i in range(20))
        formulas = formulas_of(
            f"fof(a1, axiom, a != b). fof(a2, axiom, ! [{xs}] : (p(X0) | ~p(X0)))."
        )
        start = time.monotonic()
        out = find_model(formulas, EngineLimits(timeout=1.0, max_domain_size=2))
        assert out.kind == ModelKind.ResourceOut
        assert time.monotonic() - start < 2

    def test_every_returned_model_passes(self):
        texts = [
            "fof(a1, axiom, p(a) & ~p(b)).",
            "fof(a1, axiom, ! [X] : (p(X) => q(X))). fof(a2, axiom, ? [X] : p(X)).",
            "fof(a1, axiom, ? [X,Y] : (r(X, Y) & X != Y)).",
            "fof(a1, axiom, ! [X] : ? [Y] : r(X, Y)). fof(a2, axiom, ! [X] : ~r(X, X)).",
        ]
        for text in texts:
            formulas = formulas_of(text)
            out = find_model(formulas, EngineLimits(timeout=20, max_domain_size=4))
            assert out.kind == ModelKind.ModelFound, text
            assert verify_model(out.model, [f for _, f in formulas])


class TestRandomizedSoundness:
    """Randomized small formulas: every found model verifies, and exhaustion
    agrees with the brute-force enumerator."""

    def test_two_hundred_random_runs(self):
        from conftest import random_closed_formula

        rng = random.Random(20240811)
        found = exhausted = 0
        for i in range(220):
            formula = random_closed_formula(rng, 2)
            out = find_model(
                [("gen", formula)], EngineLimits(timeout=10, max_domain_size=2)
            )
            if out.kind == ModelKind.ModelFound:
                found += 1
                assert evaluate(out.model, formula), f"run {i}: model fails"
                assert out.model.domain_size <= 2
            elif out.kind == ModelKind.ExhaustedUpTo:
                exhausted += 1
                # the brute-force enumerator agrees nothing exists up to 2
                for size in (1, 2):
                    for m in enumerate_interpretations([formula], size):
                        assert not evaluate(m, formula), f"run {i}: missed model"
        assert found + exhausted == 220
        assert found >= 100  # the generator is not degenerate


def least_model_size(formulas, max_size):
    for size in range(1, max_size + 1):
        for m in enumerate_interpretations(formulas, size):
            if all(evaluate(m, f) for f in formulas):
                return size
    return None


@given(
    seeds=st.lists(st.integers(0, 2**16), min_size=2, max_size=3),
    depth=st.integers(1, 2),
)
def test_finder_agrees_with_enumeration_on_constants_and_equality(seeds, depth):
    """Sets of random formulas whose clauses use the constants a and b and
    equality, so the constant ordering and both flattening rewrites apply:
    the least model size up to 3, or its absence, is the brute-force one."""
    formulas = [random_closed_formula(random.Random(s), depth) for s in seeds]
    named = [(f"f{i}", f) for i, f in enumerate(formulas)]
    clauses = clausify(named)
    assume({"a", "b"} <= clause_signature(clauses)[1].keys())
    assume(contains_equality(clauses))
    want = least_model_size(formulas, 3)
    out = find_model(named, EngineLimits(timeout=30, max_domain_size=3))
    if want is None:
        assert (out.kind, out.exhausted_size) == (ModelKind.ExhaustedUpTo, 3)
    else:
        assert (out.kind, out.model.domain_size) == (ModelKind.ModelFound, want)
        assert verify_model(out.model, formulas)


class TestModelText:
    def test_stable_rendering(self):
        out = find_model(
            formulas_of("fof(a1, axiom, p(a) & ~q(b))."),
            EngineLimits(timeout=10, max_domain_size=3),
        )
        text = model_to_text(out.model)
        assert text.splitlines()[0].startswith("domain size:")
        assert model_to_text(out.model) == text


class TestAgreementWithSaturation:
    def test_refute_satisfiable_implies_model_found(self):
        """Where saturation genuinely closes as Satisfiable on the curated
        corpus, the model finder must find the (known finite) model rather
        than exhaust."""
        from proofscope.prover import refute
        from proofscope.verdicts import SzsStatus
        from corpus import ORACLE_THEORIES

        checked = 0
        for name, text in ORACLE_THEORIES:
            theory = mk(text).without_conjecture()
            outcome = refute(theory, EngineLimits(timeout=10))
            if outcome.status != SzsStatus.Satisfiable:
                continue
            formulas = [(f.name, f.formula) for f in theory.premises]
            found = find_model(formulas, EngineLimits(timeout=20, max_domain_size=3))
            assert found.kind == ModelKind.ModelFound, name
            checked += 1
        assert checked >= 15  # the corpus is mostly satisfiable axiom sets
