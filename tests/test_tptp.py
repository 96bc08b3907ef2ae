"""Parser, renderer, include resolution, and signature analysis tests."""

import pytest
from hypothesis import given, strategies as st

from proofscope.logic import EQUALITY, Atom, Binary, Not, Quantified, Truth
from proofscope.tptp import (
    AnnotatedFormula,
    IncludeError,
    ParseError,
    Theory,
    TptpError,
    hapax_legomena,
    parse_file,
    parse_problem,
    render_formula,
    render_theory,
    signature_of,
)

from conftest import mk


class TestParsing:
    def test_minimal_problem(self):
        t = mk("fof(a1, axiom, p). fof(c, conjecture, p).")
        assert len(t.formulas) == 2
        assert t.conjecture is not None and t.conjecture.name == "c"
        assert t.premise_names == ("a1",)

    def test_puz001_shape(self, puz001):
        assert len(puz001.premises) == 13
        assert puz001.conjecture.name == "pel55"

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError) as exc:
            mk("fof(a1, axiom, p & q")
        assert exc.value.line >= 1

    def test_roles_closed_set(self):
        with pytest.raises(ParseError, match="role"):
            mk("fof(a1, plain, p).")
        for role in ("axiom", "hypothesis", "definition", "lemma", "theorem"):
            t = mk(f"fof(a1, {role}, p).")
            assert t.formulas[0].role == role

    def test_duplicate_name_positioned(self):
        with pytest.raises(ParseError) as exc:
            mk("fof(a1, axiom, p).\nfof(a1, axiom, q).")
        assert "duplicate" in str(exc.value)
        assert exc.value.line == 2

    def test_multiple_conjectures(self):
        with pytest.raises(ParseError, match="conjecture"):
            mk("fof(c1, conjecture, p). fof(c2, conjecture, q).")

    def test_arity_conflict_positioned(self):
        with pytest.raises(ParseError) as exc:
            mk("fof(a1, axiom, p(a)).\nfof(a2, axiom, p(a, b)).")
        assert "p" in str(exc.value)
        assert exc.value.line == 2

    def test_kind_conflict(self):
        # p used as a predicate and as a constant
        with pytest.raises(ParseError):
            mk("fof(a1, axiom, p). fof(a2, axiom, q(p)).")

    def test_clash_reported_at_later_formula(self):
        # The position is the fof( of the formula that clashes, not the symbol.
        with pytest.raises(ParseError) as exc:
            mk("fof(a1, axiom, p(a)).\nfof(a2, axiom,\n  q & p(a, b)).")
        assert (exc.value.path, exc.value.line, exc.value.column) == ("<memory>", 2, 1)
        assert str(exc.value) == (
            "<memory>:2:1: symbol 'p' used as predicate/2 in 'a2' but as predicate/1 in 'a1'"
        )

    @pytest.mark.parametrize(
        "text, column, message",
        [
            ("fof(a1, axiom, p # q).", 18, "unexpected character '#'"),
            ("p(a).", 1, "expected 'fof', 'cnf' or 'include'"),
            ("fof(A1, axiom, p).", 5, "expected a formula name"),
            ("include(foo).", 9, "expected a quoted include file name"),
            ("fof(a1, axiom, ! [x] : p).", 19, "expected a variable (uppercase word)"),
            ("fof(a1, axiom, $foo).", 16, "unsupported defined symbol '$foo'"),
            ("fof(a1, axiom, p(,)).", 18, "expected a term, found ','"),
        ],
        ids=[
            "character", "statement", "name", "include", "variable", "defined", "term",
        ],
    )
    def test_syntax_error_positioned(self, text, column, message):
        """Each syntax error names the line and column of the offending
        token, here on the second line."""
        with pytest.raises(ParseError) as exc:
            mk(f"fof(ok, axiom, q).\n{text}")
        assert (exc.value.line, exc.value.column) == (2, column)
        assert str(exc.value) == f"<memory>:2:{column}: {message}"

    def test_unbound_variable_rejected(self):
        with pytest.raises(ParseError, match="unbound"):
            mk("fof(a1, axiom, p(X)).")

    def test_quantifier_shadowing_allowed(self):
        t = mk("fof(a1, axiom, ! [X] : (p(X) & ! [X] : q(X))).")
        assert isinstance(t.formulas[0].formula, Quantified)

    def test_missing_parentheses_is_error(self):
        with pytest.raises(ParseError, match="parentheses"):
            mk("fof(a1, axiom, p & q | r).")
        with pytest.raises(ParseError, match="parentheses"):
            mk("fof(a1, axiom, p => q => r).")

    def test_associative_chains(self):
        t = mk("fof(a1, axiom, p & q & r).")
        f = t.formulas[0].formula
        assert f == Binary("&", Binary("&", Atom("p"), Atom("q")), Atom("r"))

    def test_equality_and_inequality(self):
        t = mk("fof(a1, axiom, a = b). fof(a2, axiom, a != c).")
        assert t.formulas[0].formula == Atom(EQUALITY, (("a", ()), ("b", ())))
        assert t.formulas[1].formula == Not(Atom(EQUALITY, (("a", ()), ("c", ()))))

    def test_truth_constants(self):
        t = mk("fof(a1, axiom, $true => $false).")
        assert t.formulas[0].formula == Binary("=>", Truth(True), Truth(False))

    def test_comments_stripped(self):
        t = mk("% leading comment\nfof(a1, axiom, p). % trailing\n% done\n")
        assert t.premise_names == ("a1",)

    def test_annotations_rejected(self):
        with pytest.raises(ParseError, match="annotations"):
            mk("fof(a1, axiom, p, file('x.p', a1)).")

    def test_quoted_names(self):
        t = mk("fof('odd name', axiom, p).")
        assert t.formulas[0].name == "odd name"
        round_trip = parse_problem(render_theory(t))
        assert round_trip == t

    def test_variable_not_a_formula(self):
        with pytest.raises(ParseError):
            mk("fof(a1, axiom, ! [X] : X).")

    def test_reserved_names_rejected(self):
        # '$'-prefixed names would collide with internal origin markers
        with pytest.raises(ParseError, match="reserved"):
            mk("fof('$conjecture', axiom, p).")

    def test_cnf_lifted_to_closed_formula(self):
        t = mk("cnf(c1, axiom, (p(X) | ~q(X, Y))).")
        f = t.formulas[0].formula
        assert isinstance(f, Quantified) and f.kind == "!"
        assert set(f.variables) == {"X", "Y"}

    def test_cnf_without_variables(self):
        t = mk("cnf(c1, negated_conjecture, (~p | q)).")
        assert t.formulas[0].formula == Binary("|", Not(Atom("p")), Atom("q"))
        assert t.formulas[0].role == "negated_conjecture"


class TestTheoryViews:
    TEXT = "fof(b, axiom, q). fof(c, conjecture, p). fof(a, axiom, p)."

    def test_ordered_keeps_declaration_order_and_puts_other_names_last(self):
        t = mk(self.TEXT)
        assert t.ordered({"a", "b"}) == ["b", "a"]
        assert t.ordered(["zz", "a", "c", "b"]) == ["b", "a", "zz", "c"]
        assert t.ordered([]) == []

    @pytest.mark.parametrize(
        "derive, premises, conjecture",
        [
            (lambda t: t.restrict({"a"}), ("a",), "c"),
            (lambda t: t.without_conjecture(), ("b", "a"), None),
            (lambda t: t.with_conjecture(t["a"]), ("b",), "a"),
        ],
        ids=["restrict", "without_conjecture", "with_conjecture"],
    )
    def test_a_derived_theory_computes_its_own_views(self, derive, premises, conjecture):
        t = mk(self.TEXT)
        # Every view of the parent is computed before the derived theory is built.
        assert (t.premise_names, t.conjecture.name, t.ordered("ab")) == (("b", "a"), "c", ["b", "a"])
        u = derive(t)
        assert u.premise_names == tuple(f.name for f in u.premises) == premises
        assert (u.conjecture.name if u.conjecture else None) == conjecture
        assert u.ordered(reversed(premises + ("x",))) == list(premises) + ["x"]
        assert (t.premise_names, t.conjecture.name) == (("b", "a"), "c")

    def test_compares_and_hashes_by_its_formulas_alone(self):
        warm, cold = mk(self.TEXT), mk(self.TEXT)
        assert warm.premises and warm.conjecture and warm.ordered(["a"])
        assert warm == cold and hash(warm) == hash(cold)
        assert len({warm, cold}) == 1
        assert warm != warm.restrict({"a"})


class TestIncludes:
    def test_include_resolution_order(self, tmp_path, monkeypatch):
        axdir = tmp_path / "ax"
        axdir.mkdir()
        (axdir / "base.ax").write_text("fof(base, axiom, p).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('base.ax').\nfof(goal, conjecture, p).\n")
        monkeypatch.delenv("TPTP", raising=False)
        t = parse_file(str(prob), include_dirs=[str(axdir)])
        assert t.premise_names == ("base",)

    def test_include_relative_to_including_file(self, tmp_path, monkeypatch):
        (tmp_path / "shared.ax").write_text("fof(shared, axiom, q).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('shared.ax').\nfof(goal, conjecture, q).\n")
        monkeypatch.delenv("TPTP", raising=False)
        t = parse_file(str(prob))
        assert t.premise_names == ("shared",)

    def test_include_via_tptp_env(self, tmp_path, monkeypatch):
        root = tmp_path / "TPTP"
        (root / "Axioms").mkdir(parents=True)
        (root / "Axioms" / "env.ax").write_text("fof(env_ax, axiom, r).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('Axioms/env.ax').\nfof(goal, conjecture, r).\n")
        monkeypatch.setenv("TPTP", str(root))
        t = parse_file(str(prob))
        assert t.premise_names == ("env_ax",)

    def test_unresolved_include(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TPTP", raising=False)
        prob = tmp_path / "prob.p"
        prob.write_text("include('nowhere.ax').\n")
        with pytest.raises(IncludeError, match="nowhere"):
            parse_file(str(prob))

    def test_circular_include(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TPTP", raising=False)
        a = tmp_path / "a.p"
        b = tmp_path / "b.p"
        a.write_text("include('b.p').\n")
        b.write_text("include('a.p').\n")
        with pytest.raises(IncludeError, match="circular"):
            parse_file(str(a))

    def test_selection_list_rejected(self, tmp_path):
        prob = tmp_path / "prob.p"
        prob.write_text("include('base.ax', [a1]).\n")
        with pytest.raises(ParseError, match="selection"):
            parse_file(str(prob))

    def test_include_is_syntactic_splicing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TPTP", raising=False)
        (tmp_path / "part.ax").write_text("fof(one, axiom, p).\nfof(two, axiom, q).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('part.ax').\nfof(goal, conjecture, p & q).\n")
        spliced = parse_problem(
            "fof(one, axiom, p).\nfof(two, axiom, q).\nfof(goal, conjecture, p & q).\n"
        )
        assert parse_file(str(prob)) == spliced

    def test_clash_across_files_reported_in_later_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv("TPTP", raising=False)
        part = tmp_path / "part.ax"
        part.write_text("fof(one, axiom, p(a)).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('part.ax').\n\nfof(goal, conjecture, p).\n")
        with pytest.raises(ParseError) as exc:
            parse_file(str(prob))
        assert (exc.value.path, exc.value.line, exc.value.column) == (str(prob), 3, 1)
        assert "in 'goal' but as predicate/1 in 'one'" in str(exc.value)
        prob.write_text("fof(first, axiom, p).\ninclude('part.ax').\n")
        with pytest.raises(ParseError) as exc:
            parse_file(str(prob))
        assert (exc.value.path, exc.value.line, exc.value.column) == (str(part), 1, 1)
        assert "in 'one' but as predicate/0 in 'first'" in str(exc.value)


class TestRendering:
    def test_render_minimal(self):
        t = mk("fof(a1, axiom, p).")
        assert render_theory(t) == "fof(a1, axiom, p).\n"

    def test_quantifier_spacing(self):
        t = mk("fof(a1, axiom, ! [X] : p(X)).")
        assert "! [X] :" in render_theory(t)

    def test_puz001_round_trip(self, puz001):
        assert parse_problem(render_theory(puz001)) == puz001

    def test_negated_equality_renders_infix(self):
        assert render_formula(Not(Atom(EQUALITY, (("a", ()), ("b", ()))))) == "a != b"

    def test_right_nested_chain_keeps_parens(self):
        f = Binary("&", Atom("p"), Binary("&", Atom("q"), Atom("r")))
        text = render_formula(f)
        assert text == "p & (q & r)"
        assert mk(f"fof(a1, axiom, {text}).").formulas[0].formula == f


# ---------------------------------------------------------------------------
# Hypothesis round-trip over generated formulas

_VARS = ("X", "Y", "Z")


def _terms(depth: int):
    leaves = st.one_of(
        st.sampled_from([("a", ()), ("b", ())]),
        st.sampled_from(_VARS),
    )
    if depth <= 0:
        return leaves
    return st.one_of(
        leaves,
        st.builds(lambda t: ("f", (t,)), _terms(depth - 1)),
        st.builds(lambda s, t: ("g", (s, t)), _terms(depth - 1), _terms(depth - 1)),
    )


def _atoms():
    term = _terms(1)
    return st.one_of(
        st.builds(lambda: Atom("p0")),
        st.builds(lambda t: Atom("p1", (t,)), term),
        st.builds(lambda s, t: Atom("p2", (s, t)), term, term),
        st.builds(lambda s, t: Atom(EQUALITY, (s, t)), term, term),
        st.sampled_from([Truth(True), Truth(False)]),
    )


def _formulas(depth: int):
    if depth <= 0:
        return _atoms()
    sub = _formulas(depth - 1)
    return st.one_of(
        _atoms(),
        st.builds(Not, sub),
        st.builds(
            Binary,
            st.sampled_from(["&", "|", "=>", "<=", "<=>", "<~>", "~|", "~&"]),
            sub,
            sub,
        ),
        st.builds(
            lambda vs, b: Quantified("!", tuple(vs), b),
            st.lists(st.sampled_from(_VARS), min_size=1, max_size=2, unique=True),
            sub,
        ),
        st.builds(
            lambda vs, b: Quantified("?", tuple(vs), b),
            st.lists(st.sampled_from(_VARS), min_size=1, max_size=2, unique=True),
            sub,
        ),
    )


def _close(f):
    from proofscope.logic import free_variables

    fv = sorted(free_variables(f))
    return Quantified("!", tuple(fv), f) if fv else f


@given(_formulas(3))
def test_generated_formula_round_trip(f):
    closed = _close(f)
    theory = Theory(
        (__import__("proofscope.tptp", fromlist=["AnnotatedFormula"]).AnnotatedFormula(
            "gen", "axiom", closed
        ),)
    )
    rendered = render_theory(theory)
    assert parse_problem(rendered) == theory
    # Render-parse-render is a fixpoint on text as well.
    assert render_theory(parse_problem(rendered)) == rendered


class TestSignature:
    def test_counts(self):
        t = mk("fof(a1, axiom, p(a)). fof(c, conjecture, p(b)).")
        entries = {e.symbol: e for e in signature_of(t)}
        assert entries["p"].occurrence_count == 2
        assert entries["p"].kind == "predicate" and entries["p"].arity == 1
        assert entries["a"].occurrence_count == 1
        assert entries["b"].occurrence_count == 1
        assert entries["a"].kind == "constant"

    def test_empty_theory(self):
        assert signature_of(Theory(())) == []

    def test_clash_in_memory_theory(self):
        t = Theory((
            AnnotatedFormula("a1", "axiom", Atom("p", (("a", ()),))),
            AnnotatedFormula("a2", "axiom", Atom("a")),
        ))
        with pytest.raises(ParseError, match="'a' used as predicate/0 in 'a2' but as "
                           "constant/0 in 'a1'") as exc:
            signature_of(t)
        assert isinstance(exc.value, TptpError)
        assert (exc.value.path, exc.value.line, exc.value.column) == ("<memory>", 0, 1)

    def test_deterministic_order(self):
        t = mk("fof(a1, axiom, zebra & apple & mango).")
        assert [e.symbol for e in signature_of(t)] == ["apple", "mango", "zebra"]

    def test_puz001_signature(self, puz001):
        entries = {(e.symbol, e.arity) for e in signature_of(puz001)}
        assert {("killed", 2), ("hates", 2), ("richer", 2), ("lives", 1)} <= entries

    def test_signature_completeness(self, puz001):
        # every non-variable symbol is covered by exactly one entry
        entries = signature_of(puz001)
        assert len({e.symbol for e in entries}) == len(entries)

    def test_hapax_typo_pair(self):
        t = mk(
            "fof(ax1, axiom, ! [X] : conected_to(X, X)).\n"
            "fof(ax2, axiom, ! [X] : (connected_to(X, X) => connected_to(X, X))).\n"
        )
        flagged = {e.symbol for e in hapax_legomena(t)}
        assert "conected_to" in flagged

    def test_hapax_empty_when_all_repeat(self):
        t = mk("fof(a1, axiom, p(a)). fof(c, conjecture, p(a)).")
        assert hapax_legomena(t) == []

    def test_hapax_all_single(self):
        t = mk("fof(a1, axiom, q(b)). fof(c, conjecture, p).")
        assert {e.symbol for e in hapax_legomena(t)} == {"q", "b", "p"}

    def test_hapax_subset_of_signature(self, puz001):
        sig = {e.symbol for e in signature_of(puz001)}
        for e in hapax_legomena(puz001):
            assert e.symbol in sig
            assert e.occurrence_count == 1
            assert len(e.occurring_in) == 1
