"""TPTP FOF parsing, rendering, include resolution, and signature analysis.

Supported grammar: fof(...) annotated formulas with the connectives
~ & | => <= <=> <~> ~| ~&, quantifiers ! and ?, infix = and !=, $true/$false,
plus cnf(...) inputs (lifted to universally closed formulas) and
include('file') directives.  % comments are stripped.

Symbol kinds and arities are checked in one place, _signature, which walks
the parsed formulas with logic.symbols; parse_problem and signature_of both
call it.  The parser itself records no symbol uses.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .logic import (
    AND,
    BINARY_CONNECTIVES,
    EQUALITY,
    EXISTS,
    FORALL,
    OR,
    Atom,
    Binary,
    Formula,
    Not,
    Quantified,
    Term,
    Truth,
    symbols,
)

ROLES = (
    "axiom",
    "hypothesis",
    "definition",
    "lemma",
    "theorem",
    "conjecture",
    "negated_conjecture",
)

KIND_PREDICATE = "predicate"
KIND_FUNCTION = "function"
KIND_CONSTANT = "constant"


class TptpError(Exception):
    """Base class for problem-file errors."""


class ParseError(TptpError):
    def __init__(self, message: str, path: str, line: int, column: int):
        super().__init__(f"{path}:{line}:{column}: {message}")
        self.path = path
        self.line = line
        self.column = column


class IncludeError(TptpError):
    """An include directive could not be resolved."""


# Formulas and terms nest at most this deep: each parenthesised formula,
# negation, quantifier and argument list opens one level.  No pass takes more
# than two frames per level: the parser two per parenthesis, clausification
# two per <=> or <~> (the walk and the lookup of its operand's earlier walks)
# and one per other formula level, model verification two per quantifier,
# and the term walkers two per argument list.  Every subcommand on a problem
# nested this deep, a chain of 100 <=> included, peaks near 220 frames, which
# leaves most of the interpreter's default stack of 1000 to the callers and
# to the terms the prover deepens.
MAX_NESTING = 100


@dataclass(frozen=True)
class Provenance:
    path: str
    line: int


@dataclass(frozen=True)
class AnnotatedFormula:
    name: str
    role: str
    formula: Formula
    source: Provenance = field(compare=False, default=Provenance("<memory>", 0))

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("formula name must be nonempty")
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class Theory:
    formulas: tuple[AnnotatedFormula, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.formulas]
        if len(set(names)) != len(names):
            raise ValueError("duplicate formula names in theory")
        if sum(1 for f in self.formulas if f.role == "conjecture") > 1:
            raise ValueError("theory has more than one conjecture")

    # Views computed once per instance; not fields, so never compared or hashed.
    @cached_property
    def conjecture(self) -> AnnotatedFormula | None:
        for f in self.formulas:
            if f.role == "conjecture":
                return f
        return None

    @cached_property
    def premises(self) -> tuple[AnnotatedFormula, ...]:
        return tuple(f for f in self.formulas if f.role != "conjecture")

    @cached_property
    def premise_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.premises)

    @cached_property
    def _rank(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.premise_names)}

    def ordered(self, names: Iterable[str]) -> list[str]:
        """names in premise declaration order; names that are not premises
        come last, in the order given."""
        rank = self._rank
        return sorted(names, key=lambda n: rank.get(n, len(rank)))

    def __getitem__(self, name: str) -> AnnotatedFormula:
        for f in self.formulas:
            if f.name == name:
                return f
        raise KeyError(name)

    def restrict(self, premise_names: Sequence[str] | frozenset[str]) -> "Theory":
        """Keep only the given premises (declaration order), plus the conjecture."""
        keep = set(premise_names)
        kept = tuple(
            f for f in self.formulas if f.role == "conjecture" or f.name in keep
        )
        return Theory(kept)

    def without_conjecture(self) -> "Theory":
        return Theory(self.premises)

    def with_conjecture(self, goal: AnnotatedFormula) -> "Theory":
        """Replace the conjecture (if any) with the given goal formula."""
        base = tuple(f for f in self.premises if f.name != goal.name)
        conj = AnnotatedFormula(goal.name, "conjecture", goal.formula, goal.source)
        return Theory(base + (conj,))


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<lower>[a-z][a-zA-Z0-9_]*)
    | (?P<upper>[A-Z_][a-zA-Z0-9_]*)
    | (?P<dollar>\$[a-z][a-zA-Z0-9_]*)
    | (?P<quoted>'(?:[^'\\]|\\.)*')
    | (?P<integer>\d+)
    | (?P<op><=>|<~>|=>|<=|~\||~&|!=|[()\[\],.:~&|!?=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # lower | upper | dollar | quoted | integer | op | eof
    value: str
    line: int
    column: int


def _tokenize(text: str, path: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", path, line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace("\\'", "'").replace("\\\\", "\\")


def _quote_if_needed(name: str) -> str:
    if re.fullmatch(r"[a-z][a-zA-Z0-9_]*|\d+", name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.pos = 0
        self.path = path
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, self.path, tok.line, tok.column)

    def descend(self, tok: Token) -> None:
        """Open one level of nesting at tok."""
        if self.depth == MAX_NESTING:
            raise self.error(f"formula or term nested deeper than {MAX_NESTING} levels", tok)
        self.depth += 1

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            got = tok.value if tok.kind != "eof" else "end of input"
            raise self.error(f"expected {want!r}, found {got!r}")
        return self.next()

    # -- statements --------------------------------------------------------

    def parse_statements(self) -> Iterator[tuple[str, object]]:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "lower" and tok.value in ("fof", "cnf"):
                yield ("formula", self.parse_annotated(tok.value))
            elif tok.kind == "lower" and tok.value == "include":
                yield ("include", self.parse_include())
            else:
                raise self.error("expected 'fof', 'cnf' or 'include'")

    def parse_name(self) -> str:
        tok = self.peek()
        if tok.kind in ("lower", "integer"):
            return self.next().value
        if tok.kind == "quoted":
            return _unquote(self.next().value)
        raise self.error("expected a formula name")

    def parse_annotated(self, keyword: str) -> AnnotatedFormula:
        start = self.expect("lower", keyword)
        self.expect("op", "(")
        name = self.parse_name()
        self.expect("op", ",")
        role_tok = self.peek()
        if role_tok.kind != "lower" or role_tok.value not in ROLES:
            raise self.error(
                f"unknown formula role {role_tok.value!r}; expected one of {', '.join(ROLES)}"
            )
        role = self.next().value
        self.expect("op", ",")
        if keyword == "fof":
            formula = self.parse_formula(bound=frozenset())
        else:
            formula = self.parse_cnf_formula()
        if self.peek().kind == "op" and self.peek().value == ",":
            raise self.error("annotations are not supported in problem files")
        self.expect("op", ")")
        self.expect("op", ".")
        return AnnotatedFormula(name, role, formula, Provenance(self.path, start.line))

    def parse_include(self) -> tuple[str, Token]:
        start = self.expect("lower", "include")
        self.expect("op", "(")
        tok = self.peek()
        if tok.kind != "quoted":
            raise self.error("expected a quoted include file name")
        target = _unquote(self.next().value)
        if self.peek().kind == "op" and self.peek().value == ",":
            raise self.error("include with a formula selection list is not supported")
        self.expect("op", ")")
        self.expect("op", ".")
        return target, start

    # -- formulas -----------------------------------------------------------

    def parse_formula(self, bound: frozenset[str]) -> Formula:
        left = self.parse_unitary(bound)
        tok = self.peek()
        if tok.kind == "op" and tok.value in BINARY_CONNECTIVES:
            op = self.next().value
            right = self.parse_unitary(bound)
            result = Binary(op, left, right)
            if op in (AND, OR):
                while self.peek().kind == "op" and self.peek().value == op:
                    self.next()
                    result = Binary(op, result, self.parse_unitary(bound))
            nxt = self.peek()
            if nxt.kind == "op" and nxt.value in BINARY_CONNECTIVES:
                raise self.error(
                    f"missing parentheses: {op!r} followed by {nxt.value!r}"
                )
            return result
        return left

    def parse_unitary(self, bound: frozenset[str]) -> Formula:
        tok = self.peek()
        if tok.kind == "op" and tok.value in (FORALL, EXISTS):
            self.descend(tok)
            kind = self.next().value
            self.expect("op", "[")
            variables: list[str] = []
            while True:
                vtok = self.peek()
                if vtok.kind != "upper":
                    raise self.error("expected a variable (uppercase word)")
                variables.append(self.next().value)
                if self.peek().kind == "op" and self.peek().value == ",":
                    self.next()
                    continue
                break
            self.expect("op", "]")
            self.expect("op", ":")
            body = self.parse_unitary(bound | set(variables))
            self.depth -= 1
            return Quantified(kind, tuple(variables), body)
        if tok.kind == "op" and tok.value == "~":
            self.descend(self.next())
            body = self.parse_unitary(bound)
            self.depth -= 1
            return Not(body)
        if tok.kind == "op" and tok.value == "(":
            self.descend(self.next())
            inner = self.parse_formula(bound)
            self.expect("op", ")")
            self.depth -= 1
            return inner
        if tok.kind == "dollar":
            if tok.value == "$true":
                self.next()
                return Truth(True)
            if tok.value == "$false":
                self.next()
                return Truth(False)
            raise self.error(f"unsupported defined symbol {tok.value!r}")
        if tok.kind in ("lower", "upper"):
            return self.parse_atomic(bound)
        got = tok.value if tok.kind != "eof" else "end of input"
        raise self.error(f"expected a formula, found {got!r}")

    def parse_atomic(self, bound: frozenset[str] | None) -> Formula:
        """An atom or an (in)equation; bound is None in a cnf clause."""
        tok = self.peek()
        term = self.parse_term(bound)
        nxt = self.peek()
        if nxt.kind == "op" and nxt.value in ("=", "!="):
            op = self.next().value
            right = self.parse_term(bound)
            eq = Atom(EQUALITY, (term, right))
            return eq if op == "=" else Not(eq)
        if isinstance(term, str):
            what = "literal" if bound is None else "formula"
            raise self.error(f"a variable is not a {what}", tok)
        return Atom(*term)

    def parse_term(self, bound: frozenset[str] | None) -> Term:
        """A term; bound is None in a cnf clause, whose variables are all
        implicitly universal and are collected in self._cnf_vars."""
        tok = self.peek()
        if tok.kind == "upper":
            self.next()
            if bound is None:
                if tok.value not in self._cnf_vars:
                    self._cnf_vars.append(tok.value)
            elif tok.value not in bound:
                raise self.error(f"unbound variable {tok.value!r}", tok)
            return tok.value
        if tok.kind in ("lower", "quoted"):
            self.next()
            head = tok.value if tok.kind == "lower" else _unquote(tok.value)
            args: list[Term] = []
            if self.peek().kind == "op" and self.peek().value == "(":
                self.descend(self.next())
                while True:
                    args.append(self.parse_term(bound))
                    if self.peek().kind == "op" and self.peek().value == ",":
                        self.next()
                        continue
                    break
                self.expect("op", ")")
                self.depth -= 1
            return (head, tuple(args))
        got = tok.value if tok.kind != "eof" else "end of input"
        raise self.error(f"expected a term, found {got!r}")

    # -- cnf ---------------------------------------------------------------

    def parse_cnf_formula(self) -> Formula:
        parenthesized = False
        if self.peek().kind == "op" and self.peek().value == "(":
            self.next()
            parenthesized = True
        self._cnf_vars: list[str] = []
        disjunction = self.parse_cnf_literal()
        while self.peek().kind == "op" and self.peek().value == "|":
            self.next()
            disjunction = Binary(OR, disjunction, self.parse_cnf_literal())
        if parenthesized:
            self.expect("op", ")")
        if self._cnf_vars:
            return Quantified(FORALL, tuple(self._cnf_vars), disjunction)
        return disjunction

    def parse_cnf_literal(self) -> Formula:
        if self.peek().kind == "op" and self.peek().value == "~":
            self.next()
            return Not(self.parse_atomic(None))
        return self.parse_atomic(None)


# ---------------------------------------------------------------------------
# Include resolution and top-level entry points


def _resolve_include(
    target: str, include_dirs: Sequence[str], including_dir: str | None
) -> str | None:
    candidates = list(include_dirs)
    if including_dir is not None:
        candidates.append(including_dir)
    tptp_root = os.environ.get("TPTP")
    if tptp_root:
        candidates.append(tptp_root)
    for base in candidates:
        path = os.path.join(base, target)
        if os.path.isfile(path):
            return path
    if os.path.isfile(target):
        return target
    return None


def _parse_into(
    text: str,
    path: str,
    include_dirs: Sequence[str],
    formulas: list[AnnotatedFormula],
    active: set[str],
) -> None:
    parser = _Parser(_tokenize(text, path), path)
    for kind, payload in parser.parse_statements():
        if kind == "formula":
            formulas.append(payload)  # type: ignore[arg-type]
        else:
            target, tok = payload  # type: ignore[misc]
            including_dir = os.path.dirname(path) if path != "<memory>" else None
            resolved = _resolve_include(target, include_dirs, including_dir)
            if resolved is None:
                raise IncludeError(
                    f"{path}:{tok.line}:{tok.column}: cannot resolve include({target!r})"
                )
            real = os.path.realpath(resolved)
            if real in active:
                raise IncludeError(
                    f"{path}:{tok.line}:{tok.column}: circular include of {target!r}"
                )
            included_text = _read_text(resolved)
            active.add(real)
            _parse_into(included_text, resolved, include_dirs, formulas, active)
            active.remove(real)


def _formula_error(f: AnnotatedFormula, message: str) -> ParseError:
    """An error at f's fof(/cnf( line, column 1."""
    return ParseError(message, f.source.path, f.source.line, 1)


def _check_wellformed(formulas: list[AnnotatedFormula]) -> None:
    seen_names: dict[str, Provenance] = {}
    conjecture: AnnotatedFormula | None = None
    for f in formulas:
        if f.name.startswith("$"):
            raise _formula_error(
                f, f"formula name {f.name!r} is reserved ('$'-prefixed names are internal)"
            )
        if f.name in seen_names:
            raise _formula_error(
                f,
                f"duplicate formula name {f.name!r} (first declared at "
                f"{seen_names[f.name].path}:{seen_names[f.name].line})",
            )
        seen_names[f.name] = f.source
        if f.role == "conjecture":
            if conjecture is not None:
                raise _formula_error(
                    f, f"multiple conjectures: {conjecture.name!r} and {f.name!r}"
                )
            conjecture = f
    _signature(formulas)


def parse_problem(
    source: str, include_dirs: Sequence[str] = (), origin: str = "<memory>"
) -> Theory:
    """Parse TPTP FOF/CNF text into a Theory, resolving include directives."""
    formulas: list[AnnotatedFormula] = []
    active: set[str] = set()
    if origin != "<memory>":
        active.add(os.path.realpath(origin))
    _parse_into(source, origin, include_dirs, formulas, active)
    _check_wellformed(formulas)
    return Theory(tuple(formulas))


def _read_text(path: str) -> str:
    """The text of a problem or included file; one that is not UTF-8 is a
    TptpError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise TptpError(f"{path}: not UTF-8 text: {exc}") from None


def parse_file(path: str, include_dirs: Sequence[str] = ()) -> Theory:
    return parse_problem(_read_text(path), include_dirs, origin=path)


# ---------------------------------------------------------------------------
# Rendering


def render_term(t: Term) -> str:
    if isinstance(t, str):
        return t
    head = _quote_if_needed(t[0])
    if not t[1]:
        return head
    return f"{head}({','.join(render_term(a) for a in t[1])})"


def _render_operand(f: Formula) -> str:
    text = render_formula(f)
    if isinstance(f, Binary):
        return f"({text})"
    return text


def render_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        if f.pred == EQUALITY:
            return " = ".join(map(render_term, f.args))
        return render_term((f.pred, f.args))
    if isinstance(f, Truth):
        return "$true" if f.value else "$false"
    if isinstance(f, Not):
        if isinstance(f.body, Atom) and f.body.pred == EQUALITY:
            return " != ".join(map(render_term, f.body.args))
        return f"~{_render_operand(f.body)}"
    if isinstance(f, Binary):
        if f.op in (AND, OR):
            # Flatten the left spine of an associative chain.
            parts: list[str] = [_render_operand(f.right)]
            node: Formula = f.left
            while isinstance(node, Binary) and node.op == f.op:
                parts.append(_render_operand(node.right))
                node = node.left
            parts.append(_render_operand(node))
            return f" {f.op} ".join(reversed(parts))
        return f"{_render_operand(f.left)} {f.op} {_render_operand(f.right)}"
    return f"{f.kind} [{','.join(f.variables)}] : {_render_operand(f.body)}"


def render_theory(t: Theory) -> str:
    lines = []
    for f in t.formulas:
        lines.append(f"fof({_quote_if_needed(f.name)}, {f.role}, {render_formula(f.formula)}).")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Signature analysis


def _signature(formulas: Sequence[AnnotatedFormula]) -> dict[str, list]:
    """symbol -> [kind, arity, occurrences, names of the formulas it occurs in].

    A symbol used with two kinds or arities raises ParseError at the later
    formula, naming both formulas."""
    info: dict[str, list] = {}
    for af in formulas:
        for sym, arity, is_predicate in symbols(af.formula):
            if is_predicate:
                kind = KIND_PREDICATE
            else:
                kind = KIND_FUNCTION if arity else KIND_CONSTANT
            entry = info.get(sym)
            if entry is None:
                info[sym] = [kind, arity, 1, [af.name]]
                continue
            if entry[0] != kind or entry[1] != arity:
                raise _formula_error(
                    af,
                    f"symbol {sym!r} used as {kind}/{arity} in {af.name!r} but as "
                    f"{entry[0]}/{entry[1]} in {entry[3][0]!r}",
                )
            entry[2] += 1
            if entry[3][-1] != af.name:
                entry[3].append(af.name)
    return info


@dataclass(frozen=True)
class SignatureEntry:
    symbol: str
    kind: str  # predicate | function | constant
    arity: int
    occurrence_count: int
    occurring_in: tuple[str, ...]


def signature_of(t: Theory) -> list[SignatureEntry]:
    """One entry per non-variable symbol, ordered by symbol name.

    Occurrence counts are per syntactic occurrence, not per formula.
    Raises ParseError if a symbol is used with two kinds or arities.
    """
    return [
        SignatureEntry(sym, kind, arity, count, tuple(names))
        for sym, (kind, arity, count, names) in sorted(_signature(t.formulas).items())
    ]


def hapax_legomena(t: Theory) -> list[SignatureEntry]:
    """Signature entries occurring exactly once: the classic typo heuristic."""
    return [e for e in signature_of(t) if e.occurrence_count == 1]
