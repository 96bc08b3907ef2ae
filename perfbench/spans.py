"""Spans around the calls into each proofscope module, taken from outside.

Nothing in ``src/`` changes: ``instrument`` swaps the module attributes that
callers actually look up (``engines.prove``, ``Theory.restrict``, ...) for
timing wrappers and puts the originals back on exit.  Spans stay in memory
with the index of their parent span; a layer's self time is the time its
spans cover minus the time their child spans cover.

``guard`` is the part that also runs untraced: it watches every engine
outcome, because an analysis with a call that ran out of resources counts as
failed even when its report looks right.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Callable

from proofscope import cli, engines, modelfinder, prover
from proofscope.analysis import QuerySession
from proofscope.engines import BuiltinModelFinder, BuiltinProver
from proofscope.modelfinder import ModelKind
from proofscope.report import Report
from proofscope.tptp import Theory
from proofscope.verdicts import SzsStatus


class Tracer:
    """Spans in memory: [name, parent index or -1, start, end].

    proofscope runs one engine call at a time here (``--parallel 1``), so
    the innermost open span is the parent of a new one.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.open: list = []  # indices of the spans not yet ended
        self.counters: dict = {}

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def totals(self) -> tuple:
        """Per span name: calls, inclusive seconds, and self seconds (the
        span's time minus the time its child spans cover)."""
        child_s = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict = {}
        total_s: dict = {}
        self_s: dict = {}
        for (name, _, start, end), inner in zip(self.spans, child_s):
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - inner
        return calls, total_s, self_s


# ---------------------------------------------------------------------------
# What to wrap.  Each entry: (owner, attribute, span name, counter hook).
# A hook sees the tracer, the call's arguments, its result, and the value
# `before` returned just ahead of the call.


def _prover_outcome(tracer: Tracer, args, outcome, before) -> None:
    tracer.count("prover.generated", outcome.stats.generated)
    tracer.count("prover.kept", outcome.stats.kept)
    if outcome.status == SzsStatus.ResourceOut:
        tracer.count("prover.resource_out")


def _model_outcome(tracer: Tracer, args, outcome, before) -> None:
    tracer.count(f"modelfinder.{outcome.kind.name}")
    if outcome.model is not None:
        tracer.count("modelfinder.max_domain", outcome.model.domain_size)
    elif outcome.exhausted_size is not None:
        tracer.count("modelfinder.max_domain", outcome.exhausted_size)


def _clauses_out(tracer: Tracer, args, clauses, before) -> None:
    tracer.count("clauses.clauses_out", len(clauses))


def _decide(tracer: Tracer, args, result, before) -> None:
    if args[0].engine_calls == before:
        tracer.count("analysis.engine_free_decides")


def _engine_calls_before(args):
    return args[0].engine_calls


@dataclass(frozen=True)
class Patch:
    owner: object
    attribute: str
    span: str
    hook: Callable | None = None
    before: Callable | None = None


PATCHES = (
    Patch(cli, "main", "cli.main"),
    Patch(cli, "parse_file", "tptp.parse_file"),
    Patch(Theory, "restrict", "tptp.restrict"),
    Patch(QuerySession, "decide", "analysis.decide", _decide, _engine_calls_before),
    Patch(QuerySession, "run_engine", "analysis.run_engine"),
    Patch(BuiltinProver, "run", "engines.prover_run"),
    Patch(BuiltinModelFinder, "run", "engines.finder_run"),
    Patch(BuiltinModelFinder, "search_formulas", "engines.search_formulas"),
    Patch(engines, "prove", "prover.prove", _prover_outcome),
    Patch(engines, "refute", "prover.refute", _prover_outcome),
    Patch(engines, "find_model", "modelfinder.find_model", _model_outcome),
    Patch(prover, "clausify", "clauses.prover_clausify", _clauses_out),
    Patch(modelfinder, "clausify", "clauses.finder_clausify", _clauses_out),
    Patch(modelfinder, "verify_model", "modelfinder.verify_model"),
    Patch(Report, "to_json", "report.to_json"),
)


def _traced(tracer: Tracer, patch: Patch, original: Callable) -> Callable:
    span, hook, before = patch.span, patch.hook, patch.before

    def wrapper(*args, **kwargs):
        state = before(args) if before else None
        record = [span, tracer.open[-1] if tracer.open else -1, 0.0, 0.0]
        tracer.open.append(len(tracer.spans))
        tracer.spans.append(record)
        record[2] = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            tracer.open.pop()
        if hook:
            hook(tracer, args, result, state)
        return result

    return wrapper


@contextlib.contextmanager
def _patched(replacements):
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def instrument(tracer: Tracer):
    """Context manager that routes every patched call through the tracer."""
    return _patched(
        [(p.owner, p.attribute, _traced(tracer, p, getattr(p.owner, p.attribute)))
         for p in PATCHES]
    )


class Guard:
    """Counts engine outcomes that ended without a decisive search."""

    def __init__(self) -> None:
        self.undecided = 0

    def _watch(self, original: Callable, undecided: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            outcome = original(*args, **kwargs)
            if undecided(outcome):
                self.undecided += 1
            return outcome

        return wrapper

    def install(self):
        def prover_undecided(o):
            return o.status in (SzsStatus.ResourceOut, SzsStatus.Timeout)

        def finder_undecided(o):
            return o.kind == ModelKind.ResourceOut

        return _patched([
            (engines, "prove", self._watch(engines.prove, prover_undecided)),
            (engines, "refute", self._watch(engines.refute, prover_undecided)),
            (engines, "find_model", self._watch(engines.find_model, finder_undecided)),
        ])


# ---------------------------------------------------------------------------
# Layer metrics


def _sum(table: dict, *names: str) -> float:
    return sum(table.get(n, 0) for n in names)


def layer_metrics(tracer: Tracer, iterations: int) -> dict:
    """Per-layer values per pass over the analysis list."""
    c, t, s = tracer.totals()
    k = tracer.counters
    per = 1.0 / iterations

    def layer_self(prefix: str) -> float:
        return sum(v for name, v in s.items() if name.startswith(prefix)) * per

    generated = k.get("prover.generated", 0)
    decides = c.get("analysis.decide", 0)
    values = {
        "prover.calls": _sum(c, "prover.prove", "prover.refute") * per,
        "prover.s": _sum(t, "prover.prove", "prover.refute") * per,
        "prover.self_s": layer_self("prover."),
        "prover.generated": generated * per,
        "prover.kept": k.get("prover.kept", 0) * per,
        "prover.kept_ratio": k.get("prover.kept", 0) / generated if generated else 0.0,
        "prover.resource_out": k.get("prover.resource_out", 0) * per,
        "clauses.clausify_calls": _sum(c, "clauses.prover_clausify", "clauses.finder_clausify") * per,
        "clauses.clausify_s": layer_self("clauses."),
        "clauses.clauses_out": k.get("clauses.clauses_out", 0) * per,
        "tptp.parse_calls": c.get("tptp.parse_file", 0) * per,
        "tptp.parse_s": t.get("tptp.parse_file", 0.0) * per,
        "tptp.restrict_calls": c.get("tptp.restrict", 0) * per,
        "tptp.restrict_s": t.get("tptp.restrict", 0.0) * per,
        "modelfinder.calls": c.get("modelfinder.find_model", 0) * per,
        "modelfinder.s": t.get("modelfinder.find_model", 0.0) * per,
        "modelfinder.self_s": layer_self("modelfinder."),
        "modelfinder.found": k.get("modelfinder.ModelFound", 0) * per,
        "modelfinder.exhausted": k.get("modelfinder.ExhaustedUpTo", 0) * per,
        "modelfinder.resource_out": k.get("modelfinder.ResourceOut", 0) * per,
        "modelfinder.max_domain": k.get("modelfinder.max_domain", 0) * per,
        "modelfinder.verify_s": t.get("modelfinder.verify_model", 0.0) * per,
        "engines.calls": _sum(c, "engines.prover_run", "engines.finder_run", "engines.search_formulas") * per,
        "engines.self_s": layer_self("engines."),
        "analysis.decide_calls": decides * per,
        "analysis.engine_free_share": (
            k.get("analysis.engine_free_decides", 0) / decides if decides else 0.0
        ),
        "analysis.self_s": layer_self("analysis."),
        "report.to_json_s": t.get("report.to_json", 0.0) * per,
        "cli.self_s": layer_self("cli."),
    }
    # Counts repeat exactly from pass to pass; print them as whole numbers.
    return {k: int(v) if isinstance(v, float) and v.is_integer() else v
            for k, v in values.items()}
