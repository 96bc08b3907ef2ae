"""Report assembly: one payload, rendered as JSON or text."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .analysis import (
    ConsistencyReport,
    IndependenceReport,
    MinimaReport,
    NeededClassification,
    ReproveTrace,
)
from .engines import EngineVerdict
from .modelfinder import model_to_tables, model_to_text
from .tptp import SignatureEntry, Theory


def verdict_to_dict(v: EngineVerdict, theory: Theory) -> dict:
    return {
        "engine": v.engine_id,
        "status": v.status.value,
        "used_premises": theory.ordered(v.used_premises),
        "has_premise_info": v.has_premise_info,
        "raw_output_digest": v.raw_output_digest,
        "elapsed_seconds": round(v.elapsed, 6),
    }


def signature_to_dict(entries: list[SignatureEntry]) -> list[dict]:
    return [
        {
            "symbol": e.symbol,
            "kind": e.kind,
            "arity": e.arity,
            "occurrences": e.occurrence_count,
            "occurring_in": list(e.occurring_in),
        }
        for e in entries
    ]


def trace_to_dict(trace: ReproveTrace, theory: Theory) -> dict:
    return {
        "stages": [
            {"premises": list(premises), "verdict": verdict_to_dict(v, theory)}
            for premises, v in trace.stages
        ],
        "fixpoint_reached": trace.fixpoint_reached,
    }


def classification_to_dict(cls: NeededClassification, theory: Theory) -> dict:
    return {
        "needed": theory.ordered(cls.needed),
        "eliminable": theory.ordered(cls.eliminable),
        "unknown": theory.ordered(cls.unknown),
        "approximate": cls.approximate,
    }


def minima_to_dict(report: MinimaReport, theory: Theory, subset_budget: int) -> dict:
    return {
        "minima": [theory.ordered(m) for m in report.minima],
        "exhaustive": report.exhaustive,
        "budget_spent": report.budget_spent,
        "subset_budget": subset_budget,
    }


def independence_to_dict(report: IndependenceReport, theory: Theory) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "axiom": report.witness[0],
            "subset": theory.ordered(report.witness[1]),
        }
    return {
        "verdict": report.verdict.value,
        "witness": witness,
        "per_axiom": {name: ent.value for name, ent in report.per_axiom.items()},
    }


# The checks of the consistency triple, by payload key: each one's label and
# the reading of each outcome (an outcome without a reading reads as itself).
CONSISTENCY_CHECKS = {
    "axioms_only": ("axioms", {
        "ModelFound": "axioms are consistent (finite model found)",
        "ExhaustedUpTo": "no finite model within bounds; axioms may be inconsistent",
        "Unsatisfiable": "axioms are inconsistent",
        "ResourceOut": "search ran out of resources",
    }),
    "axioms_plus_conjecture": ("axioms plus conjecture", {
        "ModelFound": "axioms plus conjecture are consistent",
        "ExhaustedUpTo": "no finite model within bounds for axioms plus conjecture",
        "Unsatisfiable": "conjecture contradicts the axioms",
        "ResourceOut": "search ran out of resources",
    }),
    "axioms_plus_negated_conjecture": ("axioms plus negated conjecture", {
        "ModelFound": "conjecture is countersatisfiable: not derivable from the axioms",
        "ExhaustedUpTo": "no countermodel within bounds; consistent with the conjecture being a theorem",
        "Unsatisfiable": "negated conjecture contradicts the axioms: conjecture is a theorem",
        "ResourceOut": "search ran out of resources",
    }),
}


def consistency_to_dict(report: ConsistencyReport, budget: float) -> dict:
    """The consistency payload; budget is the per-call timeout of the run."""
    payload: dict = {}
    for key, (label, readings) in CONSISTENCY_CHECKS.items():
        check = getattr(report, key)
        if check is None:
            payload[key] = None
            continue
        v, model = check.verdict, check.verdict.model
        payload[key] = {
            "label": label,
            "engine": v.engine_id,
            "outcome": check.outcome,
            "reading": readings.get(check.outcome, check.outcome),
            "budget_seconds": budget,
            "domain_size": model.domain_size if model else None,
            "exhausted_size": v.exhausted_size,
            "model": model_to_tables(model) if model else None,
            "model_text": model_to_text(model) if model else None,
        }
    return payload


@dataclass
class Report:
    command: str
    problem: str
    theory_summary: dict
    engines: list[str]
    config: dict
    payload: dict
    extended_statuses: list[str]
    engine_calls: int
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "problem": self.problem,
            "theory": self.theory_summary,
            "engines": self.engines,
            "config": self.config,
            "payload": self.payload,
            "extended_statuses": self.extended_statuses,
            "engine_calls": self.engine_calls,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        return render_text(self.to_dict())


def theory_summary(t: Theory) -> dict:
    return {
        "premise_count": len(t.premises),
        "premise_names": list(t.premise_names),
        "conjecture": t.conjecture.name if t.conjecture else None,
    }


# ---------------------------------------------------------------------------
# Text rendering (derived from the same payload dictionaries)


def _verdict_line(v: dict) -> str:
    used = f" used={','.join(v['used_premises'])}" if v["used_premises"] else ""
    return f"{v['status']} [{v['engine']}]{used}"


def render_text(report: dict) -> str:
    lines: list[str] = []
    theory = report["theory"]
    conj = theory["conjecture"] or "(none)"
    lines.append(f"command: {report['command']}  problem: {report['problem']}")
    lines.append(
        f"theory: {theory['premise_count']} premises, conjecture {conj}"
    )
    payload: dict[str, Any] = report["payload"]
    cmd = report["command"]
    if cmd == "symbols":
        lines.append("signature:")
        for e in payload["signature"]:
            lines.append(
                f"  {e['symbol']}/{e['arity']} {e['kind']}: "
                f"{e['occurrences']} occurrence(s) in {','.join(e['occurring_in'])}"
            )
        if payload["hapax"]:
            lines.append("hapax legomena (possible typos):")
            for e in payload["hapax"]:
                lines.append(
                    f"  {e['symbol']}/{e['arity']} occurs once, in {e['occurring_in'][0]}"
                )
        else:
            lines.append("hapax legomena: none")
    elif cmd in ("reprove", "minimize"):
        lines.append(f"method: {payload['method']}")
        lines.append(f"initial verdict: {_verdict_line(payload['initial'])}")
        for trace in payload.get("traces", []):
            lines.append(f"syntactic trace [{trace['engine']}]:")
            for stage in trace["trace"]["stages"]:
                lines.append(
                    f"  {len(stage['premises'])} premises -> {_verdict_line(stage['verdict'])}"
                )
            lines.append(f"  fixpoint reached: {trace['trace']['fixpoint_reached']}")
        cls = payload.get("classification")
        if cls:
            lines.append(
                f"needed ({len(cls['needed'])}): {', '.join(cls['needed']) or '(none)'}"
            )
            lines.append(
                f"eliminable ({len(cls['eliminable'])}): {', '.join(cls['eliminable']) or '(none)'}"
            )
            if cls["unknown"]:
                lines.append(
                    f"unknown ({len(cls['unknown'])}): {', '.join(cls['unknown'])} (classification approximate)"
                )
            lines.append(f"confirmation: {payload['confirmation']}")
        minima = payload.get("minima")
        if minima:
            lines.append(
                f"minima ({len(minima['minima'])}; exhaustive={minima['exhaustive']}):"
            )
            for m in minima["minima"]:
                lines.append(f"  {{{', '.join(m)}}}")
    elif cmd == "independence":
        lines.append(f"method: {payload['method']}")
        lines.append(f"verdict: {payload['verdict']}")
        if payload["witness"]:
            w = payload["witness"]
            subset = ", ".join(w["subset"]) or "(empty)"
            lines.append(f"witness: {w['axiom']} derivable from {{{subset}}}")
        per = payload.get("per_axiom", {})
        if per:
            lines.append("per-axiom (others derive it?):")
            for name, ent in per.items():
                lines.append(f"  {name}: {ent}")
    elif cmd == "consistency":
        for key in CONSISTENCY_CHECKS:
            check = payload[key]
            if not check:
                continue
            lines.append(f"{check['label']}: {check['outcome']} - {check['reading']}")
            if check.get("model_text"):
                for line in check["model_text"].splitlines():
                    lines.append(f"    {line}")
    if report["extended_statuses"]:
        lines.append("extended statuses: " + ", ".join(report["extended_statuses"]))
    lines.append(
        f"engine calls: {report['engine_calls']}  elapsed: {report['elapsed_seconds']:.2f}s"
    )
    return "\n".join(lines) + "\n"
