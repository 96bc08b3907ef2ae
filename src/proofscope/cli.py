"""Command-line front end.

Subcommands: symbols, reprove, minimize, independence, consistency.
Exit codes: 0 success/clean, 1 finding (hapax/dependent), 2 input error,
3 conjecture unconfirmed, 4 inconclusive, 5 engine-verdict conflict.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from . import analysis, report as rpt
from .analysis import AnalysisError, IndependenceVerdict, QuerySession
from .engines import (
    BUILTIN_MODEL_FINDER_ID,
    BUILTIN_PROVER_ID,
    CAP_FINDS_MODELS,
    CAP_PROVES,
    EngineConfigError,
    EngineLimits,
    load_engine_config,
    resolve_engines,
)
from .tptp import Theory, TptpError, hapax_legomena, parse_file, signature_of
from .verdicts import Entailment, ExtendedStatus, VerdictConflictError, extended_statuses

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT_ERROR = 2
EXIT_UNCONFIRMED = 3
EXIT_INCONCLUSIVE = 4
EXIT_CONFLICT = 5

DEFAULT_ENGINES = [BUILTIN_PROVER_ID, BUILTIN_MODEL_FINDER_ID]
DEFAULT_TRIALS = 50
# The engine capability each subcommand that runs engines needs, as its error names it.
NEEDED_CAPABILITY = {
    "reprove": (CAP_PROVES, "at least one proving engine"),
    "minimize": (CAP_PROVES, "at least one proving engine"),
    "independence": (CAP_PROVES, "at least one proving engine"),
    "consistency": (CAP_FINDS_MODELS, "a model-finding engine"),
}


@dataclass
class RunConfig:
    """The checked flags of one run; built only by _config_from_args."""

    problem_path: str
    include_dirs: list[str]
    engines: list  # resolved engine objects, in flag order
    limits: EngineLimits
    parallelism: int
    seed: int
    output_format: str
    subset_budget: int
    unsat_mode: bool

    def to_dict(self) -> dict:
        return {
            "include_dirs": list(self.include_dirs),
            "timeout": self.limits.timeout,
            "parallelism": self.parallelism,
            "seed": self.seed,
            "max_domain_size": self.limits.max_domain_size,
            "subset_budget": self.subset_budget,
            "unsat_mode": self.unsat_mode,
        }


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("problem", help="TPTP problem file")
    shared.add_argument(
        "--include-dir", "-I", action="append", default=[], dest="include_dirs",
        help="directory searched for include() files (repeatable)",
    )
    shared.add_argument(
        "--engine", action="append", default=[], dest="engines",
        help="engine id: builtin-prover, builtin-model-finder, a preset "
        "(eprover, vampire, paradox), or an id from --engine-config (repeatable)",
    )
    shared.add_argument("--engine-config", help="JSON file mapping engine ids to specs")
    shared.add_argument("--timeout", type=float, default=10.0, help="seconds per engine call")
    shared.add_argument("--parallel", type=int, default=1, help="concurrent engine calls")
    shared.add_argument("--seed", type=int, default=0, help="seed for randomized analyses")
    shared.add_argument("--json", action="store_true", help="emit a JSON report")
    shared.add_argument(
        "--max-domain-size", type=int, default=4, help="model search bound"
    )
    shared.add_argument(
        "--subset-budget", type=int, default=4096,
        help="engine-call budget for minima enumeration",
    )

    parser = argparse.ArgumentParser(
        prog="proofscope",
        description="Proof analysis for first-order TPTP problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("symbols", parents=[shared], help="signature and hapax-legomena lint")

    reprove = sub.add_parser("reprove", parents=[shared], help="trim premises by reproving")
    reprove.add_argument("--method", choices=("syntactic", "semantic"), default="semantic")
    reprove.add_argument("--chain-minima", action="store_true")
    minimize = sub.add_parser(
        "minimize", parents=[shared],
        help="alias for reprove --method semantic --chain-minima",
    )
    minimize.set_defaults(method="semantic", chain_minima=True)
    for p in (reprove, minimize):
        p.add_argument(
            "--unsat-mode", action="store_true",
            help="treat a conjecture-free problem as an Unsatisfiable-mode task",
        )

    p = sub.add_parser("independence", parents=[shared], help="axiom independence check")
    p.add_argument("--method", choices=("naive", "failfast", "random"), default="naive")
    p.add_argument(
        "--trials", type=int, default=None,
        help=f"trial count, --method random only (default {DEFAULT_TRIALS})",
    )
    p.add_argument(
        "--max-subset-size", type=int, default=None,
        help="largest subset tried, --method failfast only (default: all)",
    )

    sub.add_parser("consistency", parents=[shared], help="model-existence triple check")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The run configuration; every flag error raises ValueError, OSError or
    EngineConfigError here, before the problem is read."""
    ids = list(args.engines) or list(DEFAULT_ENGINES)
    repeated = [eid for eid in ids if ids.count(eid) > 1]
    if repeated:
        raise ValueError(f"engine {repeated[0]!r} given more than once")
    config = load_engine_config(args.engine_config) if args.engine_config else None
    cfg = RunConfig(
        problem_path=args.problem,
        include_dirs=args.include_dirs,
        engines=resolve_engines(ids, config),
        limits=EngineLimits(timeout=args.timeout, max_domain_size=args.max_domain_size),
        parallelism=args.parallel,
        seed=args.seed,
        output_format="json" if args.json else "text",
        subset_budget=args.subset_budget,
        unsat_mode=getattr(args, "unsat_mode", False),
    )
    if args.command in NEEDED_CAPABILITY:
        capability, engine = NEEDED_CAPABILITY[args.command]
        if not any(capability in e.capabilities for e in cfg.engines):
            raise EngineConfigError(f"{args.command} needs {engine}")
    if cfg.parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    if cfg.subset_budget < 1:
        raise ValueError("subset budget must be at least 1")
    method = getattr(args, "method", None)
    trials = getattr(args, "trials", None)
    max_subset_size = getattr(args, "max_subset_size", None)
    if method == "syntactic" and args.chain_minima:
        raise ValueError("--chain-minima needs --method semantic")
    if trials is not None and method != "random":
        raise ValueError("--trials needs --method random")
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    if max_subset_size is not None and method != "failfast":
        raise ValueError("--max-subset-size needs --method failfast")
    if max_subset_size is not None and max_subset_size < 1:
        raise ValueError("max subset size must be at least 1")
    return cfg


def _session(cfg: RunConfig, theory: Theory) -> tuple[QuerySession, list[str]]:
    """A query session over theory with the configured engines, and their ids."""
    session = QuerySession(
        theory,
        provers=[e for e in cfg.engines if CAP_PROVES in e.capabilities],
        counters=[e for e in cfg.engines if CAP_FINDS_MODELS in e.capabilities],
        limits=cfg.limits,
        parallelism=cfg.parallelism,
    )
    return session, [e.id for e in cfg.engines]


def _fail(message: str, code: int, err) -> int:
    err.write(f"proofscope: {message}\n")
    return code


@dataclass
class Outcome:
    """What a subcommand found; main turns it into the report."""

    command: str
    theory: Theory
    engines: list[str]
    payload: dict
    exit_code: int
    extended_statuses: list[ExtendedStatus] = field(default_factory=list)
    engine_calls: int = 0


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed theory and returns an Outcome.  Input
# errors found in the theory raise AnalysisError.


def cmd_symbols(theory: Theory, cfg: RunConfig, args, err) -> Outcome:
    hapax = hapax_legomena(theory)
    payload = {
        "signature": rpt.signature_to_dict(signature_of(theory)),
        "hapax": rpt.signature_to_dict(hapax),
    }
    return Outcome("symbols", theory, [], payload, EXIT_FINDING if hapax else EXIT_OK)


def cmd_reprove(theory: Theory, cfg: RunConfig, args, err) -> Outcome:
    if theory.conjecture is None and not cfg.unsat_mode:
        raise AnalysisError(
            "problem has no conjecture; pass --unsat-mode for Unsatisfiable-mode "
            "problems or add a conjecture"
        )
    if theory.conjecture is not None and cfg.unsat_mode:
        raise AnalysisError("--unsat-mode is only for conjecture-free problems")
    session, engines = _session(cfg, theory)
    full = frozenset(theory.premise_names)
    initial_ent = session.decide(full, prefer="prove")
    initial_verdict = session.run_engine(full, session.provers[0])
    payload: dict = {
        "method": args.method,
        "initial": rpt.verdict_to_dict(initial_verdict, theory),
    }
    ext: list[ExtendedStatus] = []
    exit_code = EXIT_OK
    if initial_ent != Entailment.Proves:
        payload["error"] = (
            "conjecture not confirmed by the configured engines"
            if theory.conjecture is not None
            else "unsatisfiability not confirmed by the configured engines"
        )
        exit_code = EXIT_UNCONFIRMED
    elif args.method == "syntactic":
        payload["traces"] = [
            {
                "engine": engine.id,
                "trace": rpt.trace_to_dict(
                    analysis.syntactic_reprove(session, engine), theory
                ),
            }
            for engine in session.provers
        ]
    else:
        cls, confirmation = analysis.semantic_reprove(session)
        payload["classification"] = rpt.classification_to_dict(cls, theory)
        payload["confirmation"] = confirmation.value
        if args.chain_minima:
            minima = analysis.enumerate_minima(session, cls, cfg.subset_budget)
            payload["minima"] = rpt.minima_to_dict(minima, theory)
            ext = extended_statuses(minima, None, len(theory.premises))
    command = "minimize" if args.method == "semantic" and args.chain_minima else "reprove"
    return Outcome(command, theory, engines, payload, exit_code, ext, session.engine_calls)


def cmd_independence(theory: Theory, cfg: RunConfig, args, err) -> Outcome:
    if theory.conjecture is not None:
        err.write(
            "proofscope: warning: conjecture ignored for independence analysis\n"
        )
    axioms = theory.without_conjecture()
    if not axioms.premises:
        raise AnalysisError("independence needs at least one axiom")
    session, engines = _session(cfg, axioms)
    payload: dict = {"method": args.method}
    if args.method == "naive":
        result = analysis.independence_naive(session)
    elif args.method == "failfast":
        result = analysis.independence_failfast(session, args.max_subset_size)
    else:
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
        result = analysis.independence_random(session, trials, cfg.seed)
        payload["trials"] = trials
        payload["seed"] = cfg.seed
    payload.update(rpt.independence_to_dict(result, axioms))
    ext = extended_statuses(None, result, len(axioms.premises))
    exit_code = {
        IndependenceVerdict.Independent: EXIT_OK,
        IndependenceVerdict.Dependent: EXIT_FINDING,
    }.get(result.verdict, EXIT_INCONCLUSIVE)
    return Outcome(
        "independence", axioms, engines, payload, exit_code, ext, session.engine_calls
    )


def cmd_consistency(theory: Theory, cfg: RunConfig, args, err) -> Outcome:
    session, engines = _session(cfg, theory)
    result = analysis.consistency_triple(session)
    return Outcome(
        "consistency",
        theory,
        engines,
        rpt.consistency_to_dict(result, cfg.limits.timeout),
        EXIT_OK,
        engine_calls=session.engine_calls,
    )


COMMANDS = {
    "symbols": cmd_symbols,
    "reprove": cmd_reprove,
    "minimize": cmd_reprove,
    "independence": cmd_independence,
    "consistency": cmd_consistency,
}


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError, EngineConfigError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)
    try:
        theory = parse_file(cfg.problem_path, cfg.include_dirs)
        start = time.monotonic()
        outcome = COMMANDS[args.command](theory, cfg, args, err)
    except VerdictConflictError as exc:
        return _fail(f"engine verdict conflict: {exc}", EXIT_CONFLICT, err)
    except (
        TptpError, FileNotFoundError, IsADirectoryError, EngineConfigError, AnalysisError
    ) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)
    report = rpt.Report(
        command=outcome.command,
        problem=cfg.problem_path,
        theory_summary=rpt.theory_summary(outcome.theory),
        engines=outcome.engines,
        config=cfg.to_dict(),
        payload=outcome.payload,
        extended_statuses=[s.value for s in outcome.extended_statuses],
        engine_calls=outcome.engine_calls,
        elapsed_seconds=time.monotonic() - start,
    )
    out.write(report.to_json() + "\n" if cfg.output_format == "json" else report.to_text())
    return outcome.exit_code


def console_main() -> None:  # pragma: no cover - setuptools entry point
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
