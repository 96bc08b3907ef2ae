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
from .tptp import TptpError, hapax_legomena, parse_file, signature_of
from .verdicts import Entailment, VerdictConflictError, extended_statuses

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT_ERROR = 2
EXIT_UNCONFIRMED = 3
EXIT_INCONCLUSIVE = 4
EXIT_CONFLICT = 5

DEFAULT_ENGINES = [BUILTIN_PROVER_ID, BUILTIN_MODEL_FINDER_ID]
DEFAULT_TRIALS = 50


@dataclass
class RunConfig:
    problem_path: str
    include_dirs: list[str] = field(default_factory=list)
    engines: list[str] = field(default_factory=lambda: list(DEFAULT_ENGINES))
    limits: EngineLimits = field(default_factory=EngineLimits)
    parallelism: int = 1
    seed: int = 0
    output_format: str = "text"
    subset_budget: int = 4096
    engine_config: str | None = None
    unsat_mode: bool = False

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.subset_budget < 1:
            raise ValueError("subset budget must be at least 1")

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
    return RunConfig(
        problem_path=args.problem,
        include_dirs=args.include_dirs,
        engines=list(args.engines) or list(DEFAULT_ENGINES),
        limits=EngineLimits(timeout=args.timeout, max_domain_size=args.max_domain_size),
        parallelism=args.parallel,
        seed=args.seed,
        output_format="json" if args.json else "text",
        subset_budget=args.subset_budget,
        engine_config=args.engine_config,
        unsat_mode=getattr(args, "unsat_mode", False),
    )


def _load_engines(cfg: RunConfig) -> list:
    config = load_engine_config(cfg.engine_config) if cfg.engine_config else None
    return resolve_engines(cfg.engines, config)


def _split_capabilities(engines: list) -> tuple[list, list]:
    provers = [e for e in engines if CAP_PROVES in e.capabilities]
    counters = [e for e in engines if CAP_FINDS_MODELS in e.capabilities]
    return provers, counters


def _emit(report: rpt.Report, cfg: RunConfig, out) -> None:
    if cfg.output_format == "json":
        out.write(report.to_json() + "\n")
    else:
        out.write(report.to_text())


def _fail(message: str, code: int, err) -> int:
    err.write(f"proofscope: {message}\n")
    return code


# ---------------------------------------------------------------------------
# Subcommands


def cmd_symbols(cfg: RunConfig, out, err) -> int:
    theory = parse_file(cfg.problem_path, cfg.include_dirs)
    start = time.monotonic()
    signature = signature_of(theory)
    hapax = hapax_legomena(theory)
    report = rpt.Report(
        command="symbols",
        problem=cfg.problem_path,
        theory_summary=rpt.theory_summary(theory),
        engines=[],
        config=cfg.to_dict(),
        payload={
            "signature": rpt.signature_to_dict(signature),
            "hapax": rpt.signature_to_dict(hapax),
        },
        extended_statuses=[],
        engine_calls=0,
        elapsed_seconds=time.monotonic() - start,
    )
    _emit(report, cfg, out)
    return EXIT_FINDING if hapax else EXIT_OK


def cmd_reprove(cfg: RunConfig, method: str, chain_minima: bool, out, err) -> int:
    if method == "syntactic" and chain_minima:
        return _fail("--chain-minima needs --method semantic", EXIT_INPUT_ERROR, err)
    theory = parse_file(cfg.problem_path, cfg.include_dirs)
    if theory.conjecture is None and not cfg.unsat_mode:
        return _fail(
            "problem has no conjecture; pass --unsat-mode for Unsatisfiable-mode "
            "problems or add a conjecture",
            EXIT_INPUT_ERROR,
            err,
        )
    if theory.conjecture is not None and cfg.unsat_mode:
        return _fail(
            "--unsat-mode is only for conjecture-free problems",
            EXIT_INPUT_ERROR,
            err,
        )
    engines = _load_engines(cfg)
    provers, counters = _split_capabilities(engines)
    if not provers:
        return _fail("reprove needs at least one proving engine", EXIT_INPUT_ERROR, err)
    start = time.monotonic()
    session = QuerySession(
        theory,
        provers=provers,
        counters=counters,
        limits=cfg.limits,
        parallelism=cfg.parallelism,
        unsat_mode=cfg.unsat_mode,
    )
    full = frozenset(theory.premise_names)
    [initial_ent] = session.decide([full], prefer="prove")
    initial_verdict = session.run_engine(full, provers[0])
    payload: dict = {
        "method": method,
        "initial": rpt.verdict_to_dict(initial_verdict, theory),
    }
    ext: list[str] = []
    exit_code = EXIT_OK
    if initial_ent != Entailment.Proves:
        payload["error"] = (
            "conjecture not confirmed by the configured engines"
            if theory.conjecture is not None
            else "unsatisfiability not confirmed by the configured engines"
        )
        exit_code = EXIT_UNCONFIRMED
    elif method == "syntactic":
        payload["traces"] = [
            {
                "engine": engine.id,
                "trace": rpt.trace_to_dict(
                    analysis.syntactic_reprove(session, engine), theory
                ),
            }
            for engine in provers
        ]
    else:
        cls, confirmation = analysis.semantic_reprove(session)
        payload["classification"] = rpt.classification_to_dict(cls, theory)
        payload["confirmation"] = confirmation.value
        if chain_minima:
            minima = analysis.enumerate_minima(session, cls, cfg.subset_budget)
            payload["minima"] = rpt.minima_to_dict(minima, theory)
            ext = [
                s.value
                for s in extended_statuses(minima, None, len(theory.premises))
            ]
    report = rpt.Report(
        command="reprove" if method != "semantic" or not chain_minima else "minimize",
        problem=cfg.problem_path,
        theory_summary=rpt.theory_summary(theory),
        engines=[e.id for e in engines],
        config=cfg.to_dict(),
        payload=payload,
        extended_statuses=ext,
        engine_calls=session.engine_calls,
        elapsed_seconds=time.monotonic() - start,
    )
    _emit(report, cfg, out)
    return exit_code


def cmd_independence(
    cfg: RunConfig,
    method: str,
    trials: int | None,
    max_subset_size: int | None,
    out,
    err,
) -> int:
    if trials is not None and method != "random":
        return _fail("--trials needs --method random", EXIT_INPUT_ERROR, err)
    if max_subset_size is not None and method != "failfast":
        return _fail("--max-subset-size needs --method failfast", EXIT_INPUT_ERROR, err)
    theory = parse_file(cfg.problem_path, cfg.include_dirs)
    if theory.conjecture is not None:
        err.write(
            "proofscope: warning: conjecture ignored for independence analysis\n"
        )
    axioms = theory.without_conjecture()
    if not axioms.premises:
        return _fail("independence needs at least one axiom", EXIT_INPUT_ERROR, err)
    engines = _load_engines(cfg)
    provers, counters = _split_capabilities(engines)
    if not provers:
        return _fail(
            "independence needs at least one proving engine", EXIT_INPUT_ERROR, err
        )
    start = time.monotonic()
    session = QuerySession(
        axioms,
        provers=provers,
        counters=counters,
        limits=cfg.limits,
        parallelism=cfg.parallelism,
    )
    if method == "naive":
        result = analysis.independence_naive(session)
    elif method == "failfast":
        result = analysis.independence_failfast(session, max_subset_size)
    else:
        trials = DEFAULT_TRIALS if trials is None else trials
        result = analysis.independence_random(session, trials, cfg.seed)
    payload = {
        "method": method,
        **rpt.independence_to_dict(result, axioms),
    }
    if method == "random":
        payload["trials"] = trials
        payload["seed"] = cfg.seed
    ext = [s.value for s in extended_statuses(None, result, len(axioms.premises))]
    report = rpt.Report(
        command="independence",
        problem=cfg.problem_path,
        theory_summary=rpt.theory_summary(axioms),
        engines=[e.id for e in engines],
        config=cfg.to_dict(),
        payload=payload,
        extended_statuses=ext,
        engine_calls=session.engine_calls,
        elapsed_seconds=time.monotonic() - start,
    )
    _emit(report, cfg, out)
    if result.verdict == IndependenceVerdict.Independent:
        return EXIT_OK
    if result.verdict == IndependenceVerdict.Dependent:
        return EXIT_FINDING
    return EXIT_INCONCLUSIVE


def cmd_consistency(cfg: RunConfig, out, err) -> int:
    theory = parse_file(cfg.problem_path, cfg.include_dirs)
    engines = _load_engines(cfg)
    _, counters = _split_capabilities(engines)
    if not counters:
        return _fail(
            "consistency checking needs a model-finding engine", EXIT_INPUT_ERROR, err
        )
    start = time.monotonic()
    result = analysis.consistency_triple(theory, counters[0], cfg.limits)
    checks = sum(
        1
        for c in (
            result.axioms_only,
            result.axioms_plus_conjecture,
            result.axioms_plus_negated_conjecture,
        )
        if c is not None
    )
    report = rpt.Report(
        command="consistency",
        problem=cfg.problem_path,
        theory_summary=rpt.theory_summary(theory),
        engines=[e.id for e in engines],
        config=cfg.to_dict(),
        payload=rpt.consistency_to_dict(result),
        extended_statuses=[],
        engine_calls=checks,
        elapsed_seconds=time.monotonic() - start,
    )
    _emit(report, cfg, out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)
    try:
        if args.command == "symbols":
            return cmd_symbols(cfg, out, err)
        if args.command == "reprove":
            return cmd_reprove(cfg, args.method, args.chain_minima, out, err)
        if args.command == "minimize":
            return cmd_reprove(cfg, "semantic", True, out, err)
        if args.command == "independence":
            return cmd_independence(
                cfg, args.method, args.trials, args.max_subset_size, out, err
            )
        return cmd_consistency(cfg, out, err)
    except VerdictConflictError as exc:
        return _fail(f"engine verdict conflict: {exc}", EXIT_CONFLICT, err)
    except (TptpError, FileNotFoundError, IsADirectoryError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)
    except (EngineConfigError, AnalysisError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)


def console_main() -> None:  # pragma: no cover - setuptools entry point
    sys.exit(main())
