"""Command-line front end.

Subcommands: symbols, reprove, minimize, independence, consistency.
Exit codes: 0 success/clean, 1 finding (hapax/dependent), 2 input error,
3 conjecture unconfirmed, 4 inconclusive, 5 engine-verdict conflict.
"""

from __future__ import annotations

import argparse
import functools
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
from .tptp import Theory, TptpError, parse_file, signature_of
from .verdicts import Entailment, ExtendedStatus, VerdictConflictError, extended_statuses

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT_ERROR = 2
EXIT_UNCONFIRMED = 3
EXIT_INCONCLUSIVE = 4
EXIT_CONFLICT = 5

DEFAULT_ENGINES = [BUILTIN_PROVER_ID, BUILTIN_MODEL_FINDER_ID]
DEFAULT_TRIALS = 50
DEFAULT_SUBSET_BUDGET = 4096
# The engine capability each subcommand that runs engines needs, as its error names it.
NEEDED_CAPABILITY = {
    "reprove": (CAP_PROVES, "at least one proving engine"),
    "minimize": (CAP_PROVES, "at least one proving engine"),
    "independence": (CAP_PROVES, "at least one proving engine"),
    "consistency": (CAP_FINDS_MODELS, "a model-finding engine"),
}
# The settings a report's config lists: those of them the subcommand takes.
CONFIG_KEYS = ("include_dirs", "timeout", "parallelism", "max_domain_size", "unsat_mode")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each parse starts from a fresh namespace."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="TPTP problem file")
    common.add_argument(
        "--include-dir", "-I", action="append", default=[], dest="include_dirs",
        help="directory searched for include() files (repeatable)",
    )
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--engine", action="append", default=[], dest="engine_ids", metavar="ID",
        help="engine id: builtin-prover, builtin-model-finder, a preset "
        "(eprover, vampire, paradox), or an id from --engine-config (repeatable)",
    )
    engine.add_argument("--engine-config", help="JSON file mapping engine ids to specs")
    engine.add_argument("--timeout", type=float, default=10.0, help="seconds per engine call")
    engine.add_argument(
        "--parallel", type=int, default=1, dest="parallelism", help="concurrent engine calls"
    )
    engine.add_argument("--max-domain-size", type=int, default=4, help="model search bound")
    runs_engines = [common, engine]

    parser = argparse.ArgumentParser(
        prog="proofscope",
        description="Proof analysis for first-order TPTP problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("symbols", parents=[common], help="signature and hapax-legomena lint")

    reprove = sub.add_parser("reprove", parents=runs_engines, help="trim premises by reproving")
    reprove.add_argument("--method", choices=("syntactic", "semantic"), default="semantic")
    reprove.add_argument("--chain-minima", action="store_true")
    minimize = sub.add_parser(
        "minimize", parents=runs_engines,
        help="alias for reprove --method semantic --chain-minima",
    )
    minimize.set_defaults(method="semantic", chain_minima=True)
    for p in (reprove, minimize):
        p.add_argument(
            "--unsat-mode", action="store_true",
            help="treat a conjecture-free problem as an Unsatisfiable-mode task",
        )
        p.add_argument(
            "--subset-budget", type=int, default=None,
            help="engine-call budget for minima enumeration, chain minima only "
            f"(default {DEFAULT_SUBSET_BUDGET})",
        )

    p = sub.add_parser("independence", parents=runs_engines, help="axiom independence check")
    p.add_argument("--method", choices=("naive", "failfast", "random"), default="naive")
    p.add_argument(
        "--trials", type=int, default=None,
        help=f"trial count, --method random only (default {DEFAULT_TRIALS})",
    )
    p.add_argument(
        "--seed", type=int, default=None, help="seed, --method random only (default 0)"
    )
    p.add_argument(
        "--max-subset-size", type=int, default=None,
        help="largest subset tried, --method failfast only (default: all)",
    )

    sub.add_parser("consistency", parents=runs_engines, help="model-existence triple check")
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv.  argparse reports a flag that a subcommand does not take
    with the top-level usage line; this reports it with the subcommand's own
    usage and error lines, still exiting 2."""
    parser = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        sub.choices[args.command].error("unrecognized arguments: " + " ".join(unknown))
    return args


def _check_args(args: argparse.Namespace) -> None:
    """Check the flags of a subcommand that runs engines, and add the resolved
    engines and limits to args; every flag error raises ValueError, OSError or
    EngineConfigError here, before the problem is read."""
    if args.command not in NEEDED_CAPABILITY:
        return
    ids = list(args.engine_ids) or list(DEFAULT_ENGINES)
    repeated = [eid for eid in ids if ids.count(eid) > 1]
    if repeated:
        raise ValueError(f"engine {repeated[0]!r} given more than once")
    config = load_engine_config(args.engine_config) if args.engine_config else None
    args.engines = resolve_engines(ids, config)
    args.limits = EngineLimits(timeout=args.timeout, max_domain_size=args.max_domain_size)
    capability, engine = NEEDED_CAPABILITY[args.command]
    if not any(capability in e.capabilities for e in args.engines):
        raise EngineConfigError(f"{args.command} needs {engine}")
    if args.parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    method = getattr(args, "method", None)
    chain_minima = getattr(args, "chain_minima", False)
    if method == "syntactic" and chain_minima:
        raise ValueError("--chain-minima needs --method semantic")
    # Flags that one method alone reads, what each needs, and whether the run has it.
    for dest, needs, has in (
        ("subset_budget", "--chain-minima", chain_minima),
        ("trials", "--method random", method == "random"),
        ("seed", "--method random", method == "random"),
        ("max_subset_size", "--method failfast", method == "failfast"),
    ):
        value = getattr(args, dest, None)
        if value is not None and not has:
            raise ValueError(f"--{dest.replace('_', '-')} needs {needs}")
        if value is not None and value < 1 and dest != "seed":  # any seed will do
            raise ValueError(f"{dest.replace('_', ' ')} must be at least 1")


def _session(args: argparse.Namespace, theory: Theory) -> tuple[QuerySession, list[str]]:
    """A query session over theory with the run's engines, and their ids."""
    session = QuerySession(
        theory,
        provers=[e for e in args.engines if CAP_PROVES in e.capabilities],
        counters=[e for e in args.engines if CAP_FINDS_MODELS in e.capabilities],
        limits=args.limits,
        parallelism=args.parallelism,
    )
    return session, [e.id for e in args.engines]


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


def cmd_symbols(theory: Theory, args: argparse.Namespace, err) -> Outcome:
    signature = signature_of(theory)
    hapax = [e for e in signature if e.occurrence_count == 1]
    payload = {
        "signature": rpt.signature_to_dict(signature),
        "hapax": rpt.signature_to_dict(hapax),
    }
    return Outcome("symbols", theory, [], payload, EXIT_FINDING if hapax else EXIT_OK)


def cmd_reprove(theory: Theory, args: argparse.Namespace, err) -> Outcome:
    if theory.conjecture is None and not args.unsat_mode:
        raise AnalysisError(
            "problem has no conjecture; pass --unsat-mode for Unsatisfiable-mode "
            "problems or add a conjecture"
        )
    if theory.conjecture is not None and args.unsat_mode:
        raise AnalysisError("--unsat-mode is only for conjecture-free problems")
    session, engines = _session(args, theory)
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
            budget = DEFAULT_SUBSET_BUDGET if args.subset_budget is None else args.subset_budget
            minima = analysis.enumerate_minima(session, cls, budget)
            payload["minima"] = rpt.minima_to_dict(minima, theory, budget)
            ext = extended_statuses(minima, None, len(theory.premises))
    command = "minimize" if args.method == "semantic" and args.chain_minima else "reprove"
    return Outcome(command, theory, engines, payload, exit_code, ext, session.engine_calls)


def cmd_independence(theory: Theory, args: argparse.Namespace, err) -> Outcome:
    if theory.conjecture is not None:
        err.write(
            "proofscope: warning: conjecture ignored for independence analysis\n"
        )
    axioms = theory.without_conjecture()
    if not axioms.premises:
        raise AnalysisError("independence needs at least one axiom")
    session, engines = _session(args, axioms)
    payload: dict = {"method": args.method}
    if args.method == "naive":
        result = analysis.independence_naive(session)
    elif args.method == "failfast":
        result = analysis.independence_failfast(session, args.max_subset_size)
    else:
        trials = DEFAULT_TRIALS if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        result = analysis.independence_random(session, trials, seed)
        payload["trials"] = trials
        payload["seed"] = seed
    payload.update(rpt.independence_to_dict(result, axioms))
    ext = extended_statuses(None, result, len(axioms.premises))
    exit_code = {
        IndependenceVerdict.Independent: EXIT_OK,
        IndependenceVerdict.Dependent: EXIT_FINDING,
    }.get(result.verdict, EXIT_INCONCLUSIVE)
    return Outcome(
        "independence", axioms, engines, payload, exit_code, ext, session.engine_calls
    )


def cmd_consistency(theory: Theory, args: argparse.Namespace, err) -> Outcome:
    session, engines = _session(args, theory)
    result = analysis.consistency_triple(session)
    return Outcome(
        "consistency",
        theory,
        engines,
        rpt.consistency_to_dict(result, args.timeout),
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
    args = _parse_args(argv)
    try:
        _check_args(args)
    except (ValueError, OSError, EngineConfigError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)
    try:
        theory = parse_file(args.problem, args.include_dirs)
        start = time.monotonic()
        outcome = COMMANDS[args.command](theory, args, err)
    except VerdictConflictError as exc:
        return _fail(f"engine verdict conflict: {exc}", EXIT_CONFLICT, err)
    except (TptpError, OSError, EngineConfigError, AnalysisError) as exc:
        return _fail(str(exc), EXIT_INPUT_ERROR, err)
    report = rpt.Report(
        command=outcome.command,
        problem=args.problem,
        theory_summary=rpt.theory_summary(outcome.theory),
        engines=outcome.engines,
        config={key: getattr(args, key) for key in CONFIG_KEYS if hasattr(args, key)},
        payload=outcome.payload,
        extended_statuses=[s.value for s in outcome.extended_statuses],
        engine_calls=outcome.engine_calls,
        elapsed_seconds=time.monotonic() - start,
    )
    out.write(report.to_json() + "\n" if args.json else report.to_text())
    return outcome.exit_code


def console_main() -> None:  # pragma: no cover - setuptools entry point
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
