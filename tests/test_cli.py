"""Command-line front end tests: exit codes, report formats, determinism."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import proofscope
from proofscope import cli
from proofscope.cli import main
from proofscope.tptp import MAX_NESTING

from conftest import PROBLEM_DIR, PUZ001, STUB_ENGINE


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def problems(tmp_path):
    files = {
        "clean": "fof(a1, axiom, p(a)). fof(goal, conjecture, p(a)).",
        "typo": (
            "fof(ax1, axiom, ! [X] : conected_to(X, X)).\n"
            "fof(ax2, axiom, ! [X] : (connected_to(X, X) => connected_to(X, X))).\n"
            "fof(goal, conjecture, connected_to(a, a)).\n"
        ),
        "chain": (
            "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, r). "
            "fof(goal, conjecture, q)."
        ),
        "indep": "fof(a1, axiom, p). fof(a2, axiom, q).",
        "dep": "fof(a1, axiom, p). fof(a2, axiom, p => q). fof(a3, axiom, q).",
        "unsat": "fof(a1, axiom, p). fof(a2, axiom, ~p). fof(a3, axiom, q).",
        "hard": "fof(a1, axiom, p). fof(goal, conjecture, q).",
        "broken": "fof(a1, axiom, p &).",
    }
    paths = {}
    for name, text in files.items():
        path = tmp_path / f"{name}.p"
        path.write_text(text)
        paths[name] = str(path)
    return paths


class TestSymbols:
    def test_clean_exit_zero(self, problems):
        code, out, _ = run_cli(["symbols", problems["clean"]])
        assert code == 0
        assert "hapax legomena: none" in out

    def test_typo_exit_one(self, problems):
        code, out, _ = run_cli(["symbols", problems["typo"]])
        assert code == 1
        assert "conected_to" in out

    def test_missing_file_exit_two(self, problems):
        code, _, err = run_cli(["symbols", problems["clean"] + ".nope"])
        assert code == 2
        assert err

    def test_parse_error_exit_two(self, problems):
        code, _, err = run_cli(["symbols", problems["broken"]])
        assert code == 2
        assert re.search(r":\d+:\d+:", err)

    def test_python_m_runs_the_cli(self, problems):
        """`python -m proofscope.cli` runs the CLI from a checkout."""
        src = str(Path(proofscope.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "proofscope.cli", "symbols", problems["typo"]],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert "hapax legomena (possible typos):" in proc.stdout
        assert "conected_to" in proc.stdout


FLAG_ERRORS = [
    ["minimize", "{chain}", "--timeout", "0"],
    ["minimize", "{chain}", "--timeout", "inf"],
    ["minimize", "{chain}", "--timeout", "1e10"],
    ["minimize", "{chain}", "--timeout", "1e300"],
    ["minimize", "{chain}", "--parallel", "0"],
    ["minimize", "{chain}", "--parallel", "2"],
    ["minimize", "{chain}", "--max-domain-size", "0"],
    ["consistency", "{chain}", "--max-domain-size", "0"],
    ["minimize", "{chain}", "--subset-budget", "0"],
    ["reprove", "{chain}", "--method", "syntactic", "--chain-minima"],
    ["reprove", "{chain}", "--method", "semantic", "--subset-budget", "5"],
    ["independence", "{indep}", "--method", "naive", "--trials", "3"],
    ["independence", "{indep}", "--method", "naive", "--seed", "1"],
    ["independence", "{indep}", "--method", "random", "--trials", "0"],
    ["independence", "{indep}", "--method", "random", "--max-subset-size", "1"],
    ["independence", "{indep}", "--method", "failfast", "--max-subset-size", "0"],
    ["minimize", "{chain}", "--engine", "builtin-model-finder"],
    ["consistency", "{chain}", "--engine", "builtin-prover"],
]


class TestFlagErrors:
    """Out-of-range limits and flags the chosen method would ignore are
    input errors, reported before the problem is read."""

    @pytest.mark.parametrize(
        "argv", FLAG_ERRORS, ids=lambda argv: " ".join(argv[2:]) + f" ({argv[0]})"
    )
    def test_exit_two_without_traceback(self, argv, problems):
        code, out, err = run_cli([tok.format(**problems) for tok in argv])
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("proofscope: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", FLAG_ERRORS, ids=lambda argv: " ".join(argv[2:]) + f" ({argv[0]})"
    )
    def test_reported_before_the_problem_is_read(self, argv, tmp_path):
        missing = str(tmp_path / "missing.p")
        code, out, err = run_cli([tok.format(chain=missing, indep=missing) for tok in argv])
        assert code == 2
        assert out == ""
        assert err.startswith("proofscope: ") and err.count("\n") == 1
        assert "missing.p" not in err

    @pytest.mark.parametrize(
        "command, engine, needs",
        [
            ("minimize", "builtin-model-finder", "at least one proving engine"),
            ("reprove", "builtin-model-finder", "at least one proving engine"),
            ("independence", "builtin-model-finder", "at least one proving engine"),
            ("consistency", "builtin-prover", "a model-finding engine"),
        ],
    )
    def test_missing_capability_names_the_subcommand(self, command, engine, needs, problems):
        code, _, err = run_cli([command, problems["chain"], "--engine", engine])
        assert code == 2
        assert err == f"proofscope: {command} needs {needs}\n"


# A subcommand, and a flag it does not take.
FLAGS_NOT_TAKEN = [
    ["symbols", "--timeout", "1"],
    ["symbols", "--engine", "builtin-prover"],
    ["consistency", "--seed", "1"],
    ["consistency", "--subset-budget", "5"],
    ["independence", "--subset-budget", "5"],
    ["minimize", "--seed", "1"],
]


class TestUsageErrors:
    """Each subcommand takes only the flags it reads: any other flag is an
    argument-parser usage error, exit 2, reported with the subcommand's own
    usage line."""

    @pytest.mark.parametrize("argv", FLAGS_NOT_TAKEN, ids=" ".join)
    def test_flag_not_taken_is_a_usage_error(self, argv, problems, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([argv[0], problems["chain"]] + argv[1:])
        assert exc.value.code == 2
        usage, *_, error = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: proofscope {argv[0]} [-h]")
        assert error == f"proofscope {argv[0]}: error: unrecognized arguments: " + " ".join(
            argv[1:]
        )

    def test_repeated_usage_error_keeps_the_subcommand_usage(self, problems, capsys):
        """The parser is built once per process; every use of it reports a
        foreign flag in the subcommand's own words."""
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run_cli(["minimize", problems["chain"], "--seed", "1"])
            assert exc.value.code == 2
            usage, *_, error = capsys.readouterr().err.splitlines()
            assert usage.startswith("usage: proofscope minimize [-h]")
            assert error == "proofscope minimize: error: unrecognized arguments: --seed 1"

    def test_defaults_survive_other_calls(self, problems):
        """minimize is reprove with its own defaults; calls of either through
        the one parser leave the other's defaults, and the empty lists that
        repeatable flags start from, as they were."""
        p = problems["chain"]
        for _ in range(2):
            args = cli._parse_args(["reprove", p, "--method", "syntactic", "-I", "inc"])
            assert (args.method, args.chain_minima) == ("syntactic", False)
            args = cli._parse_args(["minimize", p, "--engine", "builtin-prover"])
            assert (args.method, args.chain_minima) == ("semantic", True)
            args = cli._parse_args(["reprove", p])
            assert (args.method, args.chain_minima) == ("semantic", False)
            assert (args.engine_ids, args.include_dirs) == ([], [])


SUBCOMMANDS = ["symbols", "reprove", "minimize", "independence", "consistency"]
# Engine flags, and a fragment of the error line each one gives.
ENGINE_FLAG_ERRORS = {
    "unknown id": (["--engine", "bogus"], "unknown engine id 'bogus'"),
    "unknown id, missing config": (
        ["--engine", "bogus", "--engine-config", "{missing}"], "no-engines.json"
    ),
    "missing config": (["--engine-config", "{missing}"], "no-engines.json"),
    "malformed config": (
        ["--engine-config", "{malformed}"], "expected an object mapping engine ids"
    ),
    "unparsable config": (["--engine-config", "{unparsable}"], "unparsable.json"),
    "string capabilities": (
        ["--engine-config", "{string_capabilities}"],
        "engine 'e': 'capabilities' must be a list of strings",
    ),
    "string args": (
        ["--engine-config", "{string_args}"], "engine 'e': 'args' must be a list of strings"
    ),
    "repeated id": (
        ["--engine", "builtin-prover", "--engine", "builtin-prover"],
        "'builtin-prover' given more than once",
    ),
}


# Engine config files that ENGINE_FLAG_ERRORS name, by placeholder.
CONFIG_FILES = {
    "malformed": json.dumps({"engines": []}),
    "unparsable": "{",
    "string_capabilities": json.dumps(
        {"engines": {"e": {"executable": "x", "args": ["{problem}"], "capabilities": "proves"}}}
    ),
    "string_args": json.dumps({"engines": {"e": {"executable": "x", "args": "{problem}"}}}),
}


class TestEngineFlagErrors:
    """Engine ids and the engine configuration file are flags like the
    others: a bad one exits 2 before the problem is read, for every
    subcommand.  symbols takes no engine flags, so there each one is an
    argument-parser usage error."""

    @pytest.mark.parametrize(
        "flags, message", ENGINE_FLAG_ERRORS.values(), ids=list(ENGINE_FLAG_ERRORS)
    )
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_exit_two_before_the_problem_is_read(
        self, command, flags, message, problems, tmp_path, capsys
    ):
        paths = {"missing": str(tmp_path / "no-engines.json")}
        for name, text in CONFIG_FILES.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(text)
        flags = [tok.format(**paths) for tok in flags]
        for problem in (problems["chain"], str(tmp_path / "missing.p")):
            if command == "symbols":
                with pytest.raises(SystemExit) as exc:
                    run_cli([command, problem] + flags)
                code, err = exc.value.code, capsys.readouterr().err
                message = "unrecognized arguments: " + " ".join(flags)
            else:
                code, out, err = run_cli([command, problem] + flags)
                assert out == ""
                assert err.startswith("proofscope: ") and err.count("\n") == 1
            assert code == 2
            assert message in err
            assert "missing.p" not in err


class TestReprove:
    def test_trivial_single_stage(self, problems):
        code, out, _ = run_cli(
            ["reprove", problems["clean"], "--method", "syntactic"]
        )
        assert code == 0
        assert "fixpoint reached: True" in out

    def test_semantic_chain(self, problems):
        code, out, _ = run_cli(
            ["reprove", problems["chain"], "--method", "semantic", "--chain-minima"]
        )
        assert code == 0
        assert "needed (2): a1, a2" in out
        assert "UniqueMinimum" in out

    def test_every_premise_needed_is_minimal(self, tmp_path):
        path = tmp_path / "both.p"
        path.write_text("fof(a1, axiom, p). fof(a2, axiom, p => q). fof(goal, conjecture, q).")
        code, out, _ = run_cli(["minimize", str(path)])
        assert code == 0
        assert "extended statuses: MinimalPremises, UniqueMinimum" in out

    def test_minimize_alias_matches_reprove(self, problems):
        _, a, _ = run_cli(["minimize", problems["chain"], "--json"])
        _, b, _ = run_cli(
            [
                "reprove",
                problems["chain"],
                "--method",
                "semantic",
                "--chain-minima",
                "--json",
            ]
        )
        assert _scrub(a) == _scrub(b)

    def test_unconfirmed_conjecture_exit_three(self, problems):
        code, out, _ = run_cli(["reprove", problems["hard"]])
        assert code == 3

    def test_no_conjecture_rejected_without_flag(self, problems):
        code, _, err = run_cli(["reprove", problems["indep"]])
        assert code == 2
        assert "unsat-mode" in err

    def test_unsat_mode(self, problems):
        code, out, _ = run_cli(
            ["reprove", problems["unsat"], "--unsat-mode", "--chain-minima"]
        )
        assert code == 0
        assert "needed (2): a1, a2" in out

    def test_unsat_mode_rejected_with_conjecture(self, problems):
        code, _, err = run_cli(["reprove", problems["clean"], "--unsat-mode"])
        assert code == 2

    def test_syntactic_chain_minima_rejected(self, problems):
        code, out, err = run_cli(
            ["reprove", problems["chain"], "--method", "syntactic", "--chain-minima"]
        )
        assert code == 2
        assert "--chain-minima" in err
        assert out == ""

    def test_minimize_rejects_method(self, problems, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["minimize", problems["chain"], "--method", "syntactic"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err


class TestIndependence:
    def test_independent_exit_zero(self, problems):
        code, out, _ = run_cli(["independence", problems["indep"]])
        assert code == 0
        assert "IndependentAxioms" in out

    def test_dependent_exit_one_with_witness(self, problems):
        code, out, _ = run_cli(
            ["independence", problems["dep"], "--method", "failfast"]
        )
        assert code == 1
        assert "witness" in out

    def test_random_inconclusive_exit_four(self, problems):
        code, _, _ = run_cli(
            [
                "independence",
                problems["indep"],
                "--method",
                "random",
                "--trials",
                "10",
                "--seed",
                "7",
            ]
        )
        assert code == 4

    def test_conjecture_warned_and_ignored(self, problems):
        code, _, err = run_cli(["independence", problems["chain"]])
        assert "warning" in err

    @pytest.mark.parametrize(
        "method, message",
        [
            ("naive", "independence needs at least one axiom"),
            ("failfast", "fail-fast independence needs at least two axioms"),
            ("random", "independence needs at least one axiom"),
        ],
    )
    def test_no_axiom_is_an_input_error(self, method, message, tmp_path):
        """Each analysis rejects a problem that holds only a conjecture."""
        path = tmp_path / "conjecture.p"
        path.write_text("fof(goal, conjecture, p).\n")
        code, out, err = run_cli(["independence", str(path), "--method", method])
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "proofscope: warning: conjecture ignored for independence analysis",
            f"proofscope: {message}",
        ]


class TestConsistency:
    def test_three_rows(self, problems):
        code, out, _ = run_cli(["consistency", problems["clean"]])
        assert code == 0
        assert "axioms:" in out
        assert "axioms plus conjecture" in out
        assert "axioms plus negated conjecture" in out

    def test_inconsistent_axioms_flagged(self, problems):
        code, out, _ = run_cli(["consistency", problems["unsat"]])
        assert code == 0
        assert "may be inconsistent" in out

    def test_quoted_dollar_constant_gets_a_model(self, tmp_path):
        """A quoted functor may start with '$'; the model finder takes it as
        any other constant."""
        path = tmp_path / "dollar.p"
        path.write_text("fof(a1, axiom, p('$a')).\n")
        code, out, _ = run_cli(["consistency", str(path)])
        assert code == 0
        assert "axioms: ModelFound" in out
        assert "$a = 0" in out

    @pytest.mark.parametrize(
        "mode, outcome, negated",
        [
            pytest.param("satisfiable", "ModelFound", "Unknown", id="satisfiable-ModelFound"),
            pytest.param("unsat", "Unsatisfiable", "Unknown", id="unsat-Unsatisfiable"),
            pytest.param(
                "contradictory", "Unsatisfiable", "Unsatisfiable",
                id="contradictory-Unsatisfiable",
            ),
            pytest.param("garbage", "Unknown", "Unknown", id="garbage-Unknown"),
        ],
    )
    def test_external_model_finder(self, mode, outcome, negated, problems, tmp_path):
        """An external finder answers through SZS statuses alone, read by
        classify: no model tables, one call per check.  outcome is the
        reading on the checks without a conjecture, negated the reading on
        the axioms plus the negated conjecture."""
        config = {
            "engines": {
                "stub-finder": {
                    "executable": sys.executable,
                    "args": [str(STUB_ENGINE), "--mode", mode, "{problem}"],
                    "capabilities": ["finds_models"],
                }
            }
        }
        cfg_path = tmp_path / "engines.json"
        cfg_path.write_text(json.dumps(config))
        expected = {
            "axioms_only": outcome,
            "axioms_plus_conjecture": outcome,
            "axioms_plus_negated_conjecture": negated,
        }
        for problem, calls in (("clean", 3), ("indep", 1)):
            code, out, _ = run_cli(
                [
                    "consistency", problems[problem], "--json",
                    "--engine", "stub-finder", "--engine-config", str(cfg_path),
                ]
            )
            assert code == 0
            report = json.loads(out)
            assert report["engine_calls"] == calls
            checks = {k: c for k, c in report["payload"].items() if c is not None}
            assert len(checks) == calls
            for key, check in checks.items():
                assert check["engine"] == "stub-finder"
                assert check["outcome"] == expected[key]
                assert check["model"] is None
                assert check["model_text"] is None

    def test_external_theorem_proves_the_conjecture(self, tmp_path):
        """Theorem on the axioms plus the negated conjecture means the negation
        contradicts the axioms; the checks without a conjecture cannot read it."""
        config = {
            "engines": {
                "stub-finder": {
                    "executable": sys.executable,
                    "args": [str(STUB_ENGINE), "--mode", "theorem", "{problem}"],
                    "capabilities": ["finds_models"],
                }
            }
        }
        cfg_path = tmp_path / "engines.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _ = run_cli(
            [
                "consistency", str(PROBLEM_DIR / "two_minima.p"), "--json",
                "--engine", "stub-finder", "--engine-config", str(cfg_path),
            ]
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["axioms_only"]["outcome"] == "Unknown"
        assert payload["axioms_plus_conjecture"]["outcome"] == "Unknown"
        negated = payload["axioms_plus_negated_conjecture"]
        assert negated["outcome"] == "Unsatisfiable"
        assert negated["reading"] == (
            "negated conjecture contradicts the axioms: conjecture is a theorem"
        )


class TestJsonContract:
    COMMANDS = [
        ["symbols", "{typo}", "--json"],
        ["minimize", "{chain}", "--json"],
        ["reprove", "{chain}", "--method", "syntactic", "--json"],
        ["independence", "{dep}", "--json"],
        ["independence", "{indep}", "--method", "random", "--trials", "5", "--json"],
        ["consistency", "{chain}", "--json"],
        ["consistency", "{chain}", "--timeout", "0.5", "--json"],
    ]
    ENGINE_CONFIG = ["include_dirs", "max_domain_size", "timeout"]
    # Each subcommand's run, the config keys its report lists (the settings the
    # run reads) and the subset budget its minima report, if any.
    CONFIG_KEYS = [
        (["symbols", "{typo}"], ["include_dirs"], None),
        (["reprove", "{chain}", "--method", "syntactic"], ENGINE_CONFIG + ["unsat_mode"], None),
        (["reprove", "{chain}"], ENGINE_CONFIG + ["unsat_mode"], None),
        (
            ["reprove", "{chain}", "--chain-minima", "--subset-budget", "7"],
            ENGINE_CONFIG + ["unsat_mode"], 7,
        ),
        (["minimize", "{chain}"], ENGINE_CONFIG + ["unsat_mode"], 4096),
        (["minimize", "{chain}", "--subset-budget", "9"], ENGINE_CONFIG + ["unsat_mode"], 9),
        (["independence", "{dep}", "--method", "failfast"], ENGINE_CONFIG, None),
        (["independence", "{indep}", "--method", "random", "--seed", "3"], ENGINE_CONFIG, None),
        (["consistency", "{chain}"], ENGINE_CONFIG, None),
    ]

    @pytest.mark.parametrize("template", COMMANDS, ids=lambda t: " ".join(t[:3]))
    def test_schema_valid(self, template, problems, schema):
        argv = [tok.format(**problems) for tok in template]
        _, out, _ = run_cli(argv)
        jsonschema.validate(json.loads(out), schema)

    @pytest.mark.parametrize(
        "template, keys, subset_budget", CONFIG_KEYS,
        ids=[" ".join(t[:1] + t[2:]) for t, _, _ in CONFIG_KEYS],
    )
    def test_config_lists_only_the_settings_read(
        self, template, keys, subset_budget, problems, schema
    ):
        """A report's config has exactly the subcommand-level settings the run
        reads; a method's own settings sit in the payload of that method."""
        _, out, _ = run_cli([tok.format(**problems) for tok in template] + ["--json"])
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert sorted(report["config"]) == keys
        if subset_budget is None:
            assert "minima" not in report["payload"]
        else:
            assert report["payload"]["minima"]["subset_budget"] == subset_budget

    def test_schema_rejects_unread_config(self, problems, schema):
        """The schema ties the config keys to the subcommand."""
        _, out, _ = run_cli(["symbols", problems["typo"], "--json"])
        report = json.loads(out)
        report["config"]["timeout"] = 10.0
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)
        _, out, _ = run_cli(["consistency", problems["chain"], "--json"])
        report = json.loads(out)
        report["config"]["unsat_mode"] = False
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, schema)

    def test_text_and_json_from_same_payload(self, problems):
        _, json_out, _ = run_cli(["minimize", problems["chain"], "--json"])
        _, text_out, _ = run_cli(["minimize", problems["chain"]])
        payload = json.loads(json_out)["payload"]
        for name in payload["classification"]["needed"]:
            assert name in text_out
        for status in json.loads(json_out)["extended_statuses"]:
            assert status in text_out


def _scrub(json_text: str) -> str:
    """Remove elapsed-time fields before byte comparison."""
    data = json.loads(json_text)

    def walk(node):
        if isinstance(node, dict):
            return {
                k: walk(v) for k, v in sorted(node.items()) if "elapsed" not in k
            }
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return json.dumps(walk(data), sort_keys=True)


class TestDeterminism:
    def test_byte_identical_except_elapsed(self, problems):
        _, a, _ = run_cli(["minimize", problems["chain"], "--json"])
        _, b, _ = run_cli(["minimize", problems["chain"], "--json"])
        assert _scrub(a) == _scrub(b)

    def test_puz001_json_deterministic(self):
        argv = ["minimize", str(PUZ001), "--json", "--timeout", "30"]
        _, a, _ = run_cli(argv)
        _, b, _ = run_cli(argv)
        assert _scrub(a) == _scrub(b)


class TestEngineConflict:
    def test_contradicting_stubs_exit_five(self, problems, tmp_path):
        config = {
            "engines": {
                "stub-yes": {
                    "executable": sys.executable,
                    "args": [str(STUB_ENGINE), "--mode", "theorem", "{problem}"],
                    "capabilities": ["proves"],
                },
                "stub-no": {
                    "executable": sys.executable,
                    "args": [str(STUB_ENGINE), "--mode", "countersat", "{problem}"],
                    "capabilities": ["proves"],
                },
            }
        }
        cfg_path = tmp_path / "engines.json"
        cfg_path.write_text(json.dumps(config))
        code, _, err = run_cli(
            [
                "reprove",
                problems["chain"],
                "--engine",
                "stub-yes",
                "--engine",
                "stub-no",
                "--engine-config",
                str(cfg_path),
            ]
        )
        assert code == 5
        assert "conflict" in err


class TestTwoProversInOnePhase:
    def test_report_and_engine_calls_pinned(self, problems, tmp_path):
        """Two external provers sit in one phase, so each premise set that
        reaches the provers runs both, one after the other.  The report apart
        from its problem path and config is pinned by sha256 digest."""
        config = {
            "engines": {
                "stub-yes": {
                    "executable": sys.executable,
                    "args": [str(STUB_ENGINE), "--mode", "theorem", "{problem}"],
                    "capabilities": ["proves"],
                },
                "stub-unknown": {
                    "executable": sys.executable,
                    "args": [str(STUB_ENGINE), "--mode", "garbage", "{problem}"],
                    "capabilities": ["proves"],
                },
            }
        }
        cfg_path = tmp_path / "engines.json"
        cfg_path.write_text(json.dumps(config))
        engines = [
            "--engine", "stub-yes", "--engine", "stub-unknown",
            "--engine", "builtin-model-finder", "--engine-config", str(cfg_path),
        ]
        for argv, engine_calls, digest in (
            (
                ["minimize", problems["chain"]],
                7,
                "a0b3f3c01b37831847d99fe84926392a372983f9ffc8f371caff245660d23b44",
            ),
            (
                ["independence", problems["dep"], "--method", "naive"],
                7,
                "62a454d1ae056036a54052ff0709e110bdbc71a3c0122435677adc91b98cacf3",
            ),
        ):
            _, out, _ = run_cli(argv + engines + ["--json"])
            report = json.loads(_scrub(out))
            del report["problem"], report["config"]
            assert report["engine_calls"] == engine_calls, argv[0]
            text = json.dumps(report, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, argv[0]


class TestIncludeDirs:
    def test_include_dir_flag(self, tmp_path):
        axdir = tmp_path / "ax"
        axdir.mkdir()
        (axdir / "facts.ax").write_text("fof(fact, axiom, p).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('facts.ax').\nfof(goal, conjecture, p).\n")
        code, out, _ = run_cli(
            ["reprove", str(prob), "-I", str(axdir), "--method", "syntactic"]
        )
        assert code == 0


class TestUnreadableInput:
    """A problem or included file that cannot be read as UTF-8 text is an
    input error that names the file."""

    def test_non_utf8_problem_file(self, tmp_path):
        bad = tmp_path / "bad.p"
        bad.write_bytes(b"fof(a1, axiom, p).\n% caf\xff\n")
        code, out, err = run_cli(["symbols", str(bad)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"proofscope: {bad}: not UTF-8 text") and err.count("\n") == 1

    def test_non_utf8_included_file(self, tmp_path):
        bad = tmp_path / "bad.ax"
        bad.write_bytes(b"fof(a1, axiom, \xffp).\n")
        prob = tmp_path / "prob.p"
        prob.write_text("include('bad.ax').\nfof(goal, conjecture, p).\n")
        code, out, err = run_cli(["symbols", str(prob)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"proofscope: {bad}: not UTF-8 text") and err.count("\n") == 1


class TestNesting:
    """Formulas and terms nested to MAX_NESTING levels run through every
    subcommand; one level more is a parse error at the token that opens it.
    Parentheses alone build no tree depth, so the problem also nests
    negations, and quantifiers around an argument list, to the limit."""

    @staticmethod
    def problem(tmp_path, formula_depth, term_depth):
        path = tmp_path / "deep.p"
        quantifiers = "".join(f"! [X{i}] : " for i in range(1, MAX_NESTING))
        path.write_text(
            f"fof(a1, axiom, {'(' * formula_depth}p{')' * formula_depth}).\n"
            f"fof(a2, axiom, q = {'f(' * term_depth}c{')' * term_depth}).\n"
            f"fof(a3, axiom, {'~ ' * MAX_NESTING}p).\n"
            f"fof(a4, axiom, {quantifiers}r(X1, X{MAX_NESTING - 1})).\n"
            "fof(goal, conjecture, p).\n"
        )
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["symbols"],
            ["reprove"],
            ["reprove", "--method", "syntactic"],
            ["minimize"],
            ["independence"],
            ["consistency"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_every_subcommand_at_the_limit(self, argv, tmp_path):
        path = self.problem(tmp_path, MAX_NESTING, MAX_NESTING)
        timeout = [] if argv == ["symbols"] else ["--timeout", "0.5"]
        code, out, err = run_cli([argv[0], path, *argv[1:], *timeout])
        assert code != 2, err
        assert out

    @pytest.mark.parametrize("command", ["reprove", "consistency"])
    def test_nested_biconditionals_stop_at_the_clause_limit(self, command, tmp_path):
        """p <=> (p <=> ...) nested 8 deep multiplies out to far more clauses
        than the default max_clause_count; each engine stops while
        clausifying and answers ResourceOut."""
        formula = "p"
        for _ in range(8):
            formula = f"p <=> ({formula})"
        path = tmp_path / "iff.p"
        path.write_text(f"fof(a1, axiom, {formula}).\nfof(goal, conjecture, p).\n")
        code, out, err = run_cli([command, str(path)])
        assert code != 2, err
        assert "ResourceOut" in out

    @pytest.mark.parametrize("depth", [18, 40])
    def test_biconditionals_with_true_prove_their_innermost_operand(self, depth, tmp_path):
        """$true <=> (... p) is p.  A conjunction with the empty clause is
        the empty clause alone, so the negative walk does not multiply out
        2**depth clauses and stop at the clause limit."""
        formula = "$true <=> (" * depth + "p" + ")" * depth
        path = tmp_path / "iff.p"
        path.write_text(f"fof(a1, axiom, {formula}).\nfof(goal, conjecture, p).\n")
        code, out, err = run_cli(["reprove", str(path), "--method", "syntactic"])
        assert code == 0, err
        assert "initial verdict: Theorem [builtin-prover] used=a1" in out

    @pytest.mark.parametrize(
        "formula_depth, term_depth, line, column",
        [
            (MAX_NESTING + 1, 1, 1, 16 + MAX_NESTING),
            (1, MAX_NESTING + 1, 2, 21 + 2 * MAX_NESTING),
        ],
        ids=["formula", "term"],
    )
    def test_one_level_past_the_limit(self, formula_depth, term_depth, line, column, tmp_path):
        path = self.problem(tmp_path, formula_depth, term_depth)
        code, out, err = run_cli(["symbols", path])
        assert code == 2
        assert out == ""
        assert err == (
            f"proofscope: {path}:{line}:{column}: "
            f"formula or term nested deeper than {MAX_NESTING} levels\n"
        )
