"""Command-line front end tests: exit codes, report formats, determinism."""

import io
import json
import re
import sys
from importlib import resources

import jsonschema
import pytest

from proofscope.cli import main

from conftest import PUZ001, STUB_ENGINE


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def schema():
    text = resources.files("proofscope.data").joinpath("report.schema.json").read_text()
    return json.loads(text)


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

    def test_bad_timeout_exit_two(self, problems):
        code, _, err = run_cli(["symbols", problems["clean"], "--timeout", "0"])
        assert code == 2
        assert "timeout" in err


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

    @pytest.mark.parametrize(
        "mode, outcome",
        [("satisfiable", "ModelFound"), ("unsat", "Unsatisfiable"), ("garbage", "Unknown")],
    )
    def test_external_model_finder(self, mode, outcome, problems, tmp_path):
        """An external finder answers through SZS statuses alone: no model
        tables, one call per check."""
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
            checks = [c for c in report["payload"].values() if c is not None]
            assert len(checks) == calls
            for check in checks:
                assert check["engine"] == "stub-finder"
                assert check["outcome"] == outcome
                assert check["model"] is None
                assert check["model_text"] is None


class TestJsonContract:
    COMMANDS = [
        ["symbols", "{typo}", "--json"],
        ["minimize", "{chain}", "--json"],
        ["reprove", "{chain}", "--method", "syntactic", "--json"],
        ["independence", "{dep}", "--json"],
        ["independence", "{indep}", "--method", "random", "--trials", "5", "--json"],
        ["consistency", "{chain}", "--json"],
    ]

    @pytest.mark.parametrize("template", COMMANDS, ids=lambda t: " ".join(t[:3]))
    def test_schema_valid(self, template, problems, schema):
        argv = [tok.format(**problems) for tok in template]
        _, out, _ = run_cli(argv)
        jsonschema.validate(json.loads(out), schema)

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
        _, a, _ = run_cli(["minimize", problems["chain"], "--json", "--seed", "5"])
        _, b, _ = run_cli(["minimize", problems["chain"], "--json", "--seed", "5"])
        assert _scrub(a) == _scrub(b)

    def test_puz001_json_deterministic(self):
        argv = ["minimize", str(PUZ001), "--json", "--timeout", "30"]
        _, a, _ = run_cli(argv)
        _, b, _ = run_cli(argv)
        assert _scrub(a) == _scrub(b)

    def test_parallel_dispatch_same_report(self, problems):
        """Results are independent of the parallelism setting; only the
        echoed configuration may differ."""
        for argv in (
            ["minimize", problems["chain"]],
            ["reprove", problems["chain"], "--method", "syntactic"],
            ["independence", problems["dep"], "--method", "naive"],
            ["consistency", problems["chain"]],
        ):
            _, serial, _ = run_cli(argv + ["--json"])
            _, parallel, _ = run_cli(argv + ["--json", "--parallel", "4"])
            a, b = json.loads(serial), json.loads(parallel)
            a.pop("config")
            b.pop("config")
            assert _scrub(json.dumps(a)) == _scrub(json.dumps(b)), argv[0]


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
