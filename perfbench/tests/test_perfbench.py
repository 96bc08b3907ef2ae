"""Tests of the benchmark itself: inputs, known answers, tracing, spec.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import problems  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
from proofscope import engines  # noqa: E402
from proofscope.analysis import brute_force_minima  # noqa: E402
from proofscope.engines import BuiltinProver, EngineLimits  # noqa: E402
from proofscope.tptp import Theory, parse_problem  # noqa: E402


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_same_seed_gives_identical_problem_files(workload):
    first = problems.build(workload, 11, ROOT)
    second = problems.build(workload, 11, ROOT)
    assert first.files == second.files
    assert [a.argv for a in first.analyses] == [a.argv for a in second.analyses]


def test_seeds_change_the_chains():
    assert problems.build("chains", 1, ROOT).files != problems.build("chains", 2, ROOT).files


@pytest.mark.parametrize("seed", [3, 8])
def test_chain_minima_by_construction_match_brute_force(seed):
    # brute_force_minima decides every subset with no cache or pruning, so
    # it shares no code with enumerate_minima.  The three smallest shapes
    # keep the oracle to at most 2^10 prover calls each.
    theories = problems.chain_theories(seed)
    sample = sorted(theories, key=lambda t: len(t.premises))[:3]
    for theory in sample:
        parsed = parse_problem(theory.text)
        report = brute_force_minima(parsed, BuiltinProver(), EngineLimits(timeout=60))
        assert set(report.minima) == set(theory.minima)


def test_chain_shortcut_is_the_only_derivable_axiom():
    for theory in problems.chain_theories(5):
        if theory.shortcut is None:
            continue
        axiom, links = theory.shortcut
        parsed = parse_problem(theory.text).without_conjecture()
        subset = parsed.restrict(links).with_conjecture(parsed[axiom])
        verdict = BuiltinProver().run(subset, EngineLimits(timeout=60))
        assert verdict.status.value == "Theorem"


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed_seconds"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def _small_workload() -> problems.Workload:
    chains = problems.build("chains", 1, ROOT)
    models = problems.build("models", 1, ROOT)
    puz = problems.build("puz001", 1, ROOT)
    cyclic = [a for a in models.analyses if "cyclic_order_3" in a.label]
    return problems.Workload(
        files={**chains.files, **models.files, **puz.files},
        analyses=chains.analyses[:5] + tuple(cyclic) + puz.analyses[-1:],
    )


def test_traced_and_untraced_reports_are_identical(tmp_path, monkeypatch):
    workload = _small_workload()
    worker.write_files(workload, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    guard = spans.Guard()
    tracer = spans.Tracer()
    with guard.install():
        for analysis in workload.analyses:
            plain = worker.run_analysis(analysis, guard)
            with spans.instrument(tracer):
                traced = worker.run_analysis(analysis, guard)
            assert plain[2] == [] and traced[2] == [], analysis.label
            assert plain[0] == traced[0]
            assert _without_elapsed(plain[1]) == _without_elapsed(traced[1])
    calls, _, _ = tracer.totals()
    assert calls["cli.main"] == len(workload.analyses)
    assert tracer.open == []
    roots = [span for span in tracer.spans if span[1] == -1]
    assert [span[0] for span in roots] == ["cli.main"] * len(workload.analyses)


def test_instrument_restores_the_originals():
    before = {(p.owner, p.attribute): p.owner.__dict__[p.attribute] for p in spans.PATCHES}
    with spans.instrument(spans.Tracer()):
        assert engines.prove is not before[(engines, "prove")]
    assert {(p.owner, p.attribute): p.owner.__dict__[p.attribute] for p in spans.PATCHES} == before
    assert "restrict" in Theory.__dict__


def test_self_times_subtract_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [["parent", -1, 0.0, 5.0], ["child", 0, 1.0, 3.0], ["child", 0, 3.0, 3.5]]
    calls, total_s, self_s = tracer.totals()
    assert calls == {"parent": 1, "child": 2}
    assert total_s == {"parent": 5.0, "child": 2.5}
    assert self_s == {"parent": 2.5, "child": 2.5}


def test_checks_reject_wrong_answers(tmp_path, monkeypatch):
    workload = problems.build("chains", 2, ROOT)
    worker.write_files(workload, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    minimize = workload.analyses[0]
    guard = spans.Guard()
    with guard.install():
        code, report, errors = worker.run_analysis(minimize, guard)
    assert errors == []
    assert minimize.check(5, report)
    report["payload"]["minima"]["minima"] = report["payload"]["minima"]["minima"][:-1]
    assert minimize.check(code, report)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_is_written_from_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert handle.read() == spec.render()
    data = spec.benchmark_json()
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    names += [w["name"] for w in data["workloads"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in data["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])
    assert [w["name"] for w in data["workloads"]] == list(problems.WORKLOADS)
