"""External engine layer tests, exercised through the bundled stub engine."""

import re
import sys
import time

import pytest

from proofscope.engines import (
    EngineConfigError,
    EngineLimits,
    EngineSpec,
    extract_used_premises,
    load_engine_config,
    parse_szs,
    preset_engine_specs,
    resolve_engines,
    run_engine,
)
from proofscope.verdicts import SzsStatus

from conftest import mk, stub_spec

FOUR_PREMISES = (
    "fof(a1, axiom, p). fof(a2, axiom, q). fof(a3, axiom, r). fof(a4, axiom, s). "
    "fof(goal, conjecture, p)."
)

NESTED_IFF_5 = "p <=> (p <=> (p <=> (p <=> (p <=> p))))"


class TestParseSzs:
    def test_canonical_line(self):
        assert parse_szs("% SZS status Theorem for puz001") == SzsStatus.Theorem

    def test_countersatisfiable(self):
        assert (
            parse_szs("% SZS status CounterSatisfiable for x")
            == SzsStatus.CounterSatisfiable
        )

    def test_garbage(self):
        assert parse_szs("segmentation fault") == SzsStatus.Unknown

    def test_first_line_wins(self):
        out = "% SZS status Theorem for x\n% SZS status Satisfiable for x\n"
        assert parse_szs(out) == SzsStatus.Theorem

    def test_unrecognized_token(self):
        assert parse_szs("% SZS status Wobbly for x") == SzsStatus.Unknown


class TestExtractUsedPremises:
    def test_single_file_source(self):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        out = "fof(a1, axiom, p, file('prob.p', a1))."
        assert extract_used_premises(out, t) == {"a1"}

    def test_inference_only_sources(self):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        out = "fof(s1, plain, p, inference(resolution, [], [a1]))."
        assert extract_used_premises(out, t) == frozenset()

    def test_region_bounded(self):
        t = mk(FOUR_PREMISES)
        out = (
            "fof(a4, axiom, s, file('p.p', a4)).\n"
            "% SZS output start Proof\n"
            "fof(a1, axiom, p, file('p.p', a1)).\n"
            "fof(a3, axiom, r, file('p.p', a3)).\n"
            "% SZS output end Proof\n"
        )
        assert extract_used_premises(out, t) == {"a1", "a3"}

    def test_name_hygiene(self):
        t = mk(FOUR_PREMISES)
        out = "fof(zz, axiom, p, file('p.p', zz)). fof(a1, axiom, p, file('p.p', a1))."
        assert extract_used_premises(out, t) == {"a1"}

    def test_conjecture_not_a_premise(self):
        t = mk(FOUR_PREMISES)
        out = "fof(goal, conjecture, p, file('p.p', goal))."
        assert extract_used_premises(out, t) == frozenset()


class TestRunEngine:
    def test_theorem_with_citations(self):
        t = mk(FOUR_PREMISES)
        verdict = run_engine(stub_spec("theorem", "--cite", "a1,a3"), t, 10)
        assert verdict.status == SzsStatus.Theorem
        assert verdict.used_premises == {"a1", "a3"}
        assert verdict.has_premise_info
        assert verdict.raw_output_digest

    def test_digest_ignores_the_temp_file_path(self):
        """The stub cites its input file, whose name differs on every call."""
        t = mk(FOUR_PREMISES)
        spec = stub_spec("theorem", "--cite", "a1")
        first = run_engine(spec, t, 10)
        assert first.raw_output_digest == run_engine(spec, t, 10).raw_output_digest

    def test_contradictory_axioms_with_citations(self):
        t = mk(FOUR_PREMISES)
        verdict = run_engine(stub_spec("contradictory", "--cite", "a2,a4"), t, 10)
        assert verdict.status == SzsStatus.ContradictoryAxioms
        assert verdict.used_premises == {"a2", "a4"}
        assert verdict.has_premise_info
        # Citations may be incomplete, so they never count as exact.
        assert not verdict.premises_exact

    def test_cites_all_premises_by_default(self):
        t = mk(FOUR_PREMISES)
        verdict = run_engine(stub_spec("theorem"), t, 10)
        assert verdict.used_premises == {"a1", "a2", "a3", "a4"}

    def test_countersat(self):
        verdict = run_engine(stub_spec("countersat"), mk(FOUR_PREMISES), 10)
        assert verdict.status == SzsStatus.CounterSatisfiable
        assert verdict.used_premises == frozenset()

    def test_timeout_enforced_within_grace(self):
        t = mk(FOUR_PREMISES)
        start = time.monotonic()
        verdict = run_engine(stub_spec("timeout", "--sleep", "30"), t, 1.0)
        elapsed = time.monotonic() - start
        assert verdict.status == SzsStatus.Timeout
        assert elapsed < 1.0 + 2.0  # budget + grace

    def test_garbage_maps_to_unknown(self):
        verdict = run_engine(stub_spec("garbage"), mk(FOUR_PREMISES), 10)
        assert verdict.status == SzsStatus.Unknown

    def test_missing_executable_is_config_error(self):
        spec = EngineSpec(
            "ghost", "/nonexistent/prover", ("{problem}",), frozenset({"proves"})
        )
        with pytest.raises(EngineConfigError):
            run_engine(spec, mk(FOUR_PREMISES), 5)

    def test_satisfiable_model_finder_stub(self):
        spec = stub_spec("satisfiable", caps=("finds_models",))
        t = mk("fof(a1, axiom, p).")
        verdict = run_engine(spec, t, 10)
        assert verdict.status == SzsStatus.Satisfiable
        assert verdict.used_premises == frozenset()


class TestEngineSpec:
    def test_problem_placeholder_required(self):
        with pytest.raises(EngineConfigError):
            EngineSpec("bad", "prover", ("--auto",), frozenset({"proves"}))
        with pytest.raises(EngineConfigError):
            EngineSpec(
                "bad", "prover", ("{problem}", "{problem}"), frozenset({"proves"})
            )

    def test_unknown_capability(self):
        with pytest.raises(EngineConfigError):
            EngineSpec("bad", "prover", ("{problem}",), frozenset({"flies"}))


class TestEngineConfig:
    def test_presets_ship_three_shapes(self):
        presets = preset_engine_specs()
        assert {"eprover", "vampire", "paradox"} <= set(presets)
        assert "finds_models" in presets["paradox"].capabilities

    def test_load_config_and_resolve(self, tmp_path):
        cfg = tmp_path / "engines.json"
        cfg.write_text(
            '{"engines": {"mystub": {"executable": "%s", '
            '"args": ["x", "{problem}"], "capabilities": ["proves"]}}}'
            % sys.executable
        )
        specs = load_engine_config(str(cfg))
        engines = resolve_engines(["builtin-prover", "mystub"], specs)
        assert engines[0].id == "builtin-prover"
        assert isinstance(engines[1], EngineSpec)

    def test_unknown_engine_id(self):
        with pytest.raises(EngineConfigError, match="unknown engine id"):
            resolve_engines(["no-such-engine"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "expected an object mapping engine ids"),
            ('{"e": "x"}', "engine 'e': expected an object"),
            (
                '{"e": {"executable": 3, "args": ["{problem}"]}}',
                "engine 'e': 'executable' must be a string",
            ),
            (
                '{"e": {"executable": "x", "args": ["{problem}", 3]}}',
                "engine 'e': 'args' must be a list of strings",
            ),
            ('{"e": {"executable": "x"}}', "engine 'e': missing key 'args'"),
        ],
    )
    def test_malformed_config_is_config_error(self, text, message, tmp_path):
        cfg = tmp_path / "engines.json"
        cfg.write_text(text)
        with pytest.raises(EngineConfigError, match=re.escape(message)):
            load_engine_config(str(cfg))


class TestEngineLimits:
    @pytest.mark.parametrize("field", ["max_domain_size", "timeout", "max_clause_count"])
    def test_out_of_range_rejected_at_construction(self, field):
        with pytest.raises(ValueError, match=field):
            EngineLimits(**{field: 0})

    @pytest.mark.parametrize("timeout", [float("inf"), 1e10])
    def test_timeout_beyond_a_subprocess_wait_rejected(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            EngineLimits(timeout=timeout)


class TestBuiltinEngineWrappers:
    def test_prover_verdict_shape(self, prover, limits):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        v = prover.run(t, limits)
        assert v.status == SzsStatus.Theorem
        assert v.used_premises == {"a1"}
        assert v.has_premise_info
        assert v.premises_exact

    def test_prover_refute_mode(self, prover, limits):
        v = prover.run(mk("fof(a1, axiom, p). fof(a2, axiom, ~p)."), limits)
        assert v.status == SzsStatus.Unsatisfiable

    def test_model_finder_countersat(self, model_finder, limits):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, q).")
        v = model_finder.run(t, limits)
        assert v.status == SzsStatus.CounterSatisfiable

    def test_model_finder_exhaustion_is_gave_up(self, model_finder, limits):
        t = mk("fof(a1, axiom, p). fof(goal, conjecture, p).")
        v = model_finder.run(t, limits)
        assert v.status == SzsStatus.GaveUp  # exhaustion never claims Unsatisfiable

    def test_model_finder_satisfiable_axioms(self, model_finder, limits):
        v = model_finder.run(mk("fof(a1, axiom, p)."), limits)
        assert v.status == SzsStatus.Satisfiable

    def test_clause_limit_bounds_clausification(self, prover, model_finder):
        """p <=> (p <=> ...) nested 5 deep has 2,619 clauses.  Under a limit
        of 1000 both engines stop while clausifying; the model finder would
        otherwise find a model of size 1."""
        t = mk(f"fof(a1, axiom, {NESTED_IFF_5}).")
        limits = EngineLimits(max_clause_count=1000)
        assert prover.run(t, limits).status == SzsStatus.ResourceOut
        assert model_finder.run(t, limits).status == SzsStatus.ResourceOut
