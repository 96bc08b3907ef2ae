"""Engine layer: external SZS-compliant provers and the built-in engines.

External engines run as subprocesses on rendered problem files; their output
is parsed into SZS statuses and used-premise sets.  The built-in prover and
model finder are wrapped behind the same verdict interface so analysis code
is engine-agnostic.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

from .clauses import ORIGIN_CONJECTURE
from .logic import Formula, Interpretation, Not
from .modelfinder import ModelKind, ModelOutcome, find_model
from .prover import prove, refute
from .tptp import Theory, render_theory
from .verdicts import PROOF_STATUSES, SzsStatus

GRACE_SECONDS = 2.0
# An external engine's wait goes through poll(), which takes milliseconds as
# a C int, so a longer per-call budget overflows.
MAX_TIMEOUT = (2**31 - 1) // 1000

CAP_PROVES = "proves"
CAP_FINDS_MODELS = "finds_models"

BUILTIN_PROVER_ID = "builtin-prover"
BUILTIN_MODEL_FINDER_ID = "builtin-model-finder"


class EngineConfigError(Exception):
    """An engine is misconfigured (missing executable, bad template, bad id)."""


@dataclass(frozen=True)
class EngineLimits:
    """Per-call resource limits, the one budget type every engine takes.

    timeout bounds each call's wall-clock seconds, up to MAX_TIMEOUT: the
    prover's search and the model finder's grounding, solving and model
    verification answer ResourceOut past it;
    max_domain_size is the largest domain the model finder tries;
    max_clause_count is how many clauses a call may hold: both engines answer
    ResourceOut when clausifying the query would make more, the prover when
    it keeps more, and the model finder when grounding a domain size would.
    Values are checked here, so a bad limit fails before any engine runs.
    """

    timeout: float = 10.0
    max_domain_size: int = 4
    max_clause_count: int = 100_000

    def __post_init__(self) -> None:
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if not self.timeout <= MAX_TIMEOUT:
            raise ValueError(
                f"timeout must be at most {MAX_TIMEOUT} seconds, got {self.timeout}"
            )
        if self.max_domain_size < 1:
            raise ValueError(
                f"max_domain_size must be at least 1, got {self.max_domain_size}"
            )
        if self.max_clause_count < 1:
            raise ValueError(
                f"max_clause_count must be positive, got {self.max_clause_count}"
            )


@dataclass(frozen=True)
class EngineSpec:
    id: str
    executable: str
    argument_template: tuple[str, ...]
    capabilities: frozenset[str]

    def __post_init__(self) -> None:
        problem_slots = sum(1 for tok in self.argument_template if "{problem}" in tok)
        if problem_slots != 1:
            raise EngineConfigError(
                f"engine {self.id!r}: argument template must mention {{problem}} exactly once"
            )
        bad = self.capabilities - {CAP_PROVES, CAP_FINDS_MODELS}
        if bad:
            raise EngineConfigError(f"engine {self.id!r}: unknown capabilities {sorted(bad)}")

    def run(self, t: Theory, limits: EngineLimits) -> EngineVerdict:
        return run_engine(self, t, limits.timeout)


@dataclass(frozen=True)
class EngineVerdict:
    """One engine call's answer.  A model finder may also hand back the model
    it found or the domain size it exhausted; neither takes part in
    comparisons.  Consistency reports render both.

    premises_exact marks used_premises as exactly the premises the proof
    used, so that set alone yields the goal.  The built-in prover's are: every
    clause records the premises it came from.  An external engine's come from
    file() citations, which may be incomplete.
    """

    engine_id: str
    status: SzsStatus
    used_premises: frozenset[str] = frozenset()
    has_premise_info: bool = False
    premises_exact: bool = False
    raw_output_digest: str | None = None
    elapsed: float = 0.0
    model: Interpretation | None = field(default=None, compare=False)
    exhausted_size: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.used_premises and self.status not in PROOF_STATUSES:
            raise ValueError(
                "used_premises only accompany Theorem/Unsatisfiable/ContradictoryAxioms"
            )


_SZS_STATUS_RE = re.compile(r"SZS\s+status\s+([A-Za-z]+)")
_FILE_SOURCE_RE = re.compile(r"file\(\s*'[^']*'\s*,\s*'?([A-Za-z0-9_.-]+)'?\s*\)")
_OUTPUT_START_RE = re.compile(r"SZS\s+output\s+start")
_OUTPUT_END_RE = re.compile(r"SZS\s+output\s+end")


def parse_szs(output: str) -> SzsStatus:
    """Status named on the first line matching "SZS status <Name>"; else Unknown."""
    for line in output.splitlines():
        m = _SZS_STATUS_RE.search(line)
        if m:
            return SzsStatus.parse(m.group(1))
    return SzsStatus.Unknown


def _derivation_region(output: str) -> str:
    start = _OUTPUT_START_RE.search(output)
    end = _OUTPUT_END_RE.search(output)
    if start and end and start.end() < end.start():
        return output[start.end() : end.start()]
    return output


def _cited_names(output: str) -> frozenset[str]:
    """Names cited as file(<path>, <name>) sources in the derivation."""
    return frozenset(_FILE_SOURCE_RE.findall(_derivation_region(output)))


def extract_used_premises(output: str, t: Theory) -> frozenset[str]:
    """Premise names cited as file(<path>, <name>) sources in the derivation."""
    return _cited_names(output) & frozenset(t.premise_names)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", errors="replace")).hexdigest()


def run_engine(spec: EngineSpec, t: Theory, budget: float) -> EngineVerdict:
    """Run an external engine on a theory with a hard wall-clock budget.

    Engine failures (crashes, garbage output, timeouts) map to statuses and
    never raise; only configuration and temp-file I/O problems do.
    """
    executable = spec.executable
    resolved = shutil.which(executable) or (
        executable if os.path.isfile(executable) and os.access(executable, os.X_OK) else None
    )
    if resolved is None:
        raise EngineConfigError(f"engine {spec.id!r}: executable {executable!r} not found")
    start = time.monotonic()
    timed_out = False
    with tempfile.NamedTemporaryFile(
        "w", suffix=".p", prefix="proofscope_", delete=False, encoding="utf-8"
    ) as handle:
        problem_path = handle.name
        handle.write(render_theory(t))
    try:
        args = [resolved] + [
            tok.replace("{problem}", problem_path).replace(
                "{timeout}", str(max(1, int(budget)))
            )
            for tok in spec.argument_template
        ]
        try:
            proc = subprocess.Popen(
                args,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        except OSError as exc:
            raise EngineConfigError(f"engine {spec.id!r}: cannot launch: {exc}") from exc
        try:
            raw, _ = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            timed_out = True
            try:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                proc.kill()
            try:
                raw, _ = proc.communicate(timeout=GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                raw = b""
    finally:
        try:
            os.unlink(problem_path)
        except OSError:
            pass
    output = (raw or b"").decode("utf-8", errors="replace")
    status = parse_szs(output)
    if timed_out and status == SzsStatus.Unknown:
        status = SzsStatus.Timeout
    cited = _cited_names(output) if status in PROOF_STATUSES else frozenset()
    return EngineVerdict(
        engine_id=spec.id,
        status=status,
        used_premises=cited & frozenset(t.premise_names),
        has_premise_info=bool(cited),
        # The temp-file path differs on every call; engines that cite their
        # input in file(...) annotations print it.
        raw_output_digest=_digest(output.replace(problem_path, "{problem}")),
        elapsed=time.monotonic() - start,
    )


# ---------------------------------------------------------------------------
# Built-in engines


def _builtin_digest(status: SzsStatus, used: frozenset[str]) -> str:
    return _digest(f"{status.value}:{','.join(sorted(used))}")


@dataclass(frozen=True)
class BuiltinProver:
    id: str = BUILTIN_PROVER_ID
    capabilities: frozenset[str] = frozenset({CAP_PROVES})

    def run(self, t: Theory, limits: EngineLimits) -> EngineVerdict:
        start = time.monotonic()
        outcome = (prove if t.conjecture is not None else refute)(t, limits)
        return EngineVerdict(
            engine_id=self.id,
            status=outcome.status,
            used_premises=outcome.used_premises,
            has_premise_info=True,
            premises_exact=True,
            raw_output_digest=_builtin_digest(outcome.status, outcome.used_premises),
            elapsed=time.monotonic() - start,
        )


@dataclass(frozen=True)
class BuiltinModelFinder:
    id: str = BUILTIN_MODEL_FINDER_ID
    capabilities: frozenset[str] = frozenset({CAP_FINDS_MODELS})

    def run(self, t: Theory, limits: EngineLimits) -> EngineVerdict:
        start = time.monotonic()
        formulas: list[tuple[str, Formula]] = [(p.name, p.formula) for p in t.premises]
        if t.conjecture is not None:
            formulas.append((ORIGIN_CONJECTURE, Not(t.conjecture.formula)))
        outcome = self.search_formulas(formulas, limits)
        if outcome.kind == ModelKind.ModelFound:
            status = (
                SzsStatus.CounterSatisfiable
                if t.conjecture is not None
                else SzsStatus.Satisfiable
            )
        elif outcome.kind == ModelKind.ExhaustedUpTo:
            status = SzsStatus.GaveUp  # finite exhaustion never refutes satisfiability
        else:
            status = SzsStatus.ResourceOut
        return EngineVerdict(
            engine_id=self.id,
            status=status,
            raw_output_digest=_builtin_digest(status, frozenset()),
            elapsed=time.monotonic() - start,
            model=outcome.model,
            exhausted_size=outcome.exhausted_size,
        )

    def search_formulas(
        self, formulas: Sequence[tuple[str, Formula]], limits: EngineLimits
    ) -> ModelOutcome:
        return find_model(formulas, limits)


# ---------------------------------------------------------------------------
# Engine configuration files


def _spec_from_dict(engine_id: str, raw: object) -> EngineSpec:
    if not isinstance(raw, dict):
        raise EngineConfigError(f"engine {engine_id!r}: expected an object")
    try:
        executable = raw["executable"]
        template = raw["args"]
    except KeyError as exc:
        raise EngineConfigError(f"engine {engine_id!r}: missing key {exc}") from exc
    capabilities = raw.get("capabilities", [CAP_PROVES])
    if not isinstance(executable, str):
        raise EngineConfigError(f"engine {engine_id!r}: 'executable' must be a string")
    for key, value in (("args", template), ("capabilities", capabilities)):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise EngineConfigError(f"engine {engine_id!r}: {key!r} must be a list of strings")
    return EngineSpec(
        id=engine_id,
        executable=executable,
        argument_template=tuple(template),
        capabilities=frozenset(capabilities),
    )


def load_engine_config(path: str) -> dict[str, EngineSpec]:
    """Load a declarative engine configuration file (JSON)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:  # invalid JSON or not UTF-8
            raise EngineConfigError(f"{path}: cannot parse engine config: {exc}") from exc
    engines = data.get("engines", data) if isinstance(data, dict) else data
    if not isinstance(engines, dict):
        raise EngineConfigError(f"{path}: expected an object mapping engine ids")
    return {eid: _spec_from_dict(eid, raw) for eid, raw in engines.items()}


def preset_engine_specs() -> dict[str, EngineSpec]:
    """Shipped presets matching common E/Vampire/Paradox invocation shapes."""
    text = resources.files("proofscope.data").joinpath("engines.json").read_text("utf-8")
    data = json.loads(text)
    return {eid: _spec_from_dict(eid, raw) for eid, raw in data["engines"].items()}


def resolve_engines(
    ids: Sequence[str], config: dict[str, EngineSpec] | None = None
) -> list:
    """Map engine ids to engine objects; built-in ids need no configuration."""
    available = preset_engine_specs()
    if config:
        available.update(config)
    out: list = []
    for eid in ids:
        if eid == BUILTIN_PROVER_ID:
            out.append(BuiltinProver())
        elif eid == BUILTIN_MODEL_FINDER_ID:
            out.append(BuiltinModelFinder())
        elif eid in available:
            out.append(available[eid])
        else:
            raise EngineConfigError(
                f"unknown engine id {eid!r}; known: "
                f"{BUILTIN_PROVER_ID}, {BUILTIN_MODEL_FINDER_ID}, "
                + ", ".join(sorted(available))
            )
    return out
