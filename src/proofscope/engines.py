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
from typing import Protocol, Sequence

from .logic import Formula, Interpretation, negate
from .modelfinder import ModelKind, ModelLimits, ModelOutcome, find_model
from .prover import ProverLimits, prove, refute
from .tptp import Theory, render_theory
from .verdicts import SzsStatus

GRACE_SECONDS = 2.0

CAP_PROVES = "proves"
CAP_FINDS_MODELS = "finds_models"

BUILTIN_PROVER_ID = "builtin-prover"
BUILTIN_MODEL_FINDER_ID = "builtin-model-finder"


class EngineConfigError(Exception):
    """An engine is misconfigured (missing executable, bad template, bad id)."""


@dataclass(frozen=True)
class EngineLimits:
    """Per-call resource limits shared by every engine kind."""

    timeout: float = 10.0
    max_domain_size: int = 4
    max_clause_count: int = 100_000
    max_clause_weight: int | None = None

    def prover_limits(self) -> ProverLimits:
        return ProverLimits(
            wall_clock_budget=self.timeout,
            max_clause_count=self.max_clause_count,
            max_clause_weight=self.max_clause_weight,
        )

    def model_limits(self) -> ModelLimits:
        return ModelLimits(
            max_domain_size=self.max_domain_size, wall_clock_budget=self.timeout
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


@dataclass(frozen=True)
class EngineVerdict:
    """One engine call's answer.  A model finder may also hand back the model
    it found or the domain size it exhausted; neither takes part in
    comparisons, and reports never include them."""

    engine_id: str
    status: SzsStatus
    used_premises: frozenset[str] = frozenset()
    has_premise_info: bool = False
    raw_output_digest: str | None = None
    elapsed: float = 0.0
    model: Interpretation | None = field(default=None, compare=False)
    exhausted_size: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.used_premises and self.status not in (
            SzsStatus.Theorem,
            SzsStatus.Unsatisfiable,
        ):
            raise ValueError("used_premises only accompany Theorem/Unsatisfiable")


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


def extract_used_premises(output: str, t: Theory) -> frozenset[str]:
    """Premise names cited as file(<path>, <name>) sources in the derivation."""
    region = _derivation_region(output)
    cited = set(_FILE_SOURCE_RE.findall(region))
    return frozenset(cited) & frozenset(t.premise_names)


def _cited_any(output: str) -> bool:
    return bool(_FILE_SOURCE_RE.search(_derivation_region(output)))


class Engine(Protocol):  # pragma: no cover - structural type only
    id: str
    capabilities: frozenset[str]

    def run(self, t: Theory, limits: EngineLimits) -> EngineVerdict: ...


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", errors="replace")).hexdigest()


@dataclass(frozen=True)
class ExternalEngine:
    spec: EngineSpec

    @property
    def id(self) -> str:
        return self.spec.id

    @property
    def capabilities(self) -> frozenset[str]:
        return self.spec.capabilities

    def run(self, t: Theory, limits: EngineLimits) -> EngineVerdict:
        return run_engine(self.spec, t, limits.timeout)


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
    used: frozenset[str] = frozenset()
    info = False
    if status in (SzsStatus.Theorem, SzsStatus.Unsatisfiable):
        used = extract_used_premises(output, t)
        info = _cited_any(output)
    return EngineVerdict(
        engine_id=spec.id,
        status=status,
        used_premises=used,
        has_premise_info=info,
        raw_output_digest=_digest(output),
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
        if t.conjecture is not None:
            outcome = prove(t, limits.prover_limits())
        else:
            outcome = refute(t, limits.prover_limits())
        return EngineVerdict(
            engine_id=self.id,
            status=outcome.status,
            used_premises=outcome.used_premises,
            has_premise_info=True,
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
            formulas.append(("$negated_conjecture", negate(t.conjecture.formula)))
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
        return find_model(formulas, limits.model_limits())


# ---------------------------------------------------------------------------
# Engine configuration files


def _spec_from_dict(engine_id: str, raw: dict) -> EngineSpec:
    try:
        executable = raw["executable"]
        template = raw["args"]
    except KeyError as exc:
        raise EngineConfigError(f"engine {engine_id!r}: missing key {exc}") from exc
    capabilities = frozenset(raw.get("capabilities", [CAP_PROVES]))
    return EngineSpec(
        id=engine_id,
        executable=executable,
        argument_template=tuple(template),
        capabilities=capabilities,
    )


def load_engine_config(path: str) -> dict[str, EngineSpec]:
    """Load a declarative engine configuration file (JSON)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    engines = data.get("engines", data)
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
            out.append(ExternalEngine(available[eid]))
        else:
            raise EngineConfigError(
                f"unknown engine id {eid!r}; known: "
                f"{BUILTIN_PROVER_ID}, {BUILTIN_MODEL_FINDER_ID}, "
                + ", ".join(sorted(available))
            )
    return out
