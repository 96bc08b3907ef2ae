"""Proof analysis for first-order TPTP problems.

Parse problems, run the built-in resolution prover and finite model finder
(or external SZS-compliant engines), and answer questions beyond mere
derivability: which premises a proof used, which are truly needed, all
minimal sufficient subtheories, axiom independence, and consistency.
"""

__version__ = "0.1.0"

from .analysis import (
    Confirmation,
    ConsistencyReport,
    IndependenceReport,
    IndependenceVerdict,
    MinimaReport,
    NeededClassification,
    QuerySession,
    ReproveTrace,
    brute_force_minima,
    classify_needed,
    consistency_triple,
    enumerate_minima,
    independence_failfast,
    independence_naive,
    independence_random,
    semantic_reprove,
    syntactic_reprove,
)
from .clauses import Clause, ClauseSet, Literal, clausify
from .engines import (
    BuiltinModelFinder,
    BuiltinProver,
    EngineLimits,
    EngineSpec,
    EngineVerdict,
    extract_used_premises,
    parse_szs,
    run_engine,
)
from .logic import Formula, Interpretation, evaluate, free_variables
from .modelfinder import (
    ModelKind,
    ModelOutcome,
    find_model,
    model_to_text,
    verify_model,
)
from .prover import ProofOutcome, prove, refute
from .tptp import (
    AnnotatedFormula,
    SignatureEntry,
    Theory,
    hapax_legomena,
    parse_file,
    parse_problem,
    render_theory,
    signature_of,
)
from .verdicts import (
    Entailment,
    ExtendedStatus,
    ProblemKind,
    SzsStatus,
    VerdictConflictError,
    classify,
    combine,
    extended_statuses,
)
