"""What the benchmark measures; ``run.py --write-benchmark-json`` writes it
to BENCHMARK.json at the root of the repository."""

from __future__ import annotations

import json

RUN_SECONDS = 40

WORKLOADS = (
    ("puz001", "PUZ001+1.p (Pelletier 55), headline example, only bundled problem with equality; about 99 % "
     "prover search. failfast and random independence are left out: their calls run to the per-call budget"),
    ("chains", "seeded implication chains of 8-12 premises through minimize, syntactic reprove and all three "
     "independence methods: thousands of tiny subset queries, so per-query fixed cost and caching decide"),
    ("models", "consistency on groups (least non-abelian model at size 6, grounding-bound), pigeonhole 5/4 "
     "(DPLL-bound exhaustion) and cyclic groups of orders 2-5; the prover never runs"),
)

END_TO_END = (
    # (name, unit, better, bound)
    ("wall_s", "s", "lower", 0.25),
    ("engine_calls", "count", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    # (name, unit, better)
    ("prover.calls", "count", "lower"),
    ("prover.s", "s", "lower"),
    ("prover.self_s", "s", "lower"),
    ("prover.generated", "count", "lower"),
    ("prover.kept", "count", "lower"),
    ("prover.kept_ratio", "ratio", "higher"),
    ("prover.resource_out", "count", "lower"),
    ("clauses.clausify_calls", "count", "lower"),
    ("clauses.clausify_s", "s", "lower"),
    ("clauses.clauses_out", "count", "lower"),
    ("tptp.parse_calls", "count", "lower"),
    ("tptp.parse_s", "s", "lower"),
    ("tptp.restrict_calls", "count", "lower"),
    ("tptp.restrict_s", "s", "lower"),
    ("modelfinder.calls", "count", "lower"),
    ("modelfinder.s", "s", "lower"),
    ("modelfinder.self_s", "s", "lower"),
    ("modelfinder.found", "count", "higher"),
    ("modelfinder.exhausted", "count", "higher"),
    ("modelfinder.resource_out", "count", "lower"),
    ("modelfinder.max_domain", "count", "lower"),
    ("modelfinder.verify_s", "s", "lower"),
    ("engines.calls", "count", "lower"),
    ("engines.self_s", "s", "lower"),
    ("analysis.decide_calls", "count", "lower"),
    ("analysis.engine_free_share", "ratio", "higher"),
    ("analysis.self_s", "s", "lower"),
    ("report.to_json_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
