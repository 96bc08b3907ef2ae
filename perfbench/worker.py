"""One workload process: set up, then run the analysis list closed-loop.

One client sends one analysis at a time through ``proofscope.cli.main`` and
waits for its report before sending the next.  A pass is one trip through the
workload's analysis list; passes repeat until the next one would overrun
``--seconds``.  With ``--trace 1`` passes alternate untraced and traced, so
the tracing overhead is measured in the same process.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The program under test is the source tree of this checkout, never an
# installed copy.
sys.path.insert(0, SRC)

from proofscope import cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: proofscope imported from {cli.__file__}, not from {SRC}")

import problems  # noqa: E402
import spans  # noqa: E402

FAILURES_SHOWN = 5


@dataclass
class Pass:
    traced: bool
    seconds: float = 0.0
    engine_calls: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)


def run_analysis(analysis: problems.Analysis, guard: spans.Guard) -> tuple:
    """Run one analysis; returns (exit code, report or None, mismatches)."""
    out, err = io.StringIO(), io.StringIO()
    undecided = guard.undecided
    try:
        code = cli.main(list(analysis.argv) + list(problems.COMMON_FLAGS), out, err)
    except Exception as exc:  # the benchmark counts it and carries on
        return None, None, [f"raised {type(exc).__name__}: {exc}"]
    if code in (cli.EXIT_INPUT_ERROR, cli.EXIT_CONFLICT):
        return code, None, [f"exit code {code}: {err.getvalue().strip()}"]
    try:
        report = json.loads(out.getvalue())
        errors = analysis.check(code, report)
    except (ValueError, KeyError, TypeError) as exc:
        return code, None, [f"unreadable report: {exc!r}"]
    if guard.undecided != undecided:
        errors.append(f"{guard.undecided - undecided} engine calls ran out of resources")
    return code, report, errors


def run_pass(workload: problems.Workload, guard: spans.Guard, tracer: spans.Tracer | None) -> Pass:
    result = Pass(traced=tracer is not None)
    start = time.perf_counter()
    with spans.instrument(tracer) if tracer else contextlib.nullcontext():
        for analysis in workload.analyses:
            _, report, errors = run_analysis(analysis, guard)
            result.attempted += 1
            if report is not None:
                result.engine_calls += report["engine_calls"]
            if errors:
                result.failures.append(f"{analysis.label}: {'; '.join(errors)}")
    result.seconds = time.perf_counter() - start
    return result


def write_files(workload: problems.Workload, work_dir: str) -> None:
    os.makedirs(work_dir, exist_ok=True)
    for name, text in workload.files.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def measure(workload: problems.Workload, seconds: float, trace: bool) -> dict:
    guard = spans.Guard()
    tracer = spans.Tracer() if trace else None
    passes: list = []
    start = time.perf_counter()
    with guard.install():
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(run_pass(workload, guard, tracer if traced else None))
            typical = statistics.median(p.seconds for p in passes)
            enough = not trace or len(passes) >= 2
            if enough and time.perf_counter() - start + typical > seconds:
                break

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    failures = [f for p in passes for f in p.failures]
    calls = {p.engine_calls for p in passes}
    if len(calls) > 1:
        failures.append(f"engine_calls differ between passes: {sorted(calls)}")
    wall = statistics.median(p.seconds for p in plain)
    if trace:
        metrics = spans.layer_metrics(tracer, len(traced_passes))
        traced_wall = statistics.median(p.seconds for p in traced_passes)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
    else:
        metrics = {
            "wall_s": wall,
            "engine_calls": plain[0].engine_calls,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "passes": len(passes),
        "pass_seconds": [round(p.seconds, 4) for p in passes],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "consistent": len(calls) == 1,
        "failures": failures[:FAILURES_SHOWN],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # Stay on one CPU: on the two-vCPU machine this was built on, the vCPUs
    # ran up to 25 % apart in speed at the same moment, and a process that
    # migrates between them measures a changing mix of both.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = problems.build(args.workload, args.seed, ROOT)
    write_files(workload, args.work_dir)
    os.chdir(args.work_dir)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result.update(measure(workload, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
