"""proofscope benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload {puz001,chains,models} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a checkout.  The program measured is ``src/`` of that
checkout.  Problem files are written under ``.perfbench_work/`` and removed
afterwards.  Each metric is printed as ``name value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see spec.py).  The exit code is 0 only when every
analysis returned its known answer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# Fresh processes that only set up, each timed from spawn to ready; half run
# before the measuring process and half after it, which adds one more
# sample.  setup_s is their median.
SETUP_PROBES = 8
# String hashing decides the layout of the prover's sets and dicts: with
# PYTHONHASHSEED alone varying, the same PUZ001 prover call took 0.95 s to
# 1.25 s.  Every worker uses one fixed seed so that this is not noise.
HASH_SEED = "0"
# Every run must end within 180 s; a pass of the slowest workload takes
# about 12 s on two cores.
DEADLINE_S = 170


def _spawn(args: list, deadline: float) -> dict:
    """Run the worker; returns its JSON line with the setup time added."""
    spawned = time.monotonic()
    timeout = max(deadline - spawned, 1.0)
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    base = ["--workload", workload, "--seed", str(seed)]
    deadline = time.monotonic() + DEADLINE_S
    setups: list = []

    def probe(i: int) -> None:
        if not trace:
            work = os.path.join(work_dir, f"probe{i}")
            setups.append(_spawn(base + ["--work-dir", work, "--setup-only"], deadline)["setup_s"])

    try:
        for i in range(SETUP_PROBES // 2):
            probe(i)
        result = _spawn(
            base + ["--work-dir", os.path.join(work_dir, "run"), "--seconds", str(seconds),
                    "--trace", str(int(trace))],
            deadline,
        )
        for i in range(SETUP_PROBES // 2, SETUP_PROBES):
            probe(i)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    setups.append(result["setup_s"])
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="proofscope benchmark")
    parser.add_argument("--workload", choices=[name for name, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the root and exit")
    args = parser.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            handle.write(spec.render())
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "proofscope", "cli.py")):
        print(f"perfbench: no proofscope source tree under {ROOT}", file=sys.stderr)
        return 2

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {m[0]: {"value": result["metrics"][m[0]], "unit": m[1]} for m in wanted}
    correct = result["failed"] == 0 and result["consistent"]
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {result['passes']} passes "
          f"{result['pass_seconds']} s, {result['attempted']} analyses, "
          f"{result['failed']} failed (failed_share {result['failed'] / result['attempted']:.4f})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
