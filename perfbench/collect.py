"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py [--workloads puz001,chains,models] \\
        [--seeds 1-10] [--trace] [--out FILE]

For each workload and end-to-end metric this prints the median, the
quartiles and the spread (quartile distance over median) across seeds, next
to the metric's bound; a spread at or above the bound means the metric is
too noisy to judge a change by.  ``--out`` writes the summary as JSON with
the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(n for n, _ in spec.WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true", help="summarise per-layer metrics")
    parser.add_argument("--out")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    metrics = spec.PER_LAYER if args.trace else spec.END_TO_END
    summary: dict = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "revision": revision(),
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            runs.append(result["metrics"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        table = {}
        for metric in metrics:
            name = metric[0]
            table[name] = summarise([r[name]["value"] for r in runs])
            line = (f"{workload:7s} {name:28s} median {table[name]['median']:.6g} "
                    f"spread {table[name]['spread']:.4f}")
            if not args.trace:
                bound = metric[3]
                table[name]["bound"] = bound
                verdict = "ok" if table[name]["spread"] < bound / 3 else (
                    "within bound" if table[name]["spread"] < bound else "TOO NOISY")
                line += f" bound {bound} {verdict}"
            print(line, flush=True)
        summary["workloads"][workload] = table
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
