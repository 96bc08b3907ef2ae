#!/usr/bin/env python3
"""Stub SZS engine for exercising the external-engine client layer.

Reads the formula names from the problem file and emits canned output
according to --mode:

  theorem     SZS Theorem plus a TSTP derivation citing premises
  countersat  SZS CounterSatisfiable
  satisfiable SZS Satisfiable
  unsat       SZS Unsatisfiable plus a TSTP derivation citing premises
  contradictory  SZS ContradictoryAxioms plus a TSTP derivation citing premises
  timeout     print nothing and sleep until killed
  garbage     non-SZS noise on stdout

With --cite a,b only those names are cited; default cites every premise.
"""

import argparse
import re
import sys
import time

FOF_RE = re.compile(r"^\s*fof\(\s*([A-Za-z0-9_]+)\s*,\s*([a-z_]+)\s*,", re.MULTILINE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", default="theorem")
    ap.add_argument("--cite", default="")
    ap.add_argument("--sleep", type=float, default=60.0)
    ap.add_argument("problem")
    args = ap.parse_args()

    if args.mode == "timeout":
        time.sleep(args.sleep)
        return 0
    if args.mode == "garbage":
        print("segmentation fault (core dumped)")
        return 139
    if args.mode == "countersat":
        print("% SZS status CounterSatisfiable for stub")
        return 0
    if args.mode == "satisfiable":
        print("% SZS status Satisfiable for stub")
        return 0

    with open(args.problem, "r", encoding="utf-8") as handle:
        text = handle.read()
    found = FOF_RE.findall(text)
    premises = [name for name, role in found if role != "conjecture"]
    conjecture = [name for name, role in found if role == "conjecture"]
    cited = [c for c in args.cite.split(",") if c] or premises

    status = {"unsat": "Unsatisfiable", "contradictory": "ContradictoryAxioms"}.get(
        args.mode, "Theorem"
    )
    print(f"% SZS status {status} for stub")
    print("% SZS output start Proof")
    for name in cited:
        print(f"fof({name}, axiom, $true, file('{args.problem}', {name})).")
    for name in conjecture:
        print(f"fof({name}, conjecture, $true, file('{args.problem}', {name})).")
    print("fof(step_1, plain, $false, inference(resolution, [], [{}])).".format(
        ", ".join(cited) or "none"))
    print("% SZS output end Proof")
    return 0


if __name__ == "__main__":
    sys.exit(main())
