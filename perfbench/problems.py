"""Workload inputs, each paired with an answer known by construction.

A workload is a list of analyses.  Each analysis is one ``proofscope`` CLI
invocation plus a check of its JSON report against an expected answer that
does not come from the code under test: the README's claim for PUZ001, the
shape of the generated theory for the implication chains, and textbook facts
(least non-abelian group, pigeonhole principle) for the model families.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from typing import Callable

# Well above the slowest engine call (about 5 s, the pigeonhole search), so
# that no verdict depends on the clock.
TIMEOUT_S = 120
COMMON_FLAGS = ("--json", "--parallel", "1", "--timeout", str(TIMEOUT_S))

PUZ001_PATH = "src/proofscope/data/problems/PUZ001+1.p"

Check = Callable[[int, dict], list]


@dataclass(frozen=True)
class Analysis:
    label: str
    argv: tuple
    check: Check  # (exit code, report) -> list of mismatch messages


@dataclass(frozen=True)
class Workload:
    files: dict  # file name -> TPTP text, written to the work directory
    analyses: tuple


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, want {want!r}")


def _stage_statuses(trace: dict) -> list:
    return [stage["verdict"]["status"] for stage in trace["stages"]]


# ---------------------------------------------------------------------------
# puz001: Pelletier's problem 55, the bundled headline example

PUZ001_LIVES = ("pel55_2_1", "pel55_2_2", "pel55_2_3")
PUZ001_NEEDED = (
    "pel55_1", "pel55_3", "pel55_4", "pel55_5", "pel55_6", "pel55_7",
    "pel55_8", "pel55_9", "pel55_10", "pel55_11",
)
PUZ001_ALL = ("pel55_1",) + PUZ001_LIVES + PUZ001_NEEDED[1:]


def _check_puz001_minimize(code: int, report: dict) -> list:
    # README: the three lives(...) facts are eliminable, the other ten
    # premises are needed, and the minimal subtheory is unique.
    errors: list = []
    payload = report["payload"]
    cls = payload["classification"]
    _expect(errors, "exit code", code, 0)
    _expect(errors, "needed", cls["needed"], list(PUZ001_NEEDED))
    _expect(errors, "eliminable", cls["eliminable"], list(PUZ001_LIVES))
    _expect(errors, "unknown", cls["unknown"], [])
    _expect(errors, "confirmation", payload["confirmation"], "ConfirmedMinimum")
    _expect(errors, "minima", payload["minima"]["minima"], [list(PUZ001_NEEDED)])
    _expect(errors, "exhaustive", payload["minima"]["exhaustive"], True)
    return errors


def _check_puz001_syntactic(code: int, report: dict) -> list:
    # Every sufficient set contains the unique minimum.
    errors: list = []
    trace = report["payload"]["traces"][0]["trace"]
    _expect(errors, "exit code", code, 0)
    _expect(errors, "fixpoint", trace["fixpoint_reached"], True)
    statuses = _stage_statuses(trace)
    _expect(errors, "stage statuses", statuses, ["Theorem"] * len(statuses))
    final = set(trace["stages"][-1]["premises"])
    if not set(PUZ001_NEEDED) <= final:
        errors.append(f"final premises {sorted(final)} miss a needed premise")
    return errors


def _check_puz001_independence(code: int, report: dict) -> list:
    # The puzzle's solution is that the killer is Agatha; the killer lives in
    # the mansion, so lives(agatha) follows from the other premises.  Each
    # other premise has a finite countermodel (pel55_1, the first premise, is
    # refuted by the model where nobody killed anyone).
    errors: list = []
    payload = report["payload"]
    _expect(errors, "exit code", code, 1)
    _expect(errors, "verdict", payload["verdict"], "Dependent")
    others = [n for n in PUZ001_ALL if n != "pel55_2_1"]
    _expect(
        errors, "witness", payload["witness"],
        {"axiom": "pel55_2_1", "subset": others},
    )
    want = {n: "DoesNotProve" for n in others}
    want["pel55_2_1"] = "Proves"
    _expect(errors, "per_axiom", payload["per_axiom"], want)
    return errors


def _check_puz001_consistency(code: int, report: dict) -> list:
    # The least model of the premises has three people: Agatha and the
    # butler differ (pel55_11), and Charles can be neither, since Agatha
    # hates herself and the butler hates whom Agatha hates.  The conjecture
    # is a theorem, so its negation has no model at any size.
    errors: list = []
    payload = report["payload"]
    _expect(errors, "exit code", code, 0)
    for key, outcome, size, exhausted in (
        ("axioms_only", "ModelFound", 3, None),
        ("axioms_plus_conjecture", "ModelFound", 3, None),
        ("axioms_plus_negated_conjecture", "ExhaustedUpTo", None, 4),
    ):
        check = payload[key]
        _expect(
            errors, key,
            (check["outcome"], check["domain_size"], check["exhausted_size"]),
            (outcome, size, exhausted),
        )
    return errors


def puz001_workload(root: str) -> Workload:
    # independence --method failfast and --method random are left out: on
    # this problem their prover calls on premise subsets mostly never
    # saturate and run to the per-call budget (all four probes of random
    # --trials 4 --timeout 3 ended ResourceOut at 3 s), so they would
    # measure the budget, not the program.
    p = os.path.basename(PUZ001_PATH)
    with open(os.path.join(root, PUZ001_PATH), encoding="utf-8") as handle:
        text = handle.read()
    return Workload(
        files={p: text},
        analyses=(
            Analysis("minimize", ("minimize", p), _check_puz001_minimize),
            Analysis(
                "reprove-syntactic",
                ("reprove", p, "--method", "syntactic"),
                _check_puz001_syntactic,
            ),
            Analysis(
                "independence-naive",
                ("independence", p, "--method", "naive"),
                _check_puz001_independence,
            ),
            Analysis("consistency", ("consistency", p), _check_puz001_consistency),
        ),
    )


# ---------------------------------------------------------------------------
# chains: generated implication chains


@dataclass(frozen=True)
class ChainShape:
    routes: int  # R routes from the start fact to the goal
    length: int  # L implications per route
    distractors: int  # D implications that never reach the goal
    shortcut: bool  # last distractor is derivable from two others


# 8 to 12 premises each (1 + R*L + D); half carry a derivable shortcut.
CHAIN_SHAPES = (
    ChainShape(1, 3, 4, False),
    ChainShape(2, 2, 5, True),
    ChainShape(2, 3, 3, False),
    ChainShape(3, 2, 4, True),
    ChainShape(2, 3, 5, True),
    ChainShape(3, 3, 2, False),
)
FAILFAST_MAX_SUBSET = 2
RANDOM_TRIALS = 40


@dataclass(frozen=True)
class ChainTheory:
    text: str
    premises: tuple  # declaration order
    minima: tuple  # one frozenset per route: the start fact plus the route
    shortcut: tuple | None  # (axiom, the two implications it follows from)


def _implication(name: str, src: str, dst: str) -> str:
    return f"fof({name}, axiom, ![X]: ({src}(X) => {dst}(X)))."


def chain_theory(shape: ChainShape, rng: random.Random) -> ChainTheory:
    """Build one chain theory; the seed picks names and distractor wiring.

    The start fact holds of one constant and every premise after it is a
    unary implication, so a subset proves the goal exactly when it holds the
    start fact and every link of some route.  Distractors hang off the start
    or route predicates and lead only to fresh dead-end predicates.
    """
    n_premises = 1 + shape.routes * shape.length + shape.distractors
    preds = iter(f"p{n}" for n in rng.sample(range(100, 1000), n_premises + 1))
    names = iter(f"a{n}" for n in rng.sample(range(100, 1000), n_premises))
    start, goal = next(preds), next(preds)
    start_name = next(names)
    lines = {start_name: f"fof({start_name}, axiom, {start}(c))."}

    def link(src: str, dst: str) -> str:
        name = next(names)
        lines[name] = _implication(name, src, dst)
        return name

    routes = []
    reachable = [start]
    for _ in range(shape.routes):
        path = [start] + [next(preds) for _ in range(shape.length - 1)] + [goal]
        reachable += path[1:-1]
        routes.append([link(a, b) for a, b in zip(path, path[1:])])

    dead_ends: list = []
    shortcut = None
    if shape.shortcut:
        # A dead-end chain src -> d1 -> d2 -> d3 plus the shortcut d1 -> d3,
        # the theory's only derivable axiom.
        d1, d2, d3 = next(preds), next(preds), next(preds)
        link(rng.choice(reachable), d1)
        pair = frozenset((link(d1, d2), link(d2, d3)))
        shortcut = (link(d1, d3), pair)
        dead_ends += [d1, d2, d3]
    for _ in range(shape.distractors - (4 if shape.shortcut else 0)):
        dst = next(preds)
        link(rng.choice(reachable + dead_ends), dst)
        dead_ends.append(dst)

    # Declaration order is fixed (start fact, routes, then the distractors
    # in seeded order): minimize visits subsets in declaration order, and a
    # fully shuffled order moves its engine calls by about 10 % per seed.
    routed = 1 + shape.routes * shape.length
    order = list(lines)
    tail = order[routed:]
    rng.shuffle(tail)
    order[routed:] = tail
    text = "\n".join(lines[n] for n in order)
    text += f"\nfof(goal, conjecture, {goal}(c)).\n"
    minima = tuple(frozenset([start_name, *route]) for route in routes)
    return ChainTheory(text, tuple(order), minima, shortcut)


def _ordered(names, order: tuple) -> list:
    return [n for n in order if n in names]


def _chain_checks(theory: ChainTheory) -> dict:
    order = theory.premises

    def positions(names: list) -> list:
        return [order.index(n) for n in names]

    minima = sorted((_ordered(m, order) for m in theory.minima), key=positions)
    needed = _ordered(frozenset.intersection(*theory.minima), order)
    shortcut = theory.shortcut

    def minimize(code: int, report: dict) -> list:
        errors: list = []
        payload = report["payload"]
        cls = payload["classification"]
        _expect(errors, "exit code", code, 0)
        _expect(errors, "needed", cls["needed"], needed)
        _expect(errors, "eliminable", cls["eliminable"], [n for n in order if n not in needed])
        _expect(errors, "unknown", cls["unknown"], [])
        # The needed set alone suffices only when there is a single route.
        confirmation = "ConfirmedMinimum" if len(minima) == 1 else "NotSufficient"
        _expect(errors, "confirmation", payload["confirmation"], confirmation)
        got = sorted(payload["minima"]["minima"], key=positions)
        _expect(errors, "minima", got, minima)
        _expect(errors, "exhaustive", payload["minima"]["exhaustive"], True)
        return errors

    def syntactic(code: int, report: dict) -> list:
        # A refutation resolves the goal back along one route, so the trace
        # ends at exactly one minimum.
        errors: list = []
        trace = report["payload"]["traces"][0]["trace"]
        _expect(errors, "exit code", code, 0)
        _expect(errors, "fixpoint", trace["fixpoint_reached"], True)
        statuses = _stage_statuses(trace)
        _expect(errors, "stage statuses", statuses, ["Theorem"] * len(statuses))
        final = trace["stages"][-1]["premises"]
        if final not in minima:
            errors.append(f"final premises {final} are not a minimum")
        return errors

    def naive(code: int, report: dict) -> list:
        errors: list = []
        payload = report["payload"]
        want = {n: "DoesNotProve" for n in order}
        if shortcut is None:
            _expect(errors, "exit code", code, 0)
            _expect(errors, "verdict", payload["verdict"], "Independent")
            _expect(errors, "witness", payload["witness"], None)
        else:
            want[shortcut[0]] = "Proves"
            _expect(errors, "exit code", code, 1)
            _expect(errors, "verdict", payload["verdict"], "Dependent")
            others = [n for n in order if n != shortcut[0]]
            _expect(errors, "witness", payload["witness"], {"axiom": shortcut[0], "subset": others})
        _expect(errors, "per_axiom", payload["per_axiom"], want)
        return errors

    def failfast(code: int, report: dict) -> list:
        # The sweep stops at subsets of two: it finds the shortcut from its
        # two links, and otherwise cannot certify independence.
        errors: list = []
        payload = report["payload"]
        if shortcut is None:
            _expect(errors, "exit code", code, 4)
            _expect(errors, "verdict", payload["verdict"], "Inconclusive")
            _expect(errors, "witness", payload["witness"], None)
        else:
            _expect(errors, "exit code", code, 1)
            _expect(errors, "verdict", payload["verdict"], "Dependent")
            want = {"axiom": shortcut[0], "subset": _ordered(shortcut[1], order)}
            _expect(errors, "witness", payload["witness"], want)
        return errors

    def random_probe(code: int, report: dict) -> list:
        # Random probing never concludes Independent; a witness it reports
        # must be the shortcut with both of its links.
        errors: list = []
        payload = report["payload"]
        witness = payload["witness"]
        if witness is None:
            _expect(errors, "exit code", code, 4)
            _expect(errors, "verdict", payload["verdict"], "Inconclusive")
        elif shortcut is None:
            errors.append(f"witness {witness} in an independent theory")
        else:
            _expect(errors, "exit code", code, 1)
            _expect(errors, "verdict", payload["verdict"], "Dependent")
            _expect(errors, "witness axiom", witness["axiom"], shortcut[0])
            if not shortcut[1] <= set(witness["subset"]):
                errors.append(f"witness subset {witness['subset']} misses a link")
        return errors

    return {
        "minimize": minimize,
        "syntactic": syntactic,
        "naive": naive,
        "failfast": failfast,
        "random": random_probe,
    }


def chain_theories(seed: int) -> list:
    rng = random.Random(seed)
    return [chain_theory(shape, rng) for shape in CHAIN_SHAPES]


def chains_workload(seed: int) -> Workload:
    files: dict = {}
    analyses: list = []
    for i, theory in enumerate(chain_theories(seed)):
        path = f"chain{i}.p"
        files[path] = theory.text
        checks = _chain_checks(theory)
        analyses += [
            Analysis(f"{path}/minimize", ("minimize", path), checks["minimize"]),
            Analysis(
                f"{path}/reprove-syntactic",
                ("reprove", path, "--method", "syntactic"),
                checks["syntactic"],
            ),
            Analysis(
                f"{path}/independence-naive",
                ("independence", path, "--method", "naive"),
                checks["naive"],
            ),
            Analysis(
                f"{path}/independence-failfast",
                ("independence", path, "--method", "failfast",
                 "--max-subset-size", str(FAILFAST_MAX_SUBSET)),
                checks["failfast"],
            ),
            Analysis(
                f"{path}/independence-random",
                ("independence", path, "--method", "random",
                 "--trials", str(RANDOM_TRIALS), "--seed", str(seed * 100 + i)),
                checks["random"],
            ),
        ]
    return Workload(files, tuple(analyses))


# ---------------------------------------------------------------------------
# models: finite-model families with known least model sizes

GROUP_AXIOMS = (
    ("assoc", "![X,Y,Z]: mult(mult(X,Y),Z) = mult(X,mult(Y,Z))"),
    ("left_identity", "![X]: mult(e,X) = X"),
    ("left_inverse", "![X]: mult(inv(X),X) = e"),
)


def _fof(name: str, role: str, formula: str) -> str:
    return f"fof({name}, {role}, {formula})."


def _power(k: int) -> str:
    term = "a"
    for _ in range(k - 1):
        term = f"mult(a,{term})"
    return term


def group_commutativity() -> str:
    """Group axioms with commutativity as conjecture.

    The trivial group models the axioms with or without the conjecture; the
    least non-abelian group is S3, so the negated conjecture first has a
    model at size 6.
    """
    lines = [_fof(n, "axiom", f) for n, f in GROUP_AXIOMS]
    lines.append(_fof("commutative", "conjecture", "![X,Y]: mult(X,Y) = mult(Y,X)"))
    return "\n".join(lines) + "\n"


def cyclic_order(k: int) -> str:
    """A group element of order exactly k: the least model is Z_k."""
    lines = [_fof(n, "axiom", f) for n, f in GROUP_AXIOMS]
    lines.append(_fof("order", "axiom", f"{_power(k)} = e"))
    lines += [_fof(f"order_{j}", "axiom", f"{_power(j)} != e") for j in range(1, k)]
    return "\n".join(lines) + "\n"


def pigeonhole(pigeons: int, holes: int) -> str:
    """Pairwise distinct pigeons, each in one of the named holes, no hole
    shared: unsatisfiable at every domain size when pigeons > holes."""
    ps = [f"p{i}" for i in range(1, pigeons + 1)]
    hs = [f"h{i}" for i in range(1, holes + 1)]
    distinct = " & ".join(f"{a} != {b}" for a, b in itertools.combinations(ps, 2))
    lines = [
        _fof("distinct", "axiom", distinct),
        _fof("pigeons", "axiom", " & ".join(f"pigeon({p})" for p in ps)),
        _fof("holes", "axiom", "![X]: (hole(X) <=> (" + " | ".join(f"X = {h}" for h in hs) + "))"),
        _fof("placed", "axiom", "![X]: (pigeon(X) => ?[H]: (hole(H) & in(X,H)))"),
        _fof("no_share", "axiom", "![X,Y,H]: ((in(X,H) & in(Y,H)) => X = Y)"),
    ]
    return "\n".join(lines) + "\n"


def _check_models(max_size: int, expected: dict) -> Check:
    def check(code: int, report: dict) -> list:
        errors: list = []
        payload = report["payload"]
        _expect(errors, "exit code", code, 0)
        for key in ("axioms_only", "axioms_plus_conjecture", "axioms_plus_negated_conjecture"):
            got = payload[key]
            want = expected.get(key)
            if got is None or want is None:
                _expect(errors, key, got, want)
                continue
            if want == "exhausted":
                _expect(errors, key, (got["outcome"], got["exhausted_size"]), ("ExhaustedUpTo", max_size))
            else:
                _expect(errors, key, (got["outcome"], got["domain_size"]), ("ModelFound", want))
        return errors

    return check


# (file stem, text, --max-domain-size, expected outcome per check).  The
# group search at size 6 is bound by grounding; the pigeonhole exhaustion is
# bound by DPLL.
MODEL_PROBLEMS = (
    ("group_commutativity", group_commutativity(), 6,
     {"axioms_only": 1, "axioms_plus_conjecture": 1, "axioms_plus_negated_conjecture": 6}),
    ("pigeonhole_5_4", pigeonhole(5, 4), 5, {"axioms_only": "exhausted"}),
) + tuple(
    (f"cyclic_order_{k}", cyclic_order(k), 5, {"axioms_only": k}) for k in (2, 3, 4, 5)
)


def models_workload(seed: int) -> Workload:
    # The seed orders the problem list and renames the files.  It leaves the
    # axiom order inside each problem alone: DPLL run time on the pigeonhole
    # problem moves by about 15 % with the clause order, which would swamp
    # the bound on wall time.
    rng = random.Random(seed)
    problems = list(MODEL_PROBLEMS)
    rng.shuffle(problems)
    tag = rng.randrange(1000, 10000)
    files: dict = {}
    analyses: list = []
    for stem, text, max_size, expected in problems:
        path = f"{stem}_{tag}.p"
        files[path] = text
        analyses.append(
            Analysis(
                f"{path}/consistency",
                ("consistency", path, "--max-domain-size", str(max_size)),
                _check_models(max_size, expected),
            )
        )
    return Workload(files, tuple(analyses))


def build(workload: str, seed: int, root: str) -> Workload:
    """The workload's problem files and analyses; root is the checkout."""
    if workload == "puz001":
        return puz001_workload(root)
    if workload == "chains":
        return chains_workload(seed)
    if workload == "models":
        return models_workload(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("puz001", "chains", "models")
