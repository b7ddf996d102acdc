"""Seeded instance documents for the benchmark workloads.

Documents are built here from the standard library's `random` and
`fractions` only, never through `pdp.instances`, so a change to the
program's own generators cannot change what a workload runs.  Every
document is a version-1 `pdp` instance; each operation gets a document of
its own, so no two operations share work through the program's caches.
Each workload has a fixed corpus; the seed renumbers the petals of its
documents and orders its operations (see operations()).

Print the digest of each workload's documents for a seed:

    python3 perfbench/gen.py --seed 1 [--seconds 15]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction as F

WORKLOADS = ("agent", "fptas", "oracle", "multi-agent")

# One round of each workload: the size classes of its operations, in order.
# A run executes whole rounds (see rounds()), each with fresh documents, so
# the mix of large and small instances is the same in every run.
AGENT_SIZES = tuple(range(50, 201, 10)) * 2  # 32 documents, n 50..200
FPTAS_SIZES = (24, 24, 24, 24, 28, 28, 28, 32, 32, 32)
ORACLE_SIZES = (14,) * 4 + (15,) * 4 + (16,) * 5 + (17,) * 3 + (18,) * 3 + (20,)
MA_SIZES = (4,) * 5 + (5,) * 4  # multi-agent solve, k = 2
COMP_SIZES = (4,) * 5 + (5,)  # competitive solve, k = 2
GAME_SHAPES = ((3, 1), (3, 2), (4, 1), (4, 2))  # (n, agents), two designers
EPSILON = F(1, 10)
EXTERNALS = 2  # rival platforms in each competitive document
AGENTS = 2  # k of multi-agent and competitive documents
DESIGNERS = 2  # designers of each game

# Nominal seconds one round took, when this benchmark was added, on a 2-core
# x86-64 machine under Python 3.11; rounds() turns --seconds into a fixed
# round count with it, so the work of a run depends on --seconds only.
ROUND_SECONDS = {"agent": 0.2, "fptas": 0.34, "oracle": 1.5, "multi-agent": 1.1}


def rounds(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n integers spread evenly over [lo, hi], in a seeded random order.

    Documents of one size then differ in how values are assigned to petals,
    not in the mix of values, which keeps the solvers' work per document of
    one size within a narrow band (see README.md).
    """
    values = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(values)
    return values


def _flower_fields(rng: random.Random, n: int, mixed: bool) -> dict:
    """A random flower: p from integer weights, q in tenths, y from a chosen z.

    With `mixed`, every second petal (in a seeded order) gets a negative
    shift z in (p - lambda, 0), which keeps q + y inside (0, 1).
    """
    weights = _spread(rng, n, 1, 9)
    total = sum(weights)
    p = [F(w, total) for w in weights]
    q = [F(v, 10) for v in _spread(rng, n, 1, 8)]
    shifts = _spread(rng, n, 1, 6)
    negative = _spread(rng, n, 0, 1) if mixed else [0] * n
    cut = _spread(rng, n, 1, 9)
    y = []
    for i in range(n):
        lam = p[i] / (1 - q[i])
        z = -(lam - p[i]) * F(cut[i], 10) if negative[i] else F(shifts[i])
        y.append((1 - q[i]) - p[i] / (lam + z))
    return {
        "p": [str(v) for v in p],
        "q": [str(v) for v in q],
        "y": [str(v) for v in y],
        "c_life": [str(F(v, 4)) for v in _spread(rng, n, 0, 4)],
        "c_platform": [str(F(v, 4)) for v in _spread(rng, n, 1, 12)],
        "d": [str(F(v)) for v in _spread(rng, n, 0, 20)],
        "cost": [str(F(v, 10)) for v in _spread(rng, n, 1, 30)],
    }


def flower_doc(rng: random.Random, n: int, mixed: bool = False) -> dict:
    return {"version": 1, "kind": "flower", "states": n, **_flower_fields(rng, n, mixed)}


QUANT = {"delta": "1", "delta_prime": "1/4"}


def _quantized_agent(rng: random.Random, n: int, points: list) -> dict:
    """Flower fields whose petal j has shift and potential `points[j]`."""
    weights = _spread(rng, n, 1, 9)
    total = sum(weights)
    p = [F(w, total) for w in weights]
    q = [F(v, 10) for v in _spread(rng, n, 1, 8)]
    c_life = [F(v, 4) for v in _spread(rng, n, 0, 2)]
    y, c_platform = [], []
    for i, (z, phi) in enumerate(points):
        lam = p[i] / (1 - q[i])
        w = lam + z
        y.append((1 - q[i]) - p[i] / w)
        c_platform.append((phi * z + lam * c_life[i]) / w)
    return {
        "p": [str(v) for v in p],
        "q": [str(v) for v in q],
        "y": [str(v) for v in y],
        "c_life": [str(v) for v in c_life],
        "c_platform": [str(v) for v in c_platform],
        "d": [str(F(v)) for v in _spread(rng, n, 0, 8)],
    }


def _grid_points(rng: random.Random, n: int) -> list:
    """Per-petal (z, phi) on the quantization grid: z in {1, 2}, phi a
    multiple of 1/4 in [0, 3], each spread evenly over the petals."""
    return list(zip((F(v) for v in _spread(rng, n, 1, 2)), (F(v, 4) for v in _spread(rng, n, 0, 12))))


def multi_agent_doc(rng: random.Random, n: int) -> dict:
    return {
        "version": 1,
        "kind": "multi-agent",
        "states": n,
        "cost": [str(F(v, 4)) for v in _spread(rng, n, 1, 5)],
        "agents": [_quantized_agent(rng, n, _grid_points(rng, n)) for _ in range(AGENTS)],
        "quantization": dict(QUANT),
    }


def _own_point(agent: dict, j: int) -> tuple[F, F]:
    """(z, phi) of the designer's own candidate at petal j (0-based)."""
    p, q, y = F(agent["p"][j]), F(agent["q"][j]), F(agent["y"][j])
    lam = p / (1 - q)
    w = p / (1 - q - y)
    z = w - lam
    phi = (w * F(agent["c_platform"][j]) - lam * F(agent["c_life"][j])) / z
    return z, phi


def _rival_point(rng: random.Random, taken: set) -> tuple[F, F]:
    """A (z, phi) on the quantization grid that no other platform at the
    same petal has, so the agent's choice never rests on platform ids."""
    while True:
        point = (F(rng.randint(1, 2)), F(rng.randint(0, 12), 4))
        if point not in taken:
            taken.add(point)
            return point


def competitive_doc(rng: random.Random, n: int) -> dict:
    doc = multi_agent_doc(rng, n)
    doc["kind"] = "competitive"
    taken = {}  # (agent, petal) -> points already there
    for i, agent in enumerate(doc["agents"]):
        for j in range(n):
            taken[i, j] = {_own_point(agent, j)}
    platforms = []
    for e in range(EXTERNALS):
        state = rng.randint(1, n)
        points = [_rival_point(rng, taken[i, state - 1]) for i in range(AGENTS)]
        platforms.append(
            {
                "id": f"ext{e}",
                "state": state,
                "z": [str(z) for z, _ in points],
                "phi": [str(phi) for _, phi in points],
                "owner": "rival",
            }
        )
    doc["platforms"] = platforms
    return doc


def game_doc(rng: random.Random, n: int, k: int) -> dict:
    """Two designers with one candidate per petal each.  No two designers'
    candidates at one petal share (z, phi) for any agent, so the agent's
    choice never rests on platform ids."""
    chassis = []
    for _ in range(k):
        fields = _flower_fields(rng, n, mixed=False)
        fields["c_life"] = [str(F(v, 4)) for v in _spread(rng, n, 0, 2)]
        chassis.append(fields)
    points = []  # points[designer][agent][petal]
    while len(points) < DESIGNERS:
        mine = [_grid_points(rng, n) for _ in range(k)]
        if all(mine[i][j] != other[i][j] for other in points for i in range(k) for j in range(n)):
            points.append(mine)
    doc_designers = []
    for mine in points:
        d = [_spread(rng, n, 0, 8) for _ in range(k)]
        costs = _spread(rng, n, 1, 5)
        doc_designers.append(
            {
                "candidates": [
                    {
                        "state": j + 1,
                        "z": [str(mine[i][j][0]) for i in range(k)],
                        "phi": [str(mine[i][j][1]) for i in range(k)],
                        "d": [str(F(d[i][j])) for i in range(k)],
                        "cost": str(F(costs[j], 4)),
                    }
                    for j in range(n)
                ]
            }
        )
    return {
        "version": 1,
        "kind": "game",
        "states": n,
        "agents": chassis,
        "designers": doc_designers,
        "quantization": dict(QUANT),
    }


def no_nash_doc() -> dict:
    """Two designers, three petals, one agent: a game with no pure Nash
    equilibrium (the fixture the program's tests also use)."""
    third, zero = "1/3", "0"
    chassis = {
        "p": [third] * 3,
        "q": ["2/3"] * 3,
        "y": ["1/6"] * 3,
        "c_life": [zero] * 3,
        "c_platform": [zero] * 3,
        "d": [zero] * 3,
        "cost": ["1"] * 3,
    }

    def cand(state, phi, d):
        return {"state": state, "z": ["1"], "phi": [str(phi)], "d": [str(d)], "cost": "1/1000"}

    return {
        "version": 1,
        "kind": "game",
        "states": 3,
        "agents": [chassis],
        "designers": [
            {"candidates": [cand(1, 50, 100), cand(2, 0, 0), cand(3, 2000, 50)]},
            {"candidates": [cand(1, 0, 0), cand(2, 50, 100), cand(3, 1000, 2000)]},
        ],
        "quantization": {"delta": "1", "delta_prime": "50"},
    }


def _profile(rng: random.Random, n: int) -> str:
    return json.dumps(
        [sorted(j for j in range(1, n + 1) if rng.random() < 0.5) for _ in range(DESIGNERS)]
    )


def _round(workload: str, r: int) -> list[dict]:
    """Round r of the workload's fixed corpus, before relabelling."""
    rng = random.Random(f"{workload}:{r}")
    ops = []

    def add(command, doc, *args):
        ops.append({"command": command, "doc": doc, "args": list(args)})

    if workload == "agent":
        for idx, n in enumerate(AGENT_SIZES):
            add("solve-agent", flower_doc(rng, n, mixed=idx % 2 == 1))  # every second one mixed
    elif workload == "fptas":
        for n in FPTAS_SIZES:
            add("solve-designer", flower_doc(rng, n), "--epsilon", str(EPSILON))
    elif workload == "oracle":
        for n in ORACLE_SIZES:
            add("verify", flower_doc(rng, n))
    elif workload == "multi-agent":
        for n in MA_SIZES:
            add("solve-multi-agent", multi_agent_doc(rng, n))
        for n in COMP_SIZES:
            add("solve-multi-agent", competitive_doc(rng, n))
        for n, k in GAME_SHAPES:
            add("nash", game_doc(rng, n, k))
            add("dynamics", game_doc(rng, n, k), "--init", _profile(rng, n))
            add(
                "best-response", game_doc(rng, n, k),
                "--designer", str(rng.randint(1, DESIGNERS)), "--profile", _profile(rng, n),
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# Per-petal fields of flowers, multi-agent agents and game chassis.
PETAL_FIELDS = ("p", "q", "y", "c_life", "c_platform", "d", "cost")


def relabel(op: dict, rng: random.Random) -> dict:
    """The operation with its document's petals renumbered by a random
    permutation: petal j moves to place new[j].  Every per-petal list, state
    number and state list in the arguments follows, so the instance, its
    answer and the solvers' work stay the same and only the labels change."""
    doc = json.loads(json.dumps(op["doc"]))
    n = doc["states"]
    order = list(range(n))
    rng.shuffle(order)  # order[i] = old petal now at place i
    new = {old + 1: i + 1 for i, old in enumerate(order)}  # 1-based states

    def petals(fields):
        for key in PETAL_FIELDS:
            if key in fields:
                fields[key] = [fields[key][j] for j in order]

    petals(doc)
    for agent in doc.get("agents", []):
        petals(agent)
    for platform in doc.get("platforms", []):
        platform["state"] = new[platform["state"]]
    for designer in doc.get("designers", []):
        for cand in designer["candidates"]:
            cand["state"] = new[cand["state"]]
        designer["candidates"].sort(key=lambda c: c["state"])
    args = list(op["args"])
    for flag in ("--init", "--profile"):
        if flag in args:
            at = args.index(flag) + 1
            args[at] = json.dumps([sorted(new[s] for s in states) for states in json.loads(args[at])])
    return {"command": op["command"], "doc": doc, "args": args}


def operations(workload: str, seed: int, seconds: int) -> list[dict]:
    """The run's whole operation list: `rounds()` rounds of the workload's
    fixed corpus, each document used once.

    The seed relabels every document's petals and shuffles the order of the
    operations within each round.  Every seed thus gives other documents and
    another order, but the same instances, so the work of a run, and each
    percentile of its operation times, does not depend on the seed.  With the
    values drawn per seed instead, the time of one FPTAS operation at n = 32
    ranged over 3x and `op_ms_p90` moved by 10% between seeds.

    The multi-agent workload opens with `pdp nash` on the no-nash fixture,
    once per run, since repeating one document would share cache entries.
    """
    ops = []
    if workload == "multi-agent":
        ops.append({"id": "fixture", "command": "nash", "doc": no_nash_doc(), "args": []})
    for r in range(rounds(workload, seconds)):
        rng = random.Random(f"{workload}:{seed}:{r}")
        batch = [relabel(op, rng) for op in _round(workload, r)]
        rng.shuffle(batch)
        for op in batch:
            ops.append({"id": f"r{r:03d}-{len(ops):04d}", **op})
    return ops


def digest(ops: list[dict]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op, sort_keys=True).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    args = ap.parse_args(argv)
    for workload in WORKLOADS:
        ops = operations(workload, args.seed, args.seconds)
        print(f"{workload} seed={args.seed} operations={len(ops)} sha256={digest(ops)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
