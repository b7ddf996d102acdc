"""Self-test of the output checker: real outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py     (from the root of a pdp checkout)

Each case runs one `pdp` command in-process on a generated document, checks
that check.py accepts its output, and then that it rejects the output with
one state flipped or one number moved by 1/10^9.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile
import unittest
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import check  # noqa: E402
import gen  # noqa: E402
import pdp.cli  # noqa: E402

TINY = F(1, 10**9)


def run_pdp(op: dict) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["doc"], fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = pdp.cli.main([op["command"], path, *op["args"]])
    assert rc == 0, rc
    return json.loads(out.getvalue())


def bump(value: str) -> str:
    return str(F(value) + TINY)


def flip(states: list, n: int, state: int = 1) -> list:
    return sorted(set(states) ^ {min(state, n)})


class CheckerRejectsCorruption(unittest.TestCase):
    def assert_judged(self, op: dict, good: dict, *bad: dict):
        self.assertIsNone(check.check(op, json.dumps(good)))
        for out in bad:
            with self.subTest(out=out):
                self.assertIsNotNone(check.check(op, json.dumps(out)))

    def test_agent(self):
        rng = random.Random(1)
        for mixed in (False, True):
            op = {"command": "solve-agent", "doc": gen.flower_doc(rng, 12, mixed), "args": []}
            out = run_pdp(op)
            n = op["doc"]["states"]
            self.assert_judged(
                op,
                out,
                dict(out, adopted=flip(out["adopted"], n, out["adopted"][0] if out["adopted"] else 1)),
                dict(out, utility=bump(out["utility"])),
            )

    def test_fptas(self):
        rng = random.Random(2)
        op = {"command": "solve-designer", "doc": gen.flower_doc(rng, 16), "args": ["--epsilon", "1/10"]}
        out = run_pdp(op)
        f = check.flower(op["doc"])
        floor = (1 - F(1, 10)) * check.designer_optimum(f)
        # A singleton the agent adopts, with its exact profit, below (1 - eps) OPT.
        poor = next(i for i in range(1, 17) if f.utility([i]) < f.phi[i - 1] and 0 < f.profit([i]) < floor)
        self.assert_judged(
            op,
            out,
            dict(out, profit=bump(out["profit"])),
            dict(out, offered=flip(out["offered"], 16, out["offered"][0])),
            dict(out, bins=check.table_bound(f, F(1, 10)) + 1),
            dict(out, offered=[poor], profit=str(f.profit([poor]))),
        )

    def test_verify(self):
        rng = random.Random(3)
        op = {"command": "verify", "doc": gen.flower_doc(rng, 12), "args": []}
        out = run_pdp(op)
        agent, design = out["checks"]
        self.assert_judged(
            op,
            out,
            dict(out, checks=[dict(agent, oracle=bump(agent["oracle"])), design]),
            dict(out, checks=[agent, dict(design, oracle=bump(design["oracle"]))]),
            dict(out, checks=[agent, dict(design, solver=bump(design["oracle"]))]),
            dict(out, ok=False),
        )

    def test_multi_agent_and_competitive(self):
        rng = random.Random(4)
        for doc in (gen.multi_agent_doc(rng, 4), gen.competitive_doc(rng, 4)):
            op = {"command": "solve-multi-agent", "doc": doc, "args": []}
            out = run_pdp(op)
            self.assert_judged(
                op,
                out,
                dict(out, profit=bump(out["profit"])),
                dict(out, offered=flip(out["offered"], 4)),
            )

    def test_games(self):
        rng = random.Random(5)
        doc = gen.game_doc(rng, 3, 2)
        op = {"command": "best-response", "doc": doc, "args": ["--designer", "2", "--profile", "[[1, 3], []]"]}
        out = run_pdp(op)
        self.assert_judged(
            op, out, dict(out, profit=bump(out["profit"])), dict(out, built=flip(out["built"], 3))
        )

        op = {"command": "dynamics", "doc": doc, "args": ["--init", "[[], []]"]}
        out = run_pdp(op)
        trace = out["trace"]
        moved = [trace[0]] + [[flip(trace[1][0], 3), trace[1][1]]] + trace[2:]
        self.assert_judged(op, out, dict(out, trace=moved), dict(out, trace=[[[1], []]] + trace[1:]))

        op = {"command": "nash", "doc": gen.no_nash_doc(), "args": []}
        out = run_pdp(op)
        self.assertIsNone(out["nash"])
        self.assert_judged(op, out, dict(out, nash=[[1], [2]]), dict(out, nash=[[], []]))

    def test_nash_found(self):
        rng = random.Random(6)
        while True:
            op = {"command": "nash", "doc": gen.game_doc(rng, 3, 1), "args": []}
            out = run_pdp(op)
            if out["nash"] is not None:
                break
        g = check.Game(op["doc"])
        profiles = [[[], []], [[1, 2, 3], [1, 2, 3]], [[1], [2]], [[2], [3]]]
        bad = [p for p in profiles if not g.is_nash(tuple(frozenset(s) for s in p))]
        self.assert_judged(op, out, dict(out, nash=None), *(dict(out, nash=p) for p in bad))


if __name__ == "__main__":
    unittest.main()
