"""Golden outputs: every `pdp` command on small seeded documents of each
kind, and on one malformed document per reader path, must print what
`golden.json` holds: the exit code, stderr, and stdout without
`wall_clock_seconds`.  Each case is replayed twice: through `main` in
this process, and as `python -m pdp.cli` in a fresh interpreter, where no
earlier case has loaded a module the command needs.

The documents come from the benchmark's generator (`perfbench/gen.py`) at
fixed seeds and are stored in the file, so a change to either generator
leaves the replay as it is.  Rewrite the file with

    PYTHONPATH=src python3 tests/test_golden.py --write

only when an output is meant to change, and say why in CHANGES.md.
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pdp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"
GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"

# The one field of a result that differs between runs; main writes it last.
_WALL_CLOCK = re.compile(r',\n  "wall_clock_seconds": [^\n]*')


def case_argv(case, directory) -> list:
    """The case's argv, its document (if any) written under `directory` in
    place of "DOC"."""
    path = Path(directory) / "doc.json"
    if case["doc"] is not None:
        path.write_text(json.dumps(case["doc"]), encoding="utf-8")
    return [str(path) if arg == "DOC" else arg for arg in case["argv"]]


def run_case(case, directory) -> dict:
    """main on the case's argv: the exit code, stdout without the wall
    clock, and stderr."""
    argv = case_argv(case, directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": _WALL_CLOCK.sub("", out.getvalue()), "stderr": err.getvalue()}


def _cases():
    """(name, document or None, argv) of every golden case."""
    bench = {"__name__": "perfbench_gen"}
    exec(compile(GEN.read_text(encoding="utf-8"), str(GEN), "exec"), bench)
    rng = random.Random(41)
    flower = bench["flower_doc"](rng, 5)
    mixed = bench["flower_doc"](rng, 6, mixed=True)
    multi = bench["multi_agent_doc"](rng, 4)
    competitive = bench["competitive_doc"](rng, 4)
    seeded_game = bench["game_doc"](rng, 3, 2)
    no_nash = bench["no_nash_doc"]()
    chain = {
        "version": 1,
        "kind": "general-chain",
        "rows": [["0", "1/2", "1/2"], ["1/3", "2/3", "0"], ["1", "0", "0"]],
        "start": 0,
    }
    empty = "[[],[]]"
    docs = {
        "flower": (flower, [
            ["solve-agent"], ["solve-designer"], ["solve-designer", "--exact"],
            ["solve-designer", "--epsilon", "1/3"], ["solve-designer", "--delta", "1/2"],
            ["solve-designer", "--delta", "7"], ["verify"], ["solve-multi-agent"],
        ]),
        "mixed-flower": (mixed, [
            ["solve-agent"], ["solve-designer"], ["solve-designer", "--exact"], ["verify"],
        ]),
        "multi-agent": (multi, [["solve-multi-agent"], ["verify"], ["solve-agent"]]),
        "competitive": (competitive, [
            ["solve-multi-agent"], ["solve-multiplatform-agent", "--agent", "1"],
            ["solve-multiplatform-agent", "--agent", "2"], ["verify"],
        ]),
        "game": (seeded_game, [
            ["nash"], ["dynamics", "--init", empty],
            ["best-response", "--designer", "1", "--profile", empty],
            ["best-response", "--designer", "2", "--profile", "[[1,3],[2]]"], ["verify"],
        ]),
        "no-nash-game": (no_nash, [
            ["nash"], ["dynamics", "--init", "[[1],[2]]"],
            ["best-response", "--designer", "1", "--profile", empty], ["verify"],
        ]),
        "general-chain": (chain, [["verify"]]),
    }
    cases = []
    for kind, (doc, commands) in docs.items():
        for command in commands:
            name = f"{kind}:{' '.join(command)}"
            cases.append((name, doc, [command[0], "DOC", *command[1:]]))
    for argv in (
        ["--kind", "random-flower", "--n", "5", "--seed", "7"],
        ["--kind", "partition", "--a", "1,2,3"],
        ["--kind", "two-agent-partition", "--a", "1,1"],
        ["--kind", "set-cover"],
        ["--kind", "no-nash"],
    ):
        cases.append((f"gen {argv[1]}", None, ["gen", *argv]))

    # One malformed document per reader path: a per-state list, a per-agent
    # list, a candidate cost, a step and a chain row.
    def broken(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    malformed = {
        "per-state list": (broken(flower, lambda d: d["q"].__setitem__(2, "1/0")), "solve-agent"),
        "per-agent list": (
            broken(competitive, lambda d: d["platforms"][0]["phi"].__setitem__(1, "x")),
            "solve-multi-agent",
        ),
        "candidate cost": (
            broken(seeded_game, lambda d: d["designers"][1]["candidates"][0].__setitem__("cost", 0.5)),
            "nash",
        ),
        "step": (broken(multi, lambda d: d["quantization"].__setitem__("delta_prime", "-1/4")), "verify"),
        "chain row": (broken(chain, lambda d: d["rows"][1].__setitem__(0, "1/3/")), "verify"),
    }
    for name, (doc, command) in malformed.items():
        cases.append((f"malformed {name}", doc, [command, "DOC"]))
    return cases


def write_golden() -> None:
    records = []
    with tempfile.TemporaryDirectory() as directory:
        for name, doc, argv in _cases():
            case = {"name": name, "doc": doc, "argv": argv}
            records.append({**case, **run_case(case, directory)})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":  # before the load below, so the file may be new
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_golden()
    sys.exit()

_GOLDEN = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _GOLDEN, ids=[c["name"] for c in _GOLDEN])
def test_output_matches_golden(case, tmp_path):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
    assert run_case(case, tmp_path) == expected


@pytest.mark.parametrize("case", _GOLDEN, ids=[c["name"] for c in _GOLDEN])
def test_fresh_interpreter_matches_golden(case, tmp_path):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-m", "pdp.cli", *case_argv(case, tmp_path)],
        env=env, capture_output=True, encoding="utf-8",
    )
    stdout = _WALL_CLOCK.sub("", run.stdout)
    assert {"exit": run.returncode, "stdout": stdout, "stderr": run.stderr} == expected


def test_golden_covers_every_command_and_failure():
    commands = {c["argv"][0] for c in _GOLDEN}
    assert commands == {
        "solve-agent", "solve-multiplatform-agent", "solve-designer", "solve-multi-agent",
        "best-response", "dynamics", "nash", "gen", "verify",
    }
    assert {c["exit"] for c in _GOLDEN} == {0, 2}
    assert sum(c["name"].startswith("malformed") for c in _GOLDEN) == 5
