import json
import sys
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import MIXED, make_example
from pdp import agent, cli, core, designer, multiagent, multiplatform
from pdp.cli import main, parse_instance, parse_pair, parse_rat, serialize_instance
from pdp.core import FlowerInstance, GeneralChain, agent_utility, derived_params
from pdp import game
from pdp.designer import DesignSet
from pdp.game import GameInstance
from pdp.instances import (
    gen_no_nash_game,
    gen_random_flower,
    gen_random_multi_agent,
    gen_setcover_instance,
)
from pdp.multiagent import (
    CompetitiveInstance,
    ExternalPlatform,
    build_competitive_instance,
)


def write_doc(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_rat_rejects_inexact():
    assert parse_rat("3/7", "$") == F(3, 7)
    assert parse_rat(5, "$") == 5
    for bad in (0.5, True, "3/0", "x"):
        with pytest.raises(ValueError):
            parse_rat(bad, "$")


# Strings on and off the ASCII fast path: each must parse to what
# Fraction(str) gives, or fail with its message under the JSON path.
_RATIONAL_EDGES = (
    "1/0", "0/0", "-5/0", "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000, " 1/2", "1/2\n",
    "+1/2", "1_0/3", "1/-2", "\u0663/4", "-0/5", "007/010", "-3", "1.5", "1e3", "", "1/", "/2",
    "--1", "3/7",
)


@pytest.mark.parametrize("text", _RATIONAL_EDGES, ids=lambda t: repr(t[:12]))
def test_parse_rat_matches_fraction(text):
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(cli.ParseError) as info:
            parse_rat(text, "p[0]")
        assert str(info.value) == f"p[0]: {exc}"
    else:
        got = parse_rat(text, "p[0]")
        assert type(got) is F and got == expected


@pytest.mark.parametrize("value", (True, False, 1.5, 1e3))
def test_parse_rat_rejects_booleans_and_floats(value):
    with pytest.raises(cli.ParseError) as info:
        parse_rat(value, "p[0]")
    assert str(info.value) == f"p[0]: expected an exact rational, got {value!r}"


@pytest.mark.parametrize(
    "value",
    (*_RATIONAL_EDGES, "12/8", "-6/4", "0/7", 5, -3, True, False, 1.5, 1e3, None),
    ids=lambda v: repr(v)[:12],
)
def test_parse_pair_matches_parse_rat(value):
    # The pair reader gives parse_rat's value as a lowest-terms pair, or
    # its ParseError with the same text.
    try:
        expected = parse_rat(value, "p[0]")
    except cli.ParseError as exc:
        with pytest.raises(cli.ParseError) as info:
            parse_pair(value, "p[0]")
        assert str(info.value) == str(exc)
    else:
        assert parse_pair(value, "p[0]") == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("ranges", (None, MIXED), ids=("greedy", "signed"))
def test_solve_agent_builds_no_fraction_views(tmp_path, monkeypatch, capsys, ranges):
    # solve-agent reads the instance's pairs and the integer image only:
    # no Fraction vector of the instance and no Fraction field of its
    # DerivedParams is built.
    parsed = []

    def parse(doc):
        parsed.append(parse_instance(doc))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_instance", parse)
    # A fine z grid leaves room for negative z at 200 petals.
    doc = serialize_instance(gen_random_flower(200, seed=23, ranges=ranges, delta=F(1, 10**5)))
    assert main(["solve-agent", write_doc(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["solver"] == ("greedy-signed" if ranges else "greedy")
    (inst,) = parsed
    dp = inst.params
    assert "image" in dp.__dict__
    assert not {"p", "q", "y", "c_life", "c_platform", "d", "cost"} & inst.__dict__.keys()
    assert not {"lam", "w", "z", "phi", "A", "B"} & dp.__dict__.keys()
    assert roundtrip(inst) == inst and serialize_instance(roundtrip(inst)) == doc


def roundtrip(obj):
    return parse_instance(json.loads(json.dumps(serialize_instance(obj))))


def test_roundtrip_flower(example):
    assert roundtrip(example) == example


@pytest.fixture
def example():
    return make_example()


def test_roundtrip_multi_agent():
    mi = gen_random_multi_agent(3, 2, seed=1)
    assert roundtrip(mi) == mi


def test_roundtrip_competitive():
    mi = gen_random_multi_agent(2, 2, seed=2)
    ci = build_competitive_instance(
        mi, [ExternalPlatform("x0", 1, (F(1), F(1)), (F(1, 2), F(1, 4)))]
    )
    back = roundtrip(ci)
    assert isinstance(back, CompetitiveInstance)
    assert back.mi == ci.mi
    assert [(p.state, p.z, p.phi) for p in back.externals] == [
        (p.state, p.z, p.phi) for p in ci.externals
    ]


def test_roundtrip_game():
    g = gen_no_nash_game()
    back = roundtrip(g)
    assert isinstance(back, GameInstance)
    assert back.designers == g.designers
    assert back.chassis == g.chassis


def test_roundtrip_general_chain():
    sc = gen_setcover_instance([1, 2], [{1, 2}], k=2)
    chain = sc.chain_for(frozenset({0}), (0, 0))
    back = roundtrip(chain)
    assert isinstance(back, GeneralChain)
    assert back == chain


def test_rationals_name_the_first_bad_value():
    # Paths are formatted only for a value that fails; the message names
    # the first bad value of the list, as parse_rat does on its own.
    flower = serialize_instance(make_example())
    for values, index in ((["x", "1/0"], 0), (["1/2", "1/0"], 1), (["1/2", 0.5], 1)):
        doc = dict(flower, d=values)
        with pytest.raises(cli.ParseError) as info:
            parse_instance(doc)
        with pytest.raises(cli.ParseError) as alone:
            parse_rat(values[index], f"d[{index}]")
        assert str(info.value) == str(alone.value)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["1/2", "1/2"], ["1/3", "x"]], "rows[1][1]: Invalid literal for Fraction: 'x'"),
        ([["0", "1", "0"], ["1/2", "0", "1/0"], ["1", "0", "0"]], "rows[1][2]: Fraction(1, 0)"),
        (
            [["0", "1", "0"], ["1", "0", "0"], ["0", "1/2", 0.5]],
            "rows[2][2]: expected an exact rational, got 0.5",
        ),
    ],
    ids=["text", "zero-denominator", "float"],
)
def test_general_chain_rows_name_the_bad_value(tmp_path, capsys, rows, message):
    # Each row is parsed under its own path, and a value's path is
    # formatted only after it fails, wherever the value sits.
    doc = {"version": 1, "kind": "general-chain", "rows": rows}
    assert main(["verify", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_schema_errors_exit_2(tmp_path, capsys):
    bad_p = serialize_instance(make_example())
    bad_p["p"] = ["1/2", "1/3"]
    assert main(["solve-agent", write_doc(tmp_path, bad_p)]) == 2
    assert "error:" in capsys.readouterr().err

    bad_rat = serialize_instance(make_example())
    bad_rat["q"][0] = "3/0"
    assert main(["solve-agent", write_doc(tmp_path, bad_rat)]) == 2

    assert main(["solve-agent", write_doc(tmp_path, {"version": 1, "kind": "nope"})]) == 2
    assert main(["solve-agent", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    # A non-object entry, a non-list row, a non-integer start, a boolean
    # where an integer belongs or a nonpositive candidate z is named by
    # its JSON path.
    flower = serialize_instance(make_example())
    mi = gen_random_multi_agent(2, 2, seed=2)
    competitive = serialize_instance(
        build_competitive_instance(mi, [ExternalPlatform("x0", 1, (F(1), F(1)), (F(1, 2), F(1, 4)))])
    )
    two_externals = serialize_instance(
        build_competitive_instance(
            mi,
            [
                ExternalPlatform("dup", 1, (F(1), F(1)), (F(7, 2), F(9, 4))),
                ExternalPlatform("x1", 2, (F(1), F(1)), (F(7, 2), F(9, 4))),
            ],
        )
    )
    multi = serialize_instance(mi)
    game = serialize_instance(gen_no_nash_game())
    chain = serialize_instance(gen_setcover_instance([1, 2], [{1, 2}], k=2).chain_for(frozenset({0}), (0, 0)))
    cases = [
        ("solve-multi-agent", multi, ("agents", 0), 1, "agents[0]"),
        ("solve-multi-agent", competitive, ("platforms", 0), 1, "platforms[0]"),
        ("nash", game, ("designers", 0), 1, "designers[0]"),
        ("nash", game, ("designers", 1, "candidates", 0), "x", "designers[1].candidates[0]"),
        ("verify", chain, ("rows", 0), 1, "rows[0]"),
        ("verify", chain, ("start",), "0", "start"),
        ("solve-agent", flower, ("states",), True, "states"),
        ("solve-agent", flower, ("version",), True, "version"),
        ("solve-multi-agent", competitive, ("platforms", 0, "state"), True, "platforms[0].state"),
        # Two externals named "dup": selections and curves tell platforms apart by id.
        ("solve-multiplatform-agent", two_externals, ("platforms", 1, "id"), "dup", "platforms"),
        (
            "nash",
            game,
            ("designers", 0, "candidates", 1, "state"),
            True,
            "designers[0].candidates[1].state",
        ),
        ("nash", game, ("designers", 0, "candidates", 0, "z", 0), "-1", "designers"),
        ("solve-agent", flower, ("p", 1), 0.5, "p[1]"),
        ("solve-multi-agent", multi, ("agents", 1, "q", 0), "1/0", "agents[1].q[0]"),
    ]
    for command, doc, keys, value, path in cases:
        doc = json.loads(json.dumps(doc))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        assert main([command, write_doc(tmp_path, doc)]) == 2, path
        assert capsys.readouterr().err.startswith(f"error: {path}:"), path

    path = write_doc(tmp_path, game)
    assert main(["best-response", path, "--designer", "1", "--profile", "[[true],[]]"]) == 2
    assert capsys.readouterr().err.startswith("error: --profile[0]:")

    # A quantization block that is not an object is not read as absent.
    for value in (0, "", []):
        assert main(["solve-designer", write_doc(tmp_path, {**flower, "quantization": value})]) == 2
        assert capsys.readouterr().err == "error: quantization: expected an object\n"


def test_solve_agent_output(tmp_path, capsys, example):
    path = write_doc(tmp_path, serialize_instance(example))
    assert main(["solve-agent", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["adopted"] == [1, 2]
    assert out["utility"] == "6/5"
    # The report is self-consistent: recomputing the utility from the
    # reported set gives the reported value.
    dp = derived_params(example)
    assert agent_utility(dp, set(out["adopted"])) == F(out["utility"])


def test_solve_designer_output(tmp_path, capsys, example):
    path = write_doc(tmp_path, serialize_instance(example))
    assert main(["solve-designer", path]) == 0
    approx = json.loads(capsys.readouterr().out)
    assert approx["solver"] == "designer-fptas"
    assert F(approx["profit"]) >= F(9, 10) * F(49, 10)

    assert main(["solve-designer", path, "--exact"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert exact["offered"] == [1]
    assert exact["profit"] == "49/10"


@pytest.mark.parametrize(
    "flags, quantization",
    [
        (["--epsilon", "0"], None),
        (["--delta", "0"], None),
        ([], {"delta": "0"}),
        ([], {"epsilon": "0"}),
        (["--epsilon", "1/0"], None),
    ],
)
def test_solve_designer_rejects_zero_quantization(tmp_path, capsys, example, flags, quantization):
    doc = serialize_instance(example)
    if quantization is not None:
        doc["quantization"] = quantization
    # The message names the flag or the JSON path the zero came from.
    path = flags[0] if flags else f"quantization.{next(iter(quantization))}"
    assert main(["solve-designer", write_doc(tmp_path, doc), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epsilon", "2", "epsilon = 2 must lie in (0, 1)"),
        ("--epsilon", "abc", "Invalid literal for Fraction: 'abc'"),
        ("--delta", "-1", "delta = -1 must be positive"),
        ("--delta", "1/0", "Fraction(1, 0)"),
    ],
    ids=["epsilon", "epsilon-text", "delta", "delta-text"],
)
@pytest.mark.parametrize("exact", [False, True], ids=["fptas", "exact"])
def test_solve_designer_checks_its_flags(tmp_path, capsys, example, flag, value, message, exact):
    # The steps are read before the solver is chosen, so the oracle,
    # which does not use them, rejects a bad one as the FPTAS does.
    path = write_doc(tmp_path, serialize_instance(example))
    assert main(["solve-designer", path, flag, value, *["--exact"] * exact]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [["solve-designer"], ["solve-designer", "--exact"], ["solve-agent"], ["verify"]],
    ids=["solve-designer", "exact", "solve-agent", "verify"],
)
@pytest.mark.parametrize(
    "quantization, message",
    [
        ({"epsilon": "abc"}, "quantization.epsilon: Invalid literal for Fraction: 'abc'"),
        ({"delta": "-1/2"}, "quantization.delta: delta = -1/2 must be positive"),
        ({"delta_prime": True}, None),
        ({"epsilon": "1"}, "quantization.epsilon: epsilon = 1 must lie in (0, 1)"),
    ],
    ids=["epsilon-text", "delta", "delta-prime", "epsilon"],
)
def test_flower_quantization_checked_by_every_command(tmp_path, capsys, argv, quantization, message):
    # parse_instance checks a flower's optional quantization block, so a
    # command that does not read it rejects it all the same.  A key that no
    # flower command reads (delta_prime) is ignored, as unknown keys are.
    doc = {**serialize_instance(make_example()), "quantization": quantization}
    if message is None:
        outputs = []
        for path in [write_doc(tmp_path, serialize_instance(make_example()), name="plain.json"),
                     write_doc(tmp_path, doc)]:
            assert main([argv[0], path, *argv[1:]]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append({**json.loads(captured.out), "wall_clock_seconds": None})
        assert outputs[0] == outputs[1]
        return
    assert main([argv[0], write_doc(tmp_path, doc), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _flower_doc(inst, **fields):
    return {**serialize_instance(inst), **fields}


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        # `pdp gen --kind random-flower`, whose z[1] = 3 is no multiple of 7.
        (_flower_doc(gen_random_flower(4, seed=0)), ["--delta", "7"], "--delta: z[1] = 3 is not"),
        (
            _flower_doc(gen_random_flower(4, seed=0), quantization={"delta": "7"}),
            [],
            "quantization.delta: z[1] = 3 is not",
        ),
        # A negative-z state survives preprocessing; delta is the gcd of z.
        (
            _flower_doc(
                gen_random_flower(12, seed=0, ranges={"allow_negative_z": True}, delta=F(1, 16))
            ),
            [],
            "$: z[5] = -1/16 is not",
        ),
        (
            _flower_doc(make_example(), d=["0", "0"]),
            [],
            "$: no state has a feasible, profitable singleton",
        ),
        # Offered alone, state 1 brings revenue 5 and state 2 revenue 1/2:
        # these costs leave state 1 a profit K of 10^-6 and state 2 none.
        (
            _flower_doc(make_example(), cost=["4999999/1000000", "3/2"]),
            [],
            "$: cost/K ratio 4999999 exceeds the ceiling 1000",
        ),
    ],
    ids=["flag-delta", "document-delta", "negative-z", "no-survivor", "cost-bound"],
)
def test_solve_designer_preprocess_errors_name_their_source(tmp_path, capsys, doc, flags, message):
    assert main(["solve-designer", write_doc(tmp_path, doc), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "command, key",
    [
        ("solve-multi-agent", "delta"),
        ("solve-multi-agent", "delta_prime"),
        ("nash", "delta"),
        ("nash", "delta_prime"),
    ],
)
def test_multi_agent_and_game_reject_zero_quantization(tmp_path, capsys, command, key):
    inst = gen_random_multi_agent(2, 2, seed=3) if command == "solve-multi-agent" else gen_no_nash_game()
    doc = serialize_instance(inst)
    doc["quantization"][key] = "0"
    assert main([command, write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: quantization.{key}: {key} = 0 must be positive")


def test_solve_multi_agent_output(tmp_path, capsys):
    mi = gen_random_multi_agent(2, 2, seed=3)
    path = write_doc(tmp_path, serialize_instance(mi))
    assert main(["solve-multi-agent", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solver"] == "multi-agent-dp"
    from pdp.multiagent import multi_agent_profit

    assert multi_agent_profit(mi, set(out["offered"])) == F(out["profit"])


def test_solve_multi_agent_two_agent_partition(tmp_path, capsys):
    # 15 states: the threshold DP skips every (theta, D) option without a
    # consistent slot key, so this runs in well under a second.
    assert main(["gen", "--kind", "two-agent-partition", "--a", "1,2,3,4,5,6,7"]) == 0
    path = tmp_path / "partition.json"
    path.write_text(capsys.readouterr().out)
    assert main(["solve-multi-agent", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["offered"] == [1, 2, 4, 7, 8, 9, 10, 15]
    assert out["profit"] == "43749999907/11625000000"


@pytest.mark.parametrize("command", ["nash", "verify"])
@pytest.mark.parametrize("designers", [[], None, "absent"])
def test_game_rejects_no_designers(tmp_path, capsys, command, designers):
    doc = serialize_instance(gen_no_nash_game())
    if designers == "absent":
        del doc["designers"]
    else:
        doc["designers"] = designers
    assert main([command, write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: designers: expected a nonempty list\n"


def test_game_commands(tmp_path, capsys):
    path = write_doc(tmp_path, serialize_instance(gen_no_nash_game()))

    assert main(["nash", path]) == 0
    assert json.loads(capsys.readouterr().out)["nash"] is None

    assert main(["dynamics", path, "--init", "[[],[]]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "cycle"
    assert out["period"] == 2
    assert out["cycle"] == [[[1], [3]], [[3], []]]

    assert main(["best-response", path, "--designer", "2", "--profile", "[[1],[]]"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["built"] == [3]
    assert out["profit"] == "799999/1000"

    assert main(["best-response", path, "--designer", "9", "--profile", "[[],[]]"]) == 2
    capsys.readouterr()


def test_dynamics_rejects_negative_max_rounds(tmp_path, capsys):
    path = write_doc(tmp_path, serialize_instance(gen_no_nash_game()))
    assert main(["dynamics", path, "--init", "[[],[]]", "--max-rounds", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-rounds: expected a nonnegative integer\n"

    # Zero rounds is a valid budget: the dynamics stop before any move.
    assert main(["dynamics", path, "--init", "[[],[]]", "--max-rounds", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "budget"
    assert out["trace"] == [[[], []]]


@pytest.mark.parametrize(
    "inst",
    [
        make_example(),
        # Mixed signs: states 4, 7 and 8 survive preprocessing, and the
        # oracle's best set holds a negative-z state.
        gen_random_flower(12, seed=2, ranges={"allow_negative_z": True}, delta=F(1, 16)),
    ],
    ids=["example", "mixed-sign"],
)
def test_verify_flower(tmp_path, capsys, inst):
    path = write_doc(tmp_path, serialize_instance(inst))
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["match"] is True
    assert designer_check["check"] == "designer fptas vs oracle"
    assert "skipped" not in designer_check and designer_check["match"] is True


def test_verify_flower_skips_unquantizable_fptas(tmp_path, capsys):
    # State 5 has z = -1/16 and survives preprocessing, so the FPTAS does
    # not apply; the agent check still runs.
    inst = gen_random_flower(12, seed=0, ranges={"allow_negative_z": True}, delta=F(1, 16))
    assert main(["verify", write_doc(tmp_path, serialize_instance(inst))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["match"] is True
    assert designer_check == {
        "check": "designer fptas vs oracle",
        "skipped": "z[5] = -1/16 is not a positive integer multiple of 1/16",
    }


def test_verify_flower_skips_fptas_past_cost_bound(tmp_path, capsys):
    # The cost-bound document of the solve-designer test above: preprocess
    # raises CostBoundError after the agent check has run.
    doc = _flower_doc(make_example(), cost=["4999999/1000000", "3/2"])
    assert main(["verify", write_doc(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["check"] == "agent greedy vs oracle" and agent_check["match"] is True
    assert designer_check == {
        "check": "designer fptas vs oracle",
        "skipped": "cost/K ratio 4999999 exceeds the ceiling 1000",
    }


def test_verify_flower_skips_checks_past_their_guards(tmp_path, capsys, monkeypatch):
    # Each oracle past its guard skips its own check; the other still runs.
    path = write_doc(tmp_path, serialize_instance(make_example()))
    monkeypatch.setattr(agent, "_ORACLE_STATES", 1)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check == {
        "check": "agent greedy vs oracle",
        "skipped": "n = 2 exceeds the enumeration guard 1",
    }
    assert designer_check["match"] is True
    monkeypatch.undo()
    monkeypatch.setattr(designer, "_ORACLE_VISITS", 1)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["match"] is True
    assert designer_check == {
        "check": "designer fptas vs oracle",
        "skipped": "the search visits more than 1 offered sets",
    }


def test_verify_flower_runs_agent_check_past_25_states(tmp_path, capsys):
    # The agent oracle's guard is 28 states, so verify still runs it here.
    path = write_doc(tmp_path, serialize_instance(gen_random_flower(26, seed=1)))
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    agent_check = out["checks"][0]
    assert agent_check["check"] == "agent greedy vs oracle"
    assert "skipped" not in agent_check and agent_check["match"] is True


def test_solve_designer_exact_past_24_states(tmp_path, capsys):
    # The oracle's budget counts the sets it visits, not 2^n.
    assert main(["gen", "--kind", "random-flower", "--n", "24", "--seed", "1"]) == 0
    path = write_doc(tmp_path, json.loads(capsys.readouterr().out))
    assert main(["solve-designer", path, "--exact"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["offered"] == [9, 12, 24] and out["profit"] == "8126828/669745"


@pytest.mark.parametrize("owner", ["external", "own"])
def test_external_owner_label_is_only_a_label(tmp_path, capsys, owner):
    # An external platform labelled "own" still earns the designer nothing.
    mi = gen_random_multi_agent(2, 2, seed=2)
    external = ExternalPlatform("x0", 1, (F(1), F(1)), (F(7, 2), F(9, 4)), owner=owner)
    path = write_doc(tmp_path, serialize_instance(build_competitive_instance(mi, [external])))
    assert main(["solve-multi-agent", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["offered"], out["profit"]) == ([2], "10151/1564")
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_flower_derives_its_params_once(tmp_path, capsys, monkeypatch):
    # Both checks read the derived and scaled parameters kept on the
    # parsed flower, so one verify computes each of them once.
    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "pdp"]
    for name in ("derived_params", "scaled_params"):
        real = getattr(core, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        # Wherever the package looks the function up.
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    assert main(["verify", write_doc(tmp_path, serialize_instance(make_example()))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [check["match"] for check in out["checks"]] == [True, True]
    assert calls == {"derived_params": 1, "scaled_params": 1}


def test_verify_general_chain(tmp_path, capsys, monkeypatch):
    assert main(["gen", "--kind", "set-cover"]) == 0
    path = tmp_path / "chain.json"
    path.write_text(capsys.readouterr().out)
    assert main(["verify", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    (check,) = out["checks"]
    assert check["check"] == "steady state is stationary" and check["match"] is True
    assert sum(F(v) for v in check["pi"]) == 1
    # Two closed classes reachable from the start: no unique steady state.
    rows = [[0, "1/2", "1/2"], [0, 1, 0], [0, 0, 1]]
    split = {"version": 1, "kind": "general-chain", "rows": rows}
    assert main(["verify", write_doc(tmp_path, split)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checks"] == [
        {
            "check": "steady state is stationary",
            "skipped": "reachable part has 2 closed classes, need exactly 1",
        }
    ]
    # A distribution that sums to 1 but is not stationary fails the check.
    def point_mass(chain):
        return (F(1),) + (F(0),) * (chain.size - 1)

    monkeypatch.setattr(cli, "steady_state_general", point_mass)
    assert main(["verify", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["checks"][0]["match"] is False


def test_verify_multi_agent(tmp_path, capsys):
    mi = gen_random_multi_agent(2, 2, seed=4)
    path = write_doc(tmp_path, serialize_instance(mi))
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_competitive(tmp_path, capsys, monkeypatch):
    mi = gen_random_multi_agent(3, 2, seed=5)
    ci = build_competitive_instance(
        mi,
        [
            ExternalPlatform("x0", 2, (F(1), F(1)), (F(1, 2), F(3, 4))),
            ExternalPlatform("x1", 2, (F(2), F(1)), (F(5, 2), F(1, 4))),
            ExternalPlatform("x2", 3, (F(1), F(2)), (F(3), F(2))),
        ],
    )
    path = write_doc(tmp_path, serialize_instance(ci))
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    dp_check, *agent_checks = out["checks"]
    assert dp_check["check"] == "competitive dp vs brute force" and dp_check["match"] is True
    assert [c["check"] for c in agent_checks] == [
        "agent 1 multiplatform greedy vs oracle",
        "agent 2 multiplatform greedy vs oracle",
    ]
    # Each agent check reports what solve-multiplatform-agent prints.
    for i, check in enumerate(agent_checks, start=1):
        assert check["match"] is True and check["locally_optimal"] is True
        assert main(["solve-multiplatform-agent", path, "--agent", str(i)]) == 0
        assert json.loads(capsys.readouterr().out)["utility"] == check["solver"] == check["oracle"]

    # A selection that is not optimal fails both comparisons.
    empty = multiplatform.SelectionResult((), F(0))
    monkeypatch.setattr(multiplatform, "multi_greedy_solve", lambda curves, A, B: empty)
    assert main(["verify", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert all(c["match"] is False for c in out["checks"][1:])
    monkeypatch.undo()

    # Past the oracle's guard the agent checks are skipped.
    monkeypatch.setattr(multiplatform, "_ORACLE_SELECTIONS", 1)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert [c.get("skipped") for c in out["checks"][1:]] == ["6 selections exceed the guard 1"] * 2


@pytest.mark.parametrize("designers", [2, 1])
def test_verify_game(tmp_path, capsys, monkeypatch, designers):
    # Two designers: the no-nash fixture, so only the best responses are
    # checked.  One designer: its optimum is a Nash profile to re-check.
    doc = serialize_instance(gen_no_nash_game())
    doc["designers"] = doc["designers"][:designers]
    path = write_doc(tmp_path, doc)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    responses, nash = out["checks"][:-1], out["checks"][-1]
    assert len(responses) == designers
    assert all(c["match"] and c["solver"] == c["oracle"] for c in responses)
    if designers == 2:
        assert nash == {"check": "pure nash vs definition", "skipped": "no pure Nash profile"}
    else:
        assert nash["match"] is True and nash["nash"] == [[1]]
    # A wrong best response fails its check.
    real = game.best_response
    monkeypatch.setattr(
        game, "best_response", lambda *a: DesignSet(frozenset(), real(*a).profit - 1)
    )
    assert main(["verify", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert [c["match"] for c in out["checks"][:designers]] == [False] * designers


def test_verify_skips_brute_forces_past_their_budget(tmp_path, capsys, monkeypatch):
    # Each brute force counts the subsets it sweeps against one budget; past
    # it the check is skipped before its solver runs, and the others still run.
    def unused(obj):
        raise AssertionError("a skipped check ran its solver")

    mi = gen_random_multi_agent(2, 2, seed=4)
    external = ExternalPlatform("x0", 1, (F(1), F(1)), (F(7, 2), F(9, 4)))
    competitive = write_doc(tmp_path, serialize_instance(build_competitive_instance(mi, [external])))
    multi_agent = write_doc(tmp_path, serialize_instance(mi), "multi-agent.json")
    no_nash = write_doc(tmp_path, serialize_instance(gen_no_nash_game()), "game.json")
    monkeypatch.setattr(cli, "_BRUTE_FORCE_SUBSETS", 2)
    monkeypatch.setattr(multiagent, "multi_agent_solve", unused)
    monkeypatch.setattr(multiagent, "competitive_solve", unused)
    for path, name, agents in ((multi_agent, "multi-agent", 0), (competitive, "competitive", 2)):
        assert main(["verify", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        dp_check, *agent_checks = out["checks"]
        assert dp_check == {
            "check": f"{name} dp vs brute force",
            "skipped": "4 subsets exceed the guard 2",
        }
        assert [c["match"] for c in agent_checks] == [True] * agents
    # The no-nash game has 3 states and 2 designers: each best response
    # sweeps 8 subsets, and the Nash check sweeps them once per designer.
    monkeypatch.setattr(cli, "_BRUTE_FORCE_SUBSETS", 8)
    assert main(["verify", no_nash]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert [c.get("match") for c in out["checks"][:2]] == [True, True]
    assert out["checks"][2] == {
        "check": "pure nash vs definition",
        "skipped": "16 subsets exceed the guard 8",
    }
    monkeypatch.setattr(cli, "_BRUTE_FORCE_SUBSETS", 4)
    assert main(["verify", no_nash]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c.get("skipped") for c in out["checks"]] == [
        "8 subsets exceed the guard 4",
        "8 subsets exceed the guard 4",
        "16 subsets exceed the guard 4",
    ]


_FLOWER_KEYS = ["version", "kind", "states", "p", "q", "y", "c_life", "c_platform", "d", "cost"]
_COMPARED = ["check", "solver", "oracle", "match"]
_LOCAL = ["check", "solver", "oracle", "locally_optimal", "match"]
# argv (document names stand for their files), exit code, the output's
# keys (None: no output) and, for verify, each check record's keys.
_OUTPUT_KEYS = [
    (
        ["solve-agent", "flower"],
        0,
        ["solver", "adopted", "utility", "utility_decimal", "trace", "wall_clock_seconds"],
        None,
    ),
    (
        ["solve-multiplatform-agent", "competitive", "--agent", "2"],
        0,
        ["solver", "selected", "utility", "utility_decimal", "wall_clock_seconds"],
        None,
    ),
    (
        ["solve-designer", "flower"],
        0,
        ["solver", "offered", "profit", "profit_decimal", "bins", "wall_clock_seconds"],
        None,
    ),
    (
        ["solve-designer", "flower", "--exact"],
        0,
        ["solver", "offered", "profit", "profit_decimal", "wall_clock_seconds"],
        None,
    ),
    (
        ["solve-multi-agent", "competitive"],
        0,
        ["solver", "offered", "profit", "profit_decimal", "wall_clock_seconds"],
        None,
    ),
    (
        ["best-response", "game", "--designer", "1", "--profile", "[[],[3]]"],
        0,
        ["solver", "designer", "built", "profit", "profit_decimal", "wall_clock_seconds"],
        None,
    ),
    (
        ["dynamics", "game", "--init", "[[],[]]"],
        0,
        ["solver", "outcome", "profile", "cycle", "period", "trace", "wall_clock_seconds"],
        None,
    ),
    (["nash", "game"], 0, ["solver", "nash", "wall_clock_seconds"], None),
    (
        ["verify", "flower"],
        0,
        ["solver", "checks", "ok", "wall_clock_seconds"],
        [_COMPARED, _COMPARED],
    ),
    (
        ["verify", "competitive"],
        0,
        ["solver", "checks", "ok", "wall_clock_seconds"],
        [_COMPARED, _LOCAL, _LOCAL],
    ),
    (
        ["verify", "game"],
        0,
        ["solver", "checks", "ok", "wall_clock_seconds"],
        [_COMPARED, _COMPARED, ["check", "skipped"]],
    ),
    (
        ["verify", "chain"],
        0,
        ["solver", "checks", "ok", "wall_clock_seconds"],
        [["check", "pi", "match"]],
    ),
    (["nash", "flower"], 2, None, None),
    (["gen", "--kind", "random-flower"], 0, _FLOWER_KEYS, None),
    (["gen", "--kind", "partition"], 0, _FLOWER_KEYS + ["partition"], None),
    (
        ["gen", "--kind", "two-agent-partition"],
        0,
        ["version", "kind", "states", "cost", "agents", "quantization", "partition"],
        None,
    ),
    (["gen", "--kind", "set-cover"], 0, ["version", "kind", "rows", "start", "setcover"], None),
    (
        ["gen", "--kind", "no-nash"],
        0,
        ["version", "kind", "states", "agents", "designers", "quantization"],
        None,
    ),
]


@pytest.mark.parametrize(
    "argv, code, keys, check_keys", _OUTPUT_KEYS, ids=[" ".join(row[0]) for row in _OUTPUT_KEYS]
)
def test_output_keys_in_order(tmp_path, capsys, argv, code, keys, check_keys):
    # Results end with wall_clock_seconds; generated documents carry none.
    mi = gen_random_multi_agent(2, 2, seed=2)
    external = ExternalPlatform("x0", 1, (F(1), F(1)), (F(7, 2), F(9, 4)))
    docs = {
        "flower": serialize_instance(make_example()),
        "competitive": serialize_instance(build_competitive_instance(mi, [external])),
        "game": serialize_instance(gen_no_nash_game()),
        "chain": {"version": 1, "kind": "general-chain", "rows": [["1/2", "1/2"], [1, 0]]},
    }
    argv = [write_doc(tmp_path, docs[a], f"{a}.json") if a in docs else a for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    if keys is None:
        assert captured.out == "" and captured.err.startswith("error: ")
        return
    out = json.loads(captured.out)
    assert list(out) == keys
    if check_keys is not None:
        assert [list(check) for check in out["checks"]] == check_keys


@pytest.mark.parametrize(
    "kind, a, message",
    [
        ("partition", "0", "need a nonempty multiset of positive integers"),
        ("two-agent-partition", "0", "need a nonempty multiset of positive integers"),
        (
            "two-agent-partition",
            "1,2,3,4,5,6,7,8,9",
            "agent 1, state 1: quantization level exceeds 1000000000000",
        ),
    ],
)
def test_gen_errors_name_their_flag(capsys, kind, a, message):
    assert main(["gen", "--kind", kind, "--a", a]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --a: {message}\n"


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gen_random_flower_names_n(capsys, n):
    assert main(["gen", "--kind", "random-flower", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n: ranges leave no valid instance\n"


def test_gen_determinism(capsys):
    assert main(["gen", "--kind", "random-flower", "--seed", "5", "--n", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "random-flower", "--seed", "5", "--n", "3"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(json.loads(first))
    assert isinstance(inst, FlowerInstance)


def test_gen_partition_metadata(capsys):
    assert main(["gen", "--kind", "partition", "--a", "1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["partition"]["v_star"] == "205/24"
    assert parse_instance(doc).n == 5


def test_gen_setcover_metadata(capsys):
    args = ["gen", "--kind", "set-cover", "--universe", "1,2", "--families", "1,2", "--k", "2"]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "general-chain"
    assert doc["setcover"]["k"] == 2
    assert isinstance(parse_instance(doc), GeneralChain)


def test_gen_no_nash(capsys):
    assert main(["gen", "--kind", "no-nash"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(parse_instance(doc), GameInstance)
