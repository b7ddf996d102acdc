import argparse
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MIXED, make_example
import pdp
from pdp import agent, cli, core, designer, multiagent, multiplatform
from pdp.cli import main, parse_instance, parse_rat, serialize_instance
from pdp.core import FlowerInstance, GeneralChain, agent_utility, all_subsets, derived_params
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
    def parse_pair(value, path):
        return cli._read_pairs([value], lambda i: path)[0]

    try:
        expected = parse_rat(value, "p[0]")
    except cli.ParseError as exc:
        with pytest.raises(cli.ParseError) as info:
            parse_pair(value, "p[0]")
        assert str(info.value) == str(exc)
    else:
        assert parse_pair(value, "p[0]") == (expected.numerator, expected.denominator)


# Reference: the per-value list reader the one-pass list reader replaced.
# Each value goes through Fraction(value) alone, and on a failure the list
# is walked again so that the failing value is named `path[i]`.
def _per_value_pair(value, path):
    if isinstance(value, bool) or isinstance(value, float):
        raise cli.ParseError(f"{path}: expected an exact rational, got {value!r}")
    try:
        value = F(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise cli.ParseError(f"{path}: {exc}") from None
    return value.numerator, value.denominator


def _per_value_rat(value, path):
    return F(*_per_value_pair(value, path))


def _per_value_parse_rats(values, path, parse):
    try:
        return tuple(parse(v, path) for v in values)
    except cli.ParseError:
        for i, v in enumerate(values):
            parse(v, f"{path}[{i}]")
        raise


def _read_list(values, path):
    return cli._read_pairs(values, lambda i: f"{path}[{i}]")


def _read_per_agent(values, path):
    return cli._PER_AGENT.read(values, path, 0, len(values))


def _assert_list_readers_match(values):
    # The pair and the Fraction list readers give the reference's tuple, or
    # its ParseError with the same text, naming the same `[i]`.
    for read, parse in ((_read_list, _per_value_pair), (_read_per_agent, _per_value_rat)):
        try:
            expected = _per_value_parse_rats(values, "agents[1].q", parse)
        except cli.ParseError as exc:
            with pytest.raises(cli.ParseError) as info:
                read(values, "agents[1].q")
            assert str(info.value) == str(exc)
        else:
            got = read(values, "agents[1].q")
            assert got == expected
            assert [type(v) for v in got] == [type(v) for v in expected]


_VALID_LIST = ["1/2", "-3", "0", "7/10", "12/8", "-6/4", "5"]
_LIST_EDGES = (
    *_RATIONAL_EDGES, "1,2", "1/2,3", "1/2/3", "1/00", "0/0", "-0/5", "1 /2", "1/ 2", "- 1",
    "0/07", "-0", 5, True, 1.5, None, [1],
)


@pytest.mark.parametrize("at", (0, 3, 6), ids=("first", "middle", "last"))
@pytest.mark.parametrize("value", _LIST_EDGES, ids=lambda v: repr(v)[:12])
def test_list_reader_matches_per_value_reader(value, at):
    values = list(_VALID_LIST)
    values[at] = value
    _assert_list_readers_match(values)


def test_list_reader_matches_per_value_reader_on_whole_lists():
    _assert_list_readers_match(_VALID_LIST)
    _assert_list_readers_match([])
    _assert_list_readers_match(["1,2", "3"])  # joins into a valid-looking "1,2,3"
    _assert_list_readers_match([1, 2, "3/4"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(), max_size=12))
def test_list_reader_matches_per_value_reader_on_fractions(fractions):
    _assert_list_readers_match([str(v) for v in fractions])


def test_documents_take_the_one_pass_reader(tmp_path, monkeypatch, capsys):
    # Every value of a document pdp writes is read by the one-pass reader:
    # with the per-value fallback made to fail, every command still succeeds,
    # and every rational field of every kind has been read.
    def fallback(value, path):
        raise AssertionError(f"{path}: {value!r} went to the per-value reader")

    read = set()
    real = cli._read_pairs

    def reading(values, name):
        read.add(re.sub(r"\[[0-9]+\]", "[]", name(0)))  # the field, indices dropped
        return real(values, name)

    monkeypatch.setattr(cli, "_fraction_pair", fallback)
    monkeypatch.setattr(cli, "_read_pairs", reading)
    chain = gen_setcover_instance([1, 2], [{1, 2}], k=2).chain_for(frozenset({0}), (0, 0))
    for command, obj in (
        ("solve-agent", gen_random_flower(200, seed=23)),
        ("solve-multi-agent", gen_random_multi_agent(4, 3, seed=5)),
        ("solve-multi-agent", _competitive_example()),
        ("nash", gen_no_nash_game()),
        ("verify", chain),
    ):
        assert main([command, write_doc(tmp_path, serialize_instance(obj))]) == 0
    capsys.readouterr()
    petals = {"p", "q", "y", "c_life", "c_platform", "d", "cost"}
    assert read == {
        *(f"{key}[]" for key in petals),
        *(f"agents[].{key}[]" for key in petals),  # a game's chassis has its own cost
        "quantization.delta",
        "quantization.delta_prime",
        "platforms[].z[]",
        "platforms[].phi[]",
        *(f"designers[].candidates[].{key}[]" for key in ("z", "phi", "d")),
        "designers[].candidates[].cost",
        "rows[][]",
    }


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


def test_serialize_refuses_other_objects():
    with pytest.raises(TypeError) as info:
        serialize_instance(object())
    assert str(info.value) == "cannot serialize object"


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
        ("verify", chain, ("start",), 5, "start"),
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
        ("nash", game, ("designers", 0, "candidates", 0, "z", 0), "-1", "designers[0]"),
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


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 200000 + b"]" * 200000,
        b'{"version": 1, "kind": "\xff\xfe"}',
        b'{"version": ' + b"1" * 5000 + b"}",
    ],
    ids=["nested-too-deep", "not-utf8", "too-many-digits"],
)
def test_unreadable_documents_exit_2(tmp_path, capsys, content):
    # Each fails inside json.load, as a RecursionError or a ValueError that
    # is not a JSONDecodeError; the message names the file.
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text",
    ["[" * 5000 + "]" * 5000, "[[" + "1" * 5000 + "],[]]"],
    ids=["nested-too-deep", "too-many-digits"],
)
def test_unreadable_profiles_exit_2(tmp_path, capsys, text):
    # Each fails inside json.loads, as a RecursionError or a ValueError that
    # is not a JSONDecodeError; the message names the flag.
    path = write_doc(tmp_path, serialize_instance(gen_no_nash_game()))
    for argv, flag in (
        (["best-response", path, "--designer", "1", "--profile", text], "--profile"),
        (["dynamics", path, "--init", text], "--init"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: "), captured.err
        assert "Traceback" not in captured.err


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


@pytest.mark.parametrize(
    "command, field, key",
    [("solve-designer", "d", "profit"), ("solve-agent", "c_platform", "utility")],
)
def test_decimal_is_null_outside_the_float_range(tmp_path, capsys, example, command, field, key):
    # A reward of 10^400 at state 1 takes the exact result past the float
    # range: its decimal is null, and the exact value, the keys' order and
    # the exit code are those of any other result.
    doc = serialize_instance(example)
    assert main([command, write_doc(tmp_path, doc)]) == 0
    keys = list(json.loads(capsys.readouterr().out))
    doc[field] = [str(10**400), doc[field][1]]
    assert main([command, write_doc(tmp_path, doc, "big.json")]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert captured.err == "" and list(out) == keys
    assert 10**399 < F(out[key]) < 10**400 and out[f"{key}_decimal"] is None


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


# A flower whose state 5, of z = -1/16, survives preprocessing.
_MIXED_FLOWER = gen_random_flower(12, seed=0, ranges={"allow_negative_z": True}, delta=F(1, 16))
_NEGATIVE_Z = "z[5] = -1/16 is negative; the FPTAS needs every surviving z positive"


@pytest.mark.parametrize(
    "doc, flags, message",
    [
        # `pdp gen --kind random-flower`, whose z[1] = 3 is no multiple of 7.
        (
            _flower_doc(gen_random_flower(4, seed=0)),
            ["--delta", "7"],
            "--delta: z[1] = 3 is not a positive integer multiple of 7",
        ),
        (
            _flower_doc(gen_random_flower(4, seed=0), quantization={"delta": "7"}),
            [],
            "quantization.delta: z[1] = 3 is not a positive integer multiple of 7",
        ),
        # A sign fault is the instance's, whatever delta is given: the
        # default (the gcd of z), the flag's or the document's.
        (_flower_doc(_MIXED_FLOWER), [], f"$: {_NEGATIVE_Z}"),
        (_flower_doc(_MIXED_FLOWER), ["--delta", "1/16"], f"$: {_NEGATIVE_Z}"),
        (
            _flower_doc(_MIXED_FLOWER, quantization={"delta": "1/16"}),
            [],
            f"$: {_NEGATIVE_Z}",
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
    ids=[
        "flag-delta",
        "document-delta",
        "negative-z",
        "negative-z-flag-delta",
        "negative-z-document-delta",
        "no-survivor",
        "cost-bound",
    ],
)
def test_solve_designer_preprocess_errors_name_their_source(tmp_path, capsys, doc, flags, message):
    assert main(["solve-designer", write_doc(tmp_path, doc), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def _candidate(doc, designer, index):
    return doc["designers"][designer]["candidates"][index]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _candidate(doc, 1, 1).update(cost="0"),
         "designers[1]: state 2: candidate cost must be positive"),
        (lambda doc: _candidate(doc, 0, 2).update(cost="-1"),
         "designers[0]: state 3: candidate cost must be positive"),
        (lambda doc: _candidate(doc, 1, 1).update(z=["0"]),
         "designers[1]: state 2: agent 1: z = 0 is not a positive multiple of 1"),
        (lambda doc: doc["designers"][1]["candidates"].pop(2),
         "designers[1]: state 3: needs one candidate, has 0"),
        (lambda doc: _candidate(doc, 1, 2).update(state=2),
         "designers[1]: state 2: needs one candidate, has 2"),
        (lambda doc: _candidate(doc, 1, 2).update(z=["1/2"]),
         "designers[1]: state 3: agent 1: z = 1/2 is not a positive multiple of 1"),
        (lambda doc: _candidate(doc, 1, 2).update(phi=["1/3"]),
         "designers[1]: state 3: agent 1: phi = 1/3 is not a nonnegative multiple of 50"),
        (lambda doc: _candidate(doc, 1, 2).update(phi=[str(50 * 10**13)]),
         "designers[1]: state 3: agent 1: quantization level exceeds 1000000000000"),
        # The schema reads one value per agent, so a wrong length stops there.
        (lambda doc: _candidate(doc, 1, 1).update(z=["1", "1"]),
         "designers[1].candidates[1].z: expected a list of 1 rationals"),
    ],
)
def test_game_errors_name_the_designer(tmp_path, capsys, edit, message):
    doc = serialize_instance(gen_no_nash_game())
    edit(doc)
    assert main(["nash", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_game_builder_errors_name_the_designer():
    # Faults the schema stops before the builder: a candidate's per-agent
    # lengths and a state outside 1..n.
    g = gen_no_nash_game()
    first, *rest = g.designers[1]
    faults = [
        (game.Candidate(first.state, first.z * 2, first.phi, first.d, first.cost),
         "designers[1]: state 1: candidate needs per-agent z, phi and d"),
        (game.Candidate(4, first.z, first.phi, first.d, first.cost),
         "designers[1]: state 1: needs one candidate, has 0"),
        (game.Candidate(0, first.z, first.phi, first.d, first.cost),
         "designers[1]: state 0: not a state of 1..3"),
    ]
    for cand, message in faults:
        designers = (g.designers[0], (cand, *rest))
        with pytest.raises(ValueError) as info:
            game.build_game_instance(g.chassis, designers, g.delta, g.delta_prime)
        assert str(info.value) == message


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
    assert main(["verify", write_doc(tmp_path, serialize_instance(_MIXED_FLOWER))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["match"] is True
    assert designer_check == {
        "check": "designer fptas vs oracle",
        "skipped": _NEGATIVE_Z,
    }


def test_verify_flower_skips_fptas_with_no_surviving_state(tmp_path, capsys):
    # Every d is 0, so no singleton earns: preprocess finds no survivor.
    doc = _flower_doc(make_example(), d=["0", "0"])
    assert main(["verify", write_doc(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["check"] == "agent greedy vs oracle" and agent_check["match"] is True
    assert designer_check == {"check": "designer fptas vs oracle", "skipped": "no surviving state"}


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


def test_fptas_past_its_budget(tmp_path, capsys, monkeypatch):
    # Past its bin budget the FPTAS raises TooLarge: solve-designer exits 2
    # and verify skips the FPTAS check after running the agent check.
    path = write_doc(tmp_path, serialize_instance(make_example()))
    monkeypatch.setattr(designer, "_FPTAS_BINS", 1)
    message = "the FPTAS table holds 2 bins, past the budget 1"
    assert main(["solve-designer", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    agent_check, designer_check = out["checks"]
    assert agent_check["match"] is True
    assert designer_check == {"check": "designer fptas vs oracle", "skipped": message}


GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def test_fptas_budget_ends_a_large_mixed_sign_flower(tmp_path, capsys):
    # The 200-petal mixed-sign flower that is operation 1 of the benchmark's
    # agent corpus at seed 32: its FPTAS table passes a million bins by
    # stage 90, so without the budget neither command returned.
    bench = {"__name__": "perfbench_gen"}
    exec(compile(GEN.read_text(encoding="utf-8"), str(GEN), "exec"), bench)
    doc = bench["operations"]("agent", 32, 1)[1]["doc"]
    assert doc["states"] == 200
    path = write_doc(tmp_path, doc)
    message = f"past the budget {designer._FPTAS_BINS}"
    assert main(["solve-designer", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"{message}\n")
    assert main(["verify", path]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [check["check"] for check in checks if "skipped" in check] == [
        "agent greedy vs oracle",
        "designer fptas vs oracle",
    ]
    assert checks[1]["skipped"].endswith(message)


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


def test_verify_general_chain_skips_past_its_guard(tmp_path, capsys, monkeypatch):
    # A chain of more states than core._CHAIN_STATES is not eliminated:
    # verify reports the stationarity check as skipped and exits 0.
    rows = [["1/2", "1/2", 0], [0, "1/2", "1/2"], ["1/2", 0, "1/2"]]
    path = write_doc(tmp_path, {"version": 1, "kind": "general-chain", "rows": rows})
    assert main(["verify", path]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["match"] is True and check["pi"] == ["1/3", "1/3", "1/3"]
    monkeypatch.setattr(core, "_CHAIN_STATES", 2)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["checks"] == [
        {"check": "steady state is stationary", "skipped": "m = 3 states exceed the chain guard 2"}
    ]


def test_verify_multi_agent(tmp_path, capsys):
    mi = gen_random_multi_agent(2, 2, seed=4)
    path = write_doc(tmp_path, serialize_instance(mi))
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _competitive_example():
    return build_competitive_instance(
        gen_random_multi_agent(3, 2, seed=5),
        [
            ExternalPlatform("x0", 2, (F(1), F(1)), (F(1, 2), F(3, 4))),
            ExternalPlatform("x1", 2, (F(2), F(1)), (F(5, 2), F(1, 4))),
            ExternalPlatform("x2", 3, (F(1), F(2)), (F(3), F(2))),
        ],
    )


@pytest.mark.parametrize("agent_id", ["0", "3"])
def test_solve_multiplatform_names_a_missing_agent(tmp_path, capsys, agent_id):
    # The example has agents 1 and 2.
    path = write_doc(tmp_path, serialize_instance(_competitive_example()))
    assert main(["solve-multiplatform-agent", path, "--agent", agent_id]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --agent: no agent {agent_id}\n"


def test_verify_competitive(tmp_path, capsys, monkeypatch):
    path = write_doc(tmp_path, serialize_instance(_competitive_example()))
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
    monkeypatch.setattr(
        multiplatform, "select_platforms", lambda pool, A, B: (multiplatform.prune_redundant(pool), empty)
    )
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


@pytest.mark.parametrize(
    "obj",
    [
        make_example(),
        gen_random_flower(12, seed=2, ranges={"allow_negative_z": True}, delta=F(1, 16)),
        gen_random_multi_agent(3, 2, seed=4),
        _competitive_example(),
        gen_no_nash_game(),
    ],
    ids=["flower", "mixed-sign", "multi-agent", "competitive", "game"],
)
def test_verify_checks_what_each_command_prints(tmp_path, capsys, obj):
    # Each check's solver value is what the matching command prints.
    path = write_doc(tmp_path, serialize_instance(obj))
    assert main(["verify", path]) == 0
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}

    def printed(*argv):
        assert main([argv[0], path, *argv[1:]]) == 0
        return json.loads(capsys.readouterr().out)

    if isinstance(obj, FlowerInstance):
        commands = {
            "agent greedy vs oracle": (printed("solve-agent"), "utility"),
            "designer fptas vs oracle": (printed("solve-designer"), "profit"),
        }
    elif isinstance(obj, GameInstance):
        commands = {
            f"designer {d} best response vs brute force": (
                printed("best-response", "--designer", str(d), "--profile", "[[],[]]"),
                "profit",
            )
            for d in (1, 2)
        }
    else:
        kind = "competitive" if isinstance(obj, CompetitiveInstance) else "multi-agent"
        commands = {f"{kind} dp vs brute force": (printed("solve-multi-agent"), "profit")}
    for name, (out, key) in commands.items():
        assert checks[name]["match"] is True
        assert checks[name]["solver"] == out[key]


def test_multiplatform_agent_prunes_once(tmp_path, capsys, monkeypatch):
    # solve-multiplatform-agent --agent i builds one hull per state that
    # holds platforms (2 and 3 here), from which both the curves and the
    # selection come: state_run runs once at each, and prune_redundant,
    # which would build a second hull, is not called.  verify does the same
    # once per agent.
    path = write_doc(tmp_path, serialize_instance(_competitive_example()))
    calls = Counter()
    real_run, real_prune = multiplatform.state_run, multiplatform.prune_redundant

    def counted_run(state, point_sets):
        calls[state] += 1
        return real_run(state, point_sets)

    def counted_prune(platforms):
        calls["prune_redundant"] += 1
        return real_prune(platforms)

    monkeypatch.setattr(multiplatform, "state_run", counted_run)
    monkeypatch.setattr(multiplatform, "prune_redundant", counted_prune)
    for i in (1, 2):
        calls.clear()
        assert main(["solve-multiplatform-agent", path, "--agent", str(i)]) == 0
        capsys.readouterr()
        assert calls == {2: 1, 3: 1}
    calls.clear()
    assert main(["verify", path]) == 0
    capsys.readouterr()
    assert calls == {2: 2, 3: 2}


def test_one_greedy_walk_serves_verify_and_competitive_profit(tmp_path, capsys, monkeypatch):
    # A walk that stops one entry short of the greedy's last step fails
    # verify's greedy-vs-oracle check and changes the competitive profits:
    # solve-multiplatform-agent and the competitive layer run one walk.
    ci = _competitive_example()
    offers = list(all_subsets(ci.mi.n))
    profits = [multiagent.competitive_profit(ci, S) for S in offers]
    path = write_doc(tmp_path, serialize_instance(ci))
    walk = multiplatform.greedy_walk

    def one_entry_early(entries, num, den, S):
        selected, _, _ = walk(entries, num, den, S)
        last = max(map(entries.index, selected.values()), default=len(entries))
        return walk(entries[:last], num, den, S)

    monkeypatch.setattr(multiplatform, "greedy_walk", one_entry_early)
    assert main(["verify", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert [c["match"] for c in out["checks"][1:]] == [False, False]
    changed = [multiagent.competitive_profit(ci, S) != p for S, p in zip(offers, profits)]
    assert changed == [False, True, False, True, False, True, False, True]


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


def test_verify_game_brute_force_builds_its_own_curves(tmp_path, capsys, monkeypatch):
    # The brute force builds each instance's curves from a pool of its own,
    # so a search's pool whose kept runs ignore the rivals' builds is
    # caught: on the no-nash game the search then finds a profile that the
    # definition rejects.  A lone pool asks for each (agent, state) once, so
    # the same fault there changes nothing.
    class ByState(dict):
        def get(self, key):
            return super().get(key[:2])

        def __setitem__(self, key, run):
            super().__setitem__(key[:2], run)

    real_init = multiagent.CurvePool.__init__

    def forgetful(self, *args):
        real_init(self, *args)
        self.runs = ByState()

    path = write_doc(tmp_path, serialize_instance(gen_no_nash_game()))
    monkeypatch.setattr(multiagent.CurvePool, "__init__", forgetful)
    assert main(["verify", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["checks"][-1] == {"check": "pure nash vs definition", "nash": [[1], [3]], "match": False}


def test_verify_skips_solvers_past_their_work_budget(tmp_path, capsys, monkeypatch):
    # A solver's own guard skips its check, as a brute-force guard does.
    # Four agents on six states fit the threshold DP's work budget and are
    # checked; with the budget patched low the same document is skipped.
    path = write_doc(tmp_path, serialize_instance(gen_random_multi_agent(6, 4, seed=1)))
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    [check] = out["checks"]
    assert check["check"] == "multi-agent dp vs brute force"
    assert check["match"] is True and check["solver"] == check["oracle"]
    monkeypatch.setattr(multiagent, "_DP_WORK", 1000)
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["checks"] == [
        {
            "check": "multi-agent dp vs brute force",
            "skipped": "the threshold DP needs more than 1000 units of work",
        }
    ]
    # Each best response of a game runs the competitive solver under the
    # same budget.
    game_doc = write_doc(tmp_path, serialize_instance(gen_no_nash_game()), "game.json")
    monkeypatch.setattr(multiagent, "_DP_WORK", 1)
    assert main(["verify", game_doc]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    responses = out["checks"][:2]
    assert [c["check"] for c in responses] == [
        "designer 1 best response vs brute force",
        "designer 2 best response vs brute force",
    ]
    for c in responses:
        assert c["skipped"] == "the threshold DP needs more than 1 units of work", c


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        # Agent 1's z and phi at state 1 are 1 and 3/2.
        ("multi-agent", lambda doc: doc["quantization"].update(delta="3"),
         "agents: agent 1, state 1: z = 1 is not a positive multiple of 3"),
        ("multi-agent", lambda doc: doc["quantization"].update(delta_prime="1/3"),
         "agents: agent 1, state 1: phi = 3/2 is not a nonnegative multiple of 1/3"),
        # delta is 1 and delta_prime 1/4; the external's z is (1, 1), its phi (0, 0).
        ("competitive", lambda doc: doc["platforms"][0].update(z=["1/2", "1"]),
         "platforms: external 'x0', agent 1: z = 1/2 is not a positive multiple of 1"),
        ("competitive", lambda doc: doc["platforms"][0].update(phi=["1/7", "0"]),
         "platforms: external 'x0', agent 1: phi = 1/7 is not a nonnegative multiple of 1/4"),
    ],
)
def test_off_grid_values_exit_2(tmp_path, capsys, kind, edit, message):
    # A z or phi off the quantization grid names the agent and its state, or
    # the external and the agent, with the value and the step.
    mi = gen_random_multi_agent(2, 2, seed=4)
    obj = mi
    if kind == "competitive":
        obj = build_competitive_instance(mi, [ExternalPlatform("x0", 1, (F(1), F(1)), (F(0), F(0)))])
    doc = serialize_instance(obj)
    assert doc["kind"] == kind
    edit(doc)
    assert main(["solve-multi-agent", write_doc(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_competitive_external_past_the_level_ceiling_exits_2(tmp_path, capsys):
    # An external platform's level z/delta is held to 10^12, as an agent's is.
    mi = gen_random_multi_agent(2, 2, seed=4)
    external = ExternalPlatform("x0", 1, (F(1), F(1)), (F(0), F(0)))
    doc = serialize_instance(build_competitive_instance(mi, [external]))
    doc["platforms"][0]["z"][1] = str(10**13 * mi.delta)
    path = write_doc(tmp_path, doc)
    assert main(["solve-multi-agent", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: platforms: external 'x0', agent 2: quantization level exceeds 1000000000000\n"
    )


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
    assert main(_with_docs(tmp_path, argv)) == code
    captured = capsys.readouterr()
    if keys is None:
        assert captured.out == "" and captured.err.startswith("error: ")
        return
    out = json.loads(captured.out)
    assert list(out) == keys
    if check_keys is not None:
        assert [list(check) for check in out["checks"]] == check_keys
    # Byte for byte what the reference writer makes of the same document.
    # wall_clock_seconds compares only with itself: it is read back from
    # the output, and a float's repr reads back to the same text.
    assert captured.out == _written_by_json_dump(out)


def _with_docs(tmp_path, argv):
    """argv with each document name replaced by the path of its file."""
    mi = gen_random_multi_agent(2, 2, seed=2)
    external = ExternalPlatform("x0", 1, (F(1), F(1)), (F(7, 2), F(9, 4)))
    docs = {
        "flower": serialize_instance(make_example()),
        "competitive": serialize_instance(build_competitive_instance(mi, [external])),
        "game": serialize_instance(gen_no_nash_game()),
        "chain": {"version": 1, "kind": "general-chain", "rows": [["1/2", "1/2"], [1, 0]]},
    }
    return [write_doc(tmp_path, docs[a], f"{a}.json") if a in docs else a for a in argv]


def _written_by_json_dump(result) -> str:
    """The reference writer: what main wrote before it wrote each result in
    one call, json.dump through the streaming encoder and then a newline."""
    fp = io.StringIO()
    json.dump(result, fp, indent=2)
    fp.write("\n")
    return fp.getvalue()


_WALL_CLOCK = re.compile(r'"wall_clock_seconds": [0-9.e-]+')

# Every command of _OUTPUT_KEYS, then the parser's own exits: a missing
# required flag, an unknown command, a non-integer option and --help.
_PARSER_CASES = [row[0] for row in _OUTPUT_KEYS] + [
    ["best-response", "game", "--profile", "[[],[]]"],
    ["no-such-command"],
    ["dynamics", "game", "--init", "[[],[]]", "--max-rounds", "x"],
    ["--help"],
]


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    # One process builds its parser on the first call of main; every later
    # call, each error exit and --help included, reuses it and behaves the
    # same each time.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cli, "_PARSER", None)

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        out, err = capsys.readouterr()
        return code, _WALL_CLOCK.sub('"wall_clock_seconds": T', out), err

    cases = [_with_docs(tmp_path, argv) for argv in _PARSER_CASES]
    results = [run(cases[0])]
    assert len(built) == 10  # pdp and its nine commands
    results += [run(argv) for argv in cases[1:]]
    assert [run(argv) for argv in cases] == results
    assert len(built) == 10
    assert [code for code, _, _ in results[-4:]] == ["SystemExit(2)"] * 3 + ["SystemExit(0)"]


def test_import_builds_no_parser():
    # Importing pdp.cli (the benchmark's set-up) builds no parser; the first
    # parse builds all ten.
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import pdp.cli\n"
        "at_import = len(built)\n"
        "try:\n"
        "    pdp.cli.main(['--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(at_import, len(built))\n"
    )
    src = str(Path(pdp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.stdout.startswith("usage: pdp")
    assert run.stdout.endswith("\n0 10\n")


def test_import_runs_only_the_core(tmp_path):
    # Importing pdp.cli runs pdp, pdp.core and pdp.cli; the solver modules
    # are in sys.modules but run on first use, so each command runs only
    # the ones it calls.  A module not yet run is a LazyLoader subclass of
    # ModuleType.
    script = (
        "import contextlib, io, sys, types\n"
        "def ran():\n"
        "    return sorted(name for name, m in sys.modules.items()\n"
        "                  if name.partition('.')[0] == 'pdp' and type(m) is types.ModuleType)\n"
        "import pdp.cli\n"
        "steps = [ran()]\n"
        "for command in ('solve-agent', 'solve-designer'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert pdp.cli.main([command, sys.argv[1]]) == 0\n"
        "    steps.append(ran())\n"
        "print(steps)\n"
    )
    doc = write_doc(tmp_path, serialize_instance(make_example()))
    src = str(Path(pdp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", script, doc], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == repr(
        [
            ["pdp", "pdp.cli", "pdp.core"],
            ["pdp", "pdp.agent", "pdp.cli", "pdp.core"],
            ["pdp", "pdp.agent", "pdp.cli", "pdp.core", "pdp.designer"],
        ]
    ) + "\n"


_CHAIN = {"version": 1, "kind": "general-chain", "rows": [["0", "1"], ["1", "0"]], "start": 0}
_SOLVERS = ["pdp.agent", "pdp.designer", "pdp.multiagent", "pdp.multiplatform"]


@pytest.mark.parametrize(
    "argv, doc, loaded",
    [
        (["verify"], _CHAIN, []),
        (["verify"], serialize_instance(make_example()), ["pdp.agent", "pdp.designer"]),
        (["solve-multi-agent"], serialize_instance(gen_random_multi_agent(3, 2, seed=1)), _SOLVERS),
        (["nash"], serialize_instance(gen_no_nash_game()), [*_SOLVERS, "pdp.game"]),
        (
            ["gen", "--kind", "random-flower", "--n", "3", "--seed", "1"],
            None,
            [*_SOLVERS, "pdp.game", "pdp.instances"],
        ),
    ],
    ids=["verify-chain", "verify-flower", "solve-multi-agent", "nash", "gen"],
)
def test_each_command_runs_only_its_modules(tmp_path, argv, doc, loaded):
    # One fresh process per command: the pdp modules that have run after
    # it, beyond pdp, pdp.core and pdp.cli, are the ones it calls.
    script = (
        "import contextlib, io, sys, types\n"
        "import pdp.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert pdp.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(name for name, m in sys.modules.items()\n"
        "             if name.partition('.')[0] == 'pdp' and type(m) is types.ModuleType))\n"
    )
    if doc is not None:
        argv = [argv[0], write_doc(tmp_path, doc), *argv[1:]]
    src = str(Path(pdp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == repr(sorted(["pdp", "pdp.cli", "pdp.core", *loaded])) + "\n"


@pytest.mark.parametrize(
    "kind, arg, message",
    [
        ("partition", "0", "need a nonempty multiset of positive integers"),
        ("partition", "x", "invalid literal for int() with base 10: 'x'"),
        ("two-agent-partition", "0", "need a nonempty multiset of positive integers"),
        (
            "two-agent-partition",
            "1,2,3,4,5,6,7,8,9",
            "agent 1, state 1: quantization level exceeds 1000000000000",
        ),
        ("set-cover", "--k=0", "need k >= 1"),
        ("set-cover", "--universe=", "need a nonempty universe"),
        ("set-cover", "--families=;;", "need a nonempty family"),
        ("set-cover", "--universe=1,1,2", "universe elements must be distinct"),
        ("set-cover", "--families=4", "family [4] has elements outside the universe"),
        ("set-cover", "--families=" + ";".join(["1,2"] * 11), "294912 designer choices exceed the guard 200000"),
    ],
)
def test_gen_errors_name_their_flag(capsys, kind, arg, message):
    # arg is the value of --a, or a whole --flag=value.
    flag, _, value = arg.partition("=") if arg.startswith("--") else ("--a", "=", arg)
    assert main(["gen", "--kind", kind, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: {message}\n"


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


def test_game_and_threshold_dp_commands_prune_on_integers(tmp_path, capsys, monkeypatch):
    # solve-multi-agent (multi-agent and competitive), nash, dynamics and
    # best-response build every curve with the integer hull: they never
    # call prune_redundant, under any module's name, and no Fraction is
    # made while a curve run is built or merged.
    def no_prune(platforms):
        raise AssertionError("prune_redundant ran")

    building, calls = [], Counter()

    def integer_only(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            building.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                building.pop()

        return wrapper

    real_new = F.__new__

    def new(cls, *args, **kwargs):
        assert not building, f"{building[-1]} made a Fraction"
        return real_new(cls, *args, **kwargs)

    for mod in (multiplatform, multiagent, game):
        for name in ("state_run", "merge_runs"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, integer_only(getattr(mod, name)))
        if hasattr(mod, "prune_redundant"):
            monkeypatch.setattr(mod, "prune_redundant", no_prune)
    monkeypatch.setattr(F, "__new__", new)
    mi = gen_random_multi_agent(3, 2, seed=4)
    external = ExternalPlatform("x0", 1, (F(1), F(1)), (F(7, 2), F(9, 4)))
    docs = {
        "multi-agent": serialize_instance(mi),
        "competitive": serialize_instance(build_competitive_instance(mi, [external])),
        "game": serialize_instance(gen_no_nash_game()),
    }
    paths = {kind: write_doc(tmp_path, doc, f"{kind}.json") for kind, doc in docs.items()}
    for argv in (
        ["solve-multi-agent", paths["multi-agent"]],
        ["solve-multi-agent", paths["competitive"]],
        ["nash", paths["game"]],
        ["dynamics", paths["game"], "--init", "[[],[]]"],
        ["best-response", paths["game"], "--designer", "2", "--profile", "[[1],[]]"],
    ):
        calls.clear()
        assert main(argv) == 0, argv
        capsys.readouterr()
        assert calls["state_run"] and calls["merge_runs"], argv
