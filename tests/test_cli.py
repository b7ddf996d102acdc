import json
from fractions import Fraction as F

import pytest

from conftest import make_example
from pdp.cli import main, parse_instance, parse_rat, serialize_instance
from pdp.core import FlowerInstance, GeneralChain, agent_utility, derived_params
from pdp import game
from pdp.designer import DesignSet
from pdp.game import GameInstance
from pdp.instances import (
    gen_no_nash_game,
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

    # A non-object entry, a non-list row or a non-integer start is named
    # by its JSON path.
    mi = gen_random_multi_agent(2, 2, seed=2)
    competitive = serialize_instance(
        build_competitive_instance(mi, [ExternalPlatform("x0", 1, (F(1), F(1)), (F(1, 2), F(1, 4)))])
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
    ]
    for command, doc, keys, value, path in cases:
        doc = json.loads(json.dumps(doc))
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        assert main([command, write_doc(tmp_path, doc)]) == 2, path
        assert capsys.readouterr().err.startswith(f"error: {path}:"), path


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
    [(["--epsilon", "0"], None), (["--delta", "0"], None), ([], {"delta": "0"})],
)
def test_solve_designer_rejects_zero_quantization(tmp_path, capsys, example, flags, quantization):
    doc = serialize_instance(example)
    if quantization is not None:
        doc["quantization"] = quantization
    assert main(["solve-designer", write_doc(tmp_path, doc), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


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


def test_verify_flower(tmp_path, capsys, example):
    path = write_doc(tmp_path, serialize_instance(example))
    assert main(["verify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert len(out["checks"]) == 2


def test_verify_multi_agent(tmp_path, capsys):
    mi = gen_random_multi_agent(2, 2, seed=4)
    path = write_doc(tmp_path, serialize_instance(mi))
    assert main(["verify", path]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


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
