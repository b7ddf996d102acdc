import gc
import itertools
import json
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import make_example
from pdp import core, game, multiagent
from pdp.agent import TooLarge
from pdp.cli import main, parse_instance, serialize_instance
from pdp.core import (
    all_subsets,
    build_flower_from_potentials,
    build_flower_instance,
    derived_params,
)
from pdp.designer import designer_oracle
from pdp.game import (
    Candidate,
    best_response,
    best_response_dynamics,
    build_game_instance,
    profile_profit,
    pure_nash_search,
)
from pdp.instances import gen_no_nash_game, gen_random_multi_agent
from pdp.multiagent import (
    MultiAgentInstance,
    build_competitive_instance,
    competitive_profit,
    competitive_solve,
)

fs = frozenset


def single_designer_game(inst=None):
    # One designer whose candidates mirror the reference two-petal
    # economics, so the best response equals the single-designer optimum.
    inst = inst or make_example()
    dp = derived_params(inst)
    cands = tuple(
        Candidate(
            j,
            (dp.z[j - 1],),
            (dp.phi[j - 1],),
            (inst.d[j - 1],),
            inst.cost[j - 1],
        )
        for j in range(1, inst.n + 1)
    )
    return build_game_instance((inst,), (cands,), F(1), F(2)), inst


def disjoint_game():
    # Two designers with interests in different states: designer 1's
    # candidate at state 2 (and designer 2's at state 1) carries no
    # demand, so their builds never collide.
    third = F(1, 3)
    chassis = build_flower_instance(
        p=(F(1, 2), F(1, 2)),
        q=(F(1, 2), F(1, 2)),
        y=(F(1, 4), F(1, 4)),
        c_life=(F(0), F(0)),
        c_platform=(F(0), F(0)),
        d=(F(0), F(0)),
        cost=(F(1), F(1)),
    )
    d1 = (
        Candidate(1, (F(1),), (F(2),), (F(10),), F(1, 10)),
        Candidate(2, (F(1),), (F(0),), (F(0),), F(1, 10)),
    )
    d2 = (
        Candidate(1, (F(1),), (F(0),), (F(0),), F(1, 10)),
        Candidate(2, (F(1),), (F(4),), (F(1),), F(1, 10)),
    )
    return build_game_instance((chassis,), (d1, d2), F(1), F(2))


def test_no_nash_fixture_shape():
    g = gen_no_nash_game()
    assert g.n == 3
    assert g.num_designers == 2
    dp = derived_params(g.chassis[0])
    assert dp.A == 0
    assert dp.B == 4
    assert dp.z == (F(1), F(1), F(1))


def test_no_nash_has_no_pure_equilibrium():
    assert pure_nash_search(gen_no_nash_game()) is None


def test_best_response_truths():
    g = gen_no_nash_game()
    # Against designer 2 holding state 2, designer 1 builds state 1.
    br = best_response(g, 0, (fs(), fs({2})))
    assert br.states == fs({1})
    assert br.profit == F(99997, 3000)
    # Against designer 1 holding state 1, designer 2 builds state 3.
    br = best_response(g, 1, (fs({1}), fs()))
    assert br.states == fs({3})
    assert br.profit == F(799999, 1000)
    # Against designer 2 holding state 3, designer 1 switches to state 3.
    br = best_response(g, 0, (fs(), fs({3})))
    assert br.states == fs({3})
    assert br.profit == F(19999, 1000)
    # With designer 1 at state 3, designer 2 earns nothing and quits.
    br = best_response(g, 1, (fs({3}), fs({3})))
    assert br.states == fs()
    assert br.profit == 0


def test_dynamics_settles_into_two_round_cycle():
    g = gen_no_nash_game()
    outcome = best_response_dynamics(g, (fs(), fs()))
    assert outcome.kind == "cycle"
    assert outcome.period == 2
    assert outcome.cycle == (
        (fs({1}), fs({3})),
        (fs({3}), fs()),
    )


def test_dynamics_budget_outcome():
    g = gen_no_nash_game()
    outcome = best_response_dynamics(g, (fs(), fs()), max_rounds=1)
    assert outcome.kind == "budget"
    assert outcome.profile is None
    assert len(outcome.trace) == 2


def test_single_designer_dynamics_reach_nash():
    g, inst = single_designer_game()
    outcome = best_response_dynamics(g, (fs(),))
    assert outcome.kind == "nash"
    exact = designer_oracle(inst)
    assert outcome.profile == (exact.states,)
    assert profile_profit(g, 0, outcome.profile) == exact.profit


def test_single_designer_pure_nash():
    g, inst = single_designer_game()
    assert pure_nash_search(g) == (designer_oracle(inst).states,)


def test_disjoint_interests_have_nash():
    g = disjoint_game()
    nash = pure_nash_search(g)
    assert nash is not None
    # Neither designer builds the state it has no demand at.
    assert 2 not in nash[0]
    assert 1 not in nash[1]
    outcome = best_response_dynamics(g, (fs(), fs()))
    assert outcome.kind == "nash"
    assert outcome.profile == nash


def test_profile_profit_accounts_costs():
    g = gen_no_nash_game()
    # Building an undemanded platform only pays its cost.
    assert profile_profit(g, 0, (fs({2}), fs())) == -F(1, 1000)
    assert profile_profit(g, 0, (fs(), fs())) == 0


def test_build_validation():
    g = gen_no_nash_game()
    with pytest.raises(ValueError):
        build_game_instance(g.chassis, (g.designers[0][:2],), g.delta, g.delta_prime)
    bad = (
        Candidate(1, (F(1),), (F(0),), (F(0),), F(0)),
        Candidate(2, (F(1),), (F(0),), (F(0),), F(1)),
        Candidate(3, (F(1),), (F(0),), (F(0),), F(1)),
    )
    with pytest.raises(ValueError):
        build_game_instance(g.chassis, (bad,), g.delta, g.delta_prime)
    # Each candidate needs one z, phi and d per agent, and the game an agent.
    k = len(g.chassis)
    first, *rest = g.designers[0]
    for d in (first.d[: k - 1], first.d + (F(1),)):
        cands = (Candidate(first.state, first.z, first.phi, d, first.cost), *rest)
        with pytest.raises(ValueError, match="candidate needs per-agent z, phi and d"):
            build_game_instance(g.chassis, (cands,), g.delta, g.delta_prime)
    with pytest.raises(ValueError, match="need at least one agent"):
        build_game_instance((), g.designers, g.delta, g.delta_prime)
    # The views take the game's checks as made, this one among them.
    other = gen_random_multi_agent(g.n + 1, 1, seed=1).agents[0]
    with pytest.raises(ValueError, match="all agents must share the state set"):
        build_game_instance((*g.chassis, other), g.designers, g.delta, g.delta_prime)


def test_pure_nash_guard(monkeypatch):
    monkeypatch.setattr(game, "_NASH_PROFILES", 1)
    with pytest.raises(TooLarge):
        pure_nash_search(gen_no_nash_game())


def test_solved_games_are_freed():
    # Derived data is kept on the instance it comes from, so once the
    # caller drops a game nothing in the package keeps it, its designer
    # views or its flowers alive.
    base = make_example()
    refs = []
    for step in range(1, 5):
        inst = build_flower_instance(
            p=base.p, q=base.q, y=base.y, c_life=base.c_life,
            c_platform=base.c_platform, d=base.d, cost=[F(step, 100), F(step, 100)],
        )
        g, inst = single_designer_game(inst)
        best_response(g, 0, (fs(),))
        refs += [weakref.ref(x) for x in (inst, g, *g.views, *g.views[0].agents)]
        del inst, g
    gc.collect()
    assert [r() for r in refs if r() is not None] == []


# Unmemoized references: the search and the dynamics as they stood before
# the per-search memo, calling the game layer by its module names.


def reference_pure_nash_search(g):
    subsets = sorted(all_subsets(g.n), key=lambda s: tuple(sorted(s)))
    for profile in itertools.product(subsets, repeat=g.num_designers):
        is_nash = True
        for d in range(g.num_designers):
            current = game.profile_profit(g, d, profile)
            for alt in subsets:
                if alt == profile[d]:
                    continue
                deviated = profile[:d] + (alt,) + profile[d + 1 :]
                if game.profile_profit(g, d, deviated) > current:
                    is_nash = False
                    break
            if not is_nash:
                break
        if is_nash:
            return profile
    return None


def reference_dynamics(g, initial, max_rounds=100):
    current = tuple(frozenset(s) for s in initial)
    trace = [current]
    seen = {current: 0}
    for _ in range(max_rounds):
        moved = False
        for d in range(g.num_designers):
            br = game.best_response(g, d, current)
            if br.states != current[d]:
                current = current[:d] + (br.states,) + current[d + 1 :]
                moved = True
        trace.append(current)
        if not moved:
            return game.DynamicsOutcome("nash", current, (), None, tuple(trace))
        if current in seen:
            start = seen[current]
            cycle = tuple(trace[start:-1])
            return game.DynamicsOutcome("cycle", None, cycle, len(cycle), tuple(trace))
        seen[current] = len(trace) - 1
    return game.DynamicsOutcome("budget", None, (), None, tuple(trace))


def random_game(seed):
    """Two designers over a random quantized chassis: n 2-3, k 1-2."""
    rng = random.Random(seed)
    n, k = 2 + seed % 2, 1 + seed // 2 % 2
    chassis = gen_random_multi_agent(n, k, seed=seed).agents
    designers = [
        tuple(
            Candidate(
                j,
                tuple(F(rng.randint(1, 2)) for _ in range(k)),
                tuple(F(rng.randint(0, 12), 4) for _ in range(k)),
                tuple(F(rng.randint(0, 8)) for _ in range(k)),
                F(rng.randint(1, 5), 4),
            )
            for j in range(1, n + 1)
        )
        for _ in range(2)
    ]
    return build_game_instance(chassis, designers, F(1), F(1, 4))


def test_memoized_search_matches_reference_with_fewer_calls(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(game, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(game, name, wrapper)

    # Memo misses and the reference's profile_profit both evaluate a
    # profit through game.competitive_profit_pair.
    counted("competitive_profit_pair")
    counted("best_response")

    def run(search, *args):
        calls.clear()
        result = search(*args)
        return result, dict(calls)

    saved = 0
    for g in [gen_no_nash_game()] + [random_game(seed) for seed in range(8)]:
        got, memo_calls = run(pure_nash_search, g)
        want, ref_calls = run(reference_pure_nash_search, g)
        assert got == want
        profits = memo_calls["competitive_profit_pair"], ref_calls["competitive_profit_pair"]
        assert 0 < profits[0] <= profits[1]
        saved += profits[1] - profits[0]
        for initial in [(fs(), fs()), (fs(range(1, g.n + 1)), fs({1}))]:
            got, memo_calls = run(best_response_dynamics, g, initial)
            want, ref_calls = run(reference_dynamics, g, initial)
            assert got == want
            assert memo_calls["best_response"] <= ref_calls["best_response"]
    assert saved > 0


def test_search_instances_pass_the_external_checks(monkeypatch):
    # competitive_instance skips build_competitive_instance's checks, as each
    # external is a rival's candidate the game and its views have checked:
    # those checks accept every instance a search builds and give it back.
    memos = []

    class Kept(game.SearchMemo):
        def __init__(self, g):
            super().__init__(g)
            memos.append(self)

    monkeypatch.setattr(game, "SearchMemo", Kept)
    for g in (gen_no_nash_game(), random_game(3)):
        memos.clear()
        pure_nash_search(g)
        (memo,) = memos
        assert any(ci.externals for ci in memo.instances.values())
        for (d, _), ci in memo.instances.items():
            assert build_competitive_instance(g.views[d], ci.externals) == ci


def test_search_instances_agree_with_lone_ones(monkeypatch):
    # A search's instance takes its curves from the designer's pool over
    # every rival candidate; a lone one, from a pool of its externals alone.
    # Both give the same best response and the same profit for every offer.
    pools = Counter()

    class Counted(multiagent.CurvePool):
        def __init__(self, mi, pool):
            super().__init__(mi, pool)
            pools[mi] += 1

    monkeypatch.setattr(game, "CurvePool", Counted)
    for g in (gen_no_nash_game(), random_game(3), random_game(4)):
        pools.clear()
        memo = game.SearchMemo(g)
        subsets = list(all_subsets(g.n))
        for d, profile in itertools.product(
            range(g.num_designers), itertools.product(subsets, repeat=g.num_designers)
        ):
            searched, lone = memo.instance(d, profile), game.competitive_instance(g, d, profile)
            assert searched.pool is not None and lone.pool is None
            assert competitive_solve(searched) == competitive_solve(lone), (d, profile)
            for S in subsets:
                assert competitive_profit(searched, S) == competitive_profit(lone, S)
        assert pools == Counter(g.views), pools


# The designer views as game.py built them before its ViewAgents: a whole
# flower per chassis agent, its y and c_platform worked out by
# build_flower_from_potentials for derived_params to give back z and phi.


def reference_designer_view(g, designer):
    cands = g.designers[designer]
    cost = [c.cost for c in cands]
    agents = []
    for i, base in enumerate(g.chassis):
        z = [c.z[i] for c in cands]
        phi = [c.phi[i] for c in cands]
        d = [c.d[i] for c in cands]
        agents.append(build_flower_from_potentials(base.p, base.q, base.c_life, z, phi, d, cost))
    return MultiAgentInstance(tuple(agents), g.delta, g.delta_prime)


GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def bench_game_docs(seed, seconds=15):
    """Every game document of the benchmark's multi-agent corpus at seed."""
    bench = {"__name__": "perfbench_gen"}
    exec(compile(GEN.read_text(encoding="utf-8"), str(GEN), "exec"), bench)
    ops = bench["operations"]("multi-agent", seed, seconds)
    return [op["doc"] for op in ops if op["doc"]["kind"] == "game"]


def assert_views_match_reference(g):
    """Each view's DerivedPairs, d, costs and integer costs equal those of
    the reference view's flowers, under derived_params."""
    for designer, view in enumerate(g.views):
        ref = reference_designer_view(g, designer)
        assert (view.n, view.k) == (ref.n, ref.k)
        for got, want in zip(view.agents, ref.agents):
            assert got.params.pairs == derived_params(want).pairs
            assert got.pairs.d == want.pairs.d
            assert got.pairs.cost == want.pairs.cost
            assert got.cost == want.cost
        assert view.integer_cost == ref.integer_cost


def test_views_match_the_flower_reference():
    for g in [gen_no_nash_game(), *map(random_game, range(16))]:
        assert_views_match_reference(g)
    docs = bench_game_docs(seed=34)
    assert len(docs) == 169
    for doc in docs:
        assert_views_match_reference(parse_instance(doc))


def test_game_commands_build_no_flower(tmp_path, capsys, monkeypatch):
    # nash, dynamics, best-response and verify on a game document read the
    # views, which are built without build_flower_from_potentials.
    paths = []
    for idx, g in enumerate([gen_no_nash_game(), random_game(3)]):
        paths.append(tmp_path / f"game{idx}.json")
        paths[-1].write_text(json.dumps(serialize_instance(g)))
    original = core.build_flower_from_potentials

    def refused(*args):
        raise AssertionError("build_flower_from_potentials was called")

    for name, module in list(sys.modules.items()):
        if name == "pdp" or name.startswith("pdp."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refused)
    for path in paths:
        for argv in [
            ["nash"],
            ["dynamics", "--init", "[[], []]"],
            ["best-response", "--designer", "1", "--profile", "[[1], [2]]"],
            ["verify"],
        ]:
            assert main([argv[0], str(path), *argv[1:]]) == 0, argv
            captured = capsys.readouterr()
            assert captured.err == "" and json.loads(captured.out), argv
