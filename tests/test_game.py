import gc
import itertools
import random
import weakref
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import make_example
from pdp import game
from pdp.agent import TooLarge
from pdp.core import build_flower_instance, derived_params
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
    subsets = game._subsets_lex(g.n)
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

    counted("profile_profit")
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
        assert memo_calls["profile_profit"] <= ref_calls["profile_profit"]
        saved += ref_calls["profile_profit"] - memo_calls["profile_profit"]
        for initial in [(fs(), fs()), (fs(range(1, g.n + 1)), fs({1}))]:
            got, memo_calls = run(best_response_dynamics, g, initial)
            want, ref_calls = run(reference_dynamics, g, initial)
            assert got == want
            assert memo_calls["best_response"] <= ref_calls["best_response"]
    assert saved > 0
