import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction as F

import pytest

from pdp import game, multiagent, multiplatform
from pdp.agent import TooLarge
from pdp.core import (
    all_subsets,
    build_flower_from_potentials,
    build_flower_instance,
    derived_params,
    scale_to_integers,
)
from pdp.designer import DesignSet, QuantizationError, designer_oracle, fptas_solve, preprocess
from pdp.game import Candidate, best_response, build_game_instance
from pdp.instances import (
    gen_no_nash_game,
    gen_random_flower,
    gen_random_multi_agent,
    gen_two_agent_partition,
)
from pdp.multiagent import (
    AgentGuess,
    CompetitiveInstance,
    CurveImage,
    ExternalPlatform,
    agent_guesses,
    build_competitive_instance,
    build_multi_agent_instance,
    competitive_profit,
    competitive_solve,
    multi_agent_profit,
    multi_agent_solve,
    slot_coefficients,
)
from pdp.multiplatform import CurveEntry, Platform, multi_greedy_solve
from conftest import table_bound_grid
from test_game import reference_designer_view
from test_multiplatform import _chain_prune_redundant


# The guess layer as it stood before agent_guesses read the guesses off
# the curve entries in one walk: a Fraction theta grid per agent, with INF
# for "adopt nothing", its windows, and one walk down the entries per
# window.  The references below and the tests of agent_guesses read them.

INF = None  # theta value meaning "adopt nothing"


def theta_grid(values) -> tuple:
    """An agent's threshold guesses: INF, then the distinct values descending."""
    return (INF, *sorted(set(values), reverse=True))


def _windows(grid):
    """(theta, theta_next) per guess, so the guesses' windows
    [theta_next, theta) cover every utility >= -1."""
    return zip(grid, (*grid[1:], F(-1)))


def _entry_grids(ci):
    """Each agent's theta grid over the psi of its curve entries."""
    return [theta_grid(F(e.psi, e.psi_den) for e in im.entries) for im in ci.curves]


def agent_guess(im, theta, theta_next, work):
    """The AgentGuess of one agent under the window [theta_next, theta):
    one walk over im.entries, down to the first psi < theta, keeps the
    last entry per (curve set, state)."""
    last = {}
    if theta is not INF:
        t_num, t_den = theta.numerator, theta.denominator
        for e in im.entries:
            if e.psi * t_den < t_num * e.psi_den:
                break
            last[e.inserted, e.state] = e
    fall = {s: e for (inserted, s), e in last.items() if not inserted}
    a_hat = im.A + sum(f.zphi for f in fall.values())
    b_hat = im.B + sum(f.z for f in fall.values())
    n = len(im.dw)
    member = [False] * n
    sigma, tau = [0] * n, [0] * n
    for (inserted, s), e in last.items():
        if inserted and e.platform.own:
            f = fall.get(s)
            member[s - 1] = True
            sigma[s - 1] = e.zphi - (f.zphi if f else 0)
            tau[s - 1] = e.z - (f.z if f else 0)
    pairs = {(0, 0)}
    for a, b in zip(sigma, tau):
        if a or b:
            pairs |= {(x + a, y + b) for x, y in pairs}
            work.add(len(pairs))
    n_num, n_den = theta_next.numerator, theta_next.denominator
    windows = {}  # denominator shift -> (D, lo, hi)
    kept = {}
    for a, b in pairs:
        if b not in windows:
            D = b_hat + b
            lo = -((n_den * a_hat - n_num * D) // n_den)
            hi = None
            if theta is not INF:
                hi = -((t_den * a_hat - t_num * D) // t_den) - 1
            windows[b] = D, lo, hi
        D, lo, hi = windows[b]
        if lo <= a and (hi is None or a <= hi):
            kept[a, b] = D
    return AgentGuess(tuple(member), tuple(sigma), tuple(tau), im.dw, kept)


def windowed_guesses(im, grid):
    """(theta, theta_next, agent_guesses' guess) per window of grid, in
    order; a guess too many or too few fails."""
    guesses = agent_guesses(im, multiagent._Work())
    return [(*window, g) for window, g in zip(_windows(grid), guesses, strict=True)]


# Reference solvers: the threshold DP on Fractions, one copy per solver,
# as it stood before both moved onto the shared integer core.


def _ref_successor(grid, theta):
    values = [v for v in grid if v is not INF]
    if theta is INF:
        return values[0]
    if theta == values[-1]:
        return F(-1)
    return values[values.index(theta) + 1]


def _ref_best(best):
    if best is None:
        raise RuntimeError("the threshold DP found no consistent (theta, D) guess")
    return DesignSet(frozenset(best[1]), best[0])


def _ref_value_coefficients(mi, theta, D):
    coeffs = []
    dps = [derived_params(a) for a in mi.agents]
    for j in range(1, mi.n + 1):
        c = -mi.cost[j - 1]
        for i, (a, dp) in enumerate(zip(mi.agents, dps)):
            if theta[i] is not INF and dp.phi[j - 1] >= theta[i]:
                c += a.d[j - 1] * dp.w[j - 1] / D[i]
        coeffs.append(c)
    return tuple(coeffs)


def reference_multi_agent_solve(mi):
    n = mi.n
    k = mi.k
    dps = [derived_params(a) for a in mi.agents]
    phi_grid = [(INF, *sorted(set(dp.phi), reverse=True)) for dp in dps]
    levels = [[int(dp.z[j] / mi.delta) for j in range(n)] for dp in dps]
    plevels = [[int(dp.phi[j] / mi.delta_prime) for j in range(n)] for dp in dps]
    d_grid = [
        tuple(dp.B + l * mi.delta for l in range(n * max(levels[i]) + 1))
        for i, dp in enumerate(dps)
    ]

    best = None
    for theta in itertools.product(*phi_grid):
        theta_next = [_ref_successor(phi_grid[i], theta[i]) for i in range(k)]
        member = [
            [theta[i] is not INF and dps[i].phi[j] >= theta[i] for j in range(n)]
            for i in range(k)
        ]
        reachable = []
        for i in range(k):
            sums = {0}
            for j in range(n):
                if member[i][j]:
                    sums |= {s + levels[i][j] for s in sums}
            reachable.append({dps[i].B + s * mi.delta for s in sums})
        d_options = [[d for d in d_grid[i] if d in reachable[i]] for i in range(k)]
        for D in itertools.product(*d_options):
            coeffs = _ref_value_coefficients(mi, theta, D)
            table = {(0,) * (2 * k): (F(0), ())}
            for t in range(1, n + 1):
                for key, (val, states) in list(table.items()):
                    new_key = list(key)
                    for i in range(k):
                        if member[i][t - 1]:
                            new_key[i] += levels[i][t - 1] * plevels[i][t - 1]
                            new_key[k + i] += levels[i][t - 1]
                    new_key = tuple(new_key)
                    cand = (val + coeffs[t - 1], states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            for key, (val, states) in table.items():
                ok = True
                for i in range(k):
                    if D[i] != dps[i].B + key[k + i] * mi.delta:
                        ok = False
                        break
                    u = (dps[i].A + key[i] * mi.delta * mi.delta_prime) / D[i]
                    if not u >= theta_next[i] or (theta[i] is not INF and not theta[i] > u):
                        ok = False
                        break
                if ok and (best is None or val > best[0] or (val == best[0] and states < best[1])):
                    best = (val, states)
    return _ref_best(best)


def _ref_agent_curves(ci, i):
    dp = derived_params(ci.mi.agents[i])
    ext = [Platform(pl.id, pl.state, pl.z[i], pl.phi[i]) for pl in ci.externals]
    own = [
        Platform(("own", j), j, dp.z[j - 1], dp.phi[j - 1], own=True)
        for j in range(1, ci.mi.n + 1)
    ]
    return (_chain_prune_redundant(ext) if ext else {}), _chain_prune_redundant(ext + own)


def reference_competitive_solve(ci):
    mi = ci.mi
    n = mi.n
    k = mi.k
    dps = [derived_params(a) for a in mi.agents]
    dd = mi.delta * mi.delta_prime
    curves = [_ref_agent_curves(ci, i) for i in range(k)]
    phi_grids = []
    for base, with_own in curves:
        vals = set()
        for curve in list(base.values()) + list(with_own.values()):
            vals.update(curve.psi)
        phi_grids.append((INF, *sorted(vals, reverse=True)))

    best = None
    for theta in itertools.product(*phi_grids):
        theta_next = [_ref_successor(phi_grids[i], theta[i]) for i in range(k)]
        a_hat, b_hat, member, sigma, tau = [], [], [], [], []
        for i in range(k):
            base, with_own = curves[i]
            fall = {}
            for s, curve in base.items():
                pick = None
                for idx, pl in enumerate(curve.platforms):
                    if theta[i] is not INF and curve.psi[idx] >= theta[i]:
                        pick = pl
                fall[s] = pick
            a_hat.append(dps[i].A + sum((pl.z * pl.phi for pl in fall.values() if pl), F(0)))
            b_hat.append(dps[i].B + sum((pl.z for pl in fall.values() if pl), F(0)))
            mem, sig, ta = [False] * n, [F(0)] * n, [F(0)] * n
            for s, curve in with_own.items():
                for idx, pl in enumerate(curve.platforms):
                    if not pl.own:
                        continue
                    if (
                        theta[i] is not INF
                        and curve.psi[idx] >= theta[i]
                        and (idx + 1 == len(curve.platforms) or curve.psi[idx + 1] <= theta_next[i])
                    ):
                        f = fall.get(s)
                        fz = f.z if f else F(0)
                        fphi = f.phi if f else F(0)
                        mem[pl.state - 1] = True
                        sig[pl.state - 1] = pl.z * pl.phi - fz * fphi
                        ta[pl.state - 1] = pl.z - fz
            member.append(mem)
            sigma.append(sig)
            tau.append(ta)

        d_options = []
        for i in range(k):
            sums = {F(0)}
            for j in range(n):
                if member[i][j]:
                    sums |= {s + tau[i][j] for s in sums}
            d_options.append(sorted({b_hat[i] + s for s in sums}))

        for D in itertools.product(*d_options):
            coeffs = []
            for j in range(n):
                c = -mi.cost[j]
                for i in range(k):
                    if member[i][j]:
                        c += mi.agents[i].d[j] * dps[i].w[j] / D[i]
                coeffs.append(c)
            table = {(0,) * (2 * k): (F(0), ())}
            for t in range(1, n + 1):
                for key, (val, states) in list(table.items()):
                    new_key = list(key)
                    for i in range(k):
                        if member[i][t - 1]:
                            a_step = sigma[i][t - 1] / dd
                            b_step = tau[i][t - 1] / mi.delta
                            if a_step.denominator != 1 or b_step.denominator != 1:
                                raise QuantizationError("slot shifts are not whole multiples")
                            new_key[i] += int(a_step)
                            new_key[k + i] += int(b_step)
                    new_key = tuple(new_key)
                    cand = (val + coeffs[t - 1], states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            for key, (val, states) in table.items():
                ok = True
                for i in range(k):
                    if D[i] != b_hat[i] + key[k + i] * mi.delta:
                        ok = False
                        break
                    u = (a_hat[i] + key[i] * dd) / D[i]
                    if not u >= theta_next[i] or (theta[i] is not INF and not theta[i] > u):
                        ok = False
                        break
                if ok and (best is None or val > best[0] or (val == best[0] and states < best[1])):
                    best = (val, states)
    return _ref_best(best)


def quantized_flower(seed, n=3, d_scale=1):
    inst = gen_random_multi_agent(n, 1, seed=seed).agents[0]
    if d_scale == 1:
        return inst
    return build_flower_instance(
        p=inst.p, q=inst.q, y=inst.y, c_life=inst.c_life,
        c_platform=inst.c_platform, d=[x * d_scale for x in inst.d],
        cost=inst.cost,
    )


def brute_force_multi(mi):
    best = None
    for S in all_subsets(mi.n):
        p = multi_agent_profit(mi, S)
        if best is None or p > best[0] or (p == best[0] and sorted(S) < sorted(best[1])):
            best = (p, S)
    return best


def brute_force_competitive(ci):
    best = None
    for S in all_subsets(ci.mi.n):
        p = competitive_profit(ci, S)
        if best is None or p > best[0] or (p == best[0] and sorted(S) < sorted(best[1])):
            best = (p, S)
    return best


def test_build_validates_quantization():
    # The levels z/delta and phi/delta_prime are tested on integers; each
    # message names the agent, the state and the rational values.
    mi = gen_random_multi_agent(3, 2, seed=0)
    negative_z = gen_random_flower(3, seed=1, ranges={"allow_negative_z": True})
    negative_phi = gen_random_flower(2, seed=0, ranges={"c_life_max": 12, "c_platform_max": 2})
    for agents, delta, delta_prime, message in [
        (mi.agents, F(3), mi.delta_prime, "agent 1, state 1: z = 1 is not a positive multiple of 3"),
        (mi.agents, F(2, 3), mi.delta_prime, "agent 1, state 1: z = 1 is not a positive multiple of 2/3"),
        (mi.agents, mi.delta, F(7), "agent 1, state 1: phi = 1 is not a nonnegative multiple of 7"),
        # Every z level z/delta is 10^13 or more, past the 10^12 ceiling.
        (
            mi.agents, F(1, 10**13), mi.delta_prime,
            "agent 1, state 1: quantization level exceeds 1000000000000",
        ),
        (
            [negative_z], F(1, 10**6), F(1, 10**9),
            "agent 1, state 3: z = -1 is not a positive multiple of 1/1000000",
        ),
        (
            [negative_phi], F(1), F(1, 72),
            "agent 1, state 2: phi = -1/8 is not a nonnegative multiple of 1/72",
        ),
        (mi.agents, F(0), mi.delta_prime, "delta = 0 must be positive"),
        (mi.agents, mi.delta, F(0), "delta_prime = 0 must be positive"),
    ]:
        with pytest.raises(QuantizationError) as info:
            build_multi_agent_instance(agents, delta=delta, delta_prime=delta_prime)
        assert str(info.value) == message


def test_build_requires_shared_structure():
    a = gen_random_multi_agent(3, 1, seed=1).agents[0]
    b = gen_random_multi_agent(2, 1, seed=2).agents[0]
    with pytest.raises(ValueError):
        build_multi_agent_instance([a, b], delta=F(1), delta_prime=F(1, 4))
    c = gen_random_multi_agent(3, 1, seed=3).agents[0]
    if c.cost != a.cost:
        with pytest.raises(ValueError):
            build_multi_agent_instance([a, c], delta=F(1), delta_prime=F(1, 4))


def multi_agent_guesses(mi, theta):
    """Each agent's AgentGuess with no rival platforms at thresholds theta."""
    guesses = []
    for i, (im, dp) in enumerate(zip(CompetitiveInstance(mi, ()).curves, mi.params)):
        grid = theta_grid(dp.phi)
        theta_next = (*grid[1:], F(-1))[grid.index(theta[i])]
        guesses.append(agent_guess(im, theta[i], theta_next, multiagent._Work()))
    return guesses


def test_candidate_grids_shape():
    mi = gen_random_multi_agent(3, 2, seed=4)
    dps = [derived_params(a) for a in mi.agents]
    grids = [theta_grid(dp.phi) for dp in dps]
    assert len(grids) == 2
    for grid, dp in zip(grids, dps):
        assert grid[0] is INF
        assert len(grid) <= mi.n + 1
        assert list(grid[1:]) == sorted(set(dp.phi), reverse=True)
    # Guessing the minimum potential makes every state a pick, so the
    # reference's D options are B plus every subset sum of the z levels, in
    # steps of delta, and each pair the guess keeps has one of those D: its
    # denominator shift, over L, is delta times one of those sums.
    guesses = multi_agent_guesses(mi, tuple(grid[-1] for grid in grids))
    for guess, dp, im, grid in zip(guesses, dps, CompetitiveInstance(mi, ()).curves, grids):
        assert all(guess.member)
        _, options = two_loop_agent_guess(im, grid[-1], F(-1), mi.delta, mi.delta_prime)
        levels = [o[0] for o in options]
        z_levels = [int(z / mi.delta) for z in dp.z]
        sums = {sum(c) for r in range(mi.n + 1) for c in itertools.combinations(z_levels, r)}
        assert levels == sorted(sums)
        assert levels[0] == 0
        assert guess.kept
        for (_, tau), scaled_D in guess.kept.items():
            level = F(tau, im.L) / mi.delta
            assert level in sums
            assert F(scaled_D, im.B) == (dp.B + level * mi.delta) / dp.B


def test_value_coefficients_extremes():
    mi = gen_random_multi_agent(3, 2, seed=5)
    dps = [derived_params(a) for a in mi.agents]
    scale = math.lcm(*(c.denominator for c in mi.cost))
    cost = [int(c * scale) for c in mi.cost]
    # Guessing "adopt nothing" for every agent leaves only the costs.
    # With no rival platforms D = B at denominator counter 0, B*L scaled.
    B = [im.B for im in CompetitiveInstance(mi, ()).curves]
    guesses = multi_agent_guesses(mi, (INF, INF))
    coeffs, M = slot_coefficients(guesses, B, cost, scale)
    assert tuple(F(c, M) for c in coeffs) == tuple(-c for c in mi.cost)
    # Guessing the minimum potential makes every state revenue-bearing;
    # take D = B for every agent.
    guesses = multi_agent_guesses(mi, tuple(min(dp.phi) for dp in dps))
    coeffs, M = slot_coefficients(guesses, B, cost, scale)
    D = tuple(dp.B for dp in dps)
    for j in range(mi.n):
        expected = -mi.cost[j] + sum(
            a.d[j] * dp.w[j] / D[i] for i, (a, dp) in enumerate(zip(mi.agents, dps))
        )
        assert F(coeffs[j], M) == expected


def test_single_agent_matches_designer_oracle():
    for seed in range(30):
        mi = gen_random_multi_agent(3, 1, seed=100 + seed)
        result = multi_agent_solve(mi)
        exact = designer_oracle(mi.agents[0])
        assert result.profit == max(exact.profit, F(0))
        if exact.profit > 0:
            assert result.profit == exact.profit


def test_two_identical_agents_double_the_revenue():
    for seed in range(10):
        a = gen_random_multi_agent(3, 1, seed=200 + seed).agents[0]
        mi = build_multi_agent_instance([a, a], delta=F(1), delta_prime=F(1, 4))
        for S in all_subsets(3):
            single = multi_agent_profit(
                build_multi_agent_instance([a], F(1), F(1, 4)), S
            )
            cost = sum(mi.cost[j - 1] for j in S)
            assert multi_agent_profit(mi, S) == 2 * (single + cost) - cost


def test_solve_matches_brute_force():
    for seed in range(30):
        n = 2 + seed % 2
        mi = gen_random_multi_agent(n, 2, seed=300 + seed)
        result = multi_agent_solve(mi)
        value, states = brute_force_multi(mi)
        assert result.profit == value
        assert multi_agent_profit(mi, result.states) == result.profit


def _dp_work(monkeypatch, run):
    """run(), or the TooLarge it raised, and the units of work of each
    threshold DP it ran, in order."""
    made = []

    class Recorded(multiagent._Work):
        def __init__(self):
            super().__init__()
            made.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(multiagent, "_Work", Recorded)
        try:
            result = run()
        except TooLarge as refusal:
            result = refusal
    return result, [work.units for work in made]


def _dp_units(monkeypatch, solve, inst):
    """solve(inst), and the units of work its one threshold DP did."""
    result, units = _dp_work(monkeypatch, lambda: solve(inst))
    assert len(units) == 1
    return result, units[0]


def test_solve_guard(monkeypatch):
    # The DP counts its work as it goes: it solves within exactly the units
    # it needs and raises TooLarge with one unit fewer.
    mi = gen_random_multi_agent(3, 2, seed=6)
    unpatched, units = _dp_units(monkeypatch, multi_agent_solve, mi)
    monkeypatch.setattr(multiagent, "_DP_WORK", units)
    assert multi_agent_solve(mi) == unpatched
    monkeypatch.setattr(multiagent, "_DP_WORK", units - 1)
    with pytest.raises(TooLarge, match=f"^the threshold DP needs more than {units - 1} units"):
        multi_agent_solve(mi)


def test_dp_work_admits_many_agents_on_few_states():
    # Four agents over six states: the (theta, D) product holds 43,184,232
    # guesses, but the DP does about 10^4 units of work.
    mi = gen_random_multi_agent(6, 4, seed=1)
    result = multi_agent_solve(mi)
    value, states = brute_force_multi(mi)
    assert result.profit == value
    assert multi_agent_profit(mi, result.states) == result.profit


def test_dp_work_refuses_as_the_tables_grow(monkeypatch):
    # (10, 2) has only 12 theta combinations, but the tables it grows need
    # about 2.5 * 10^5 units.
    mi = gen_random_multi_agent(10, 2, seed=1)
    monkeypatch.setattr(multiagent, "_DP_WORK", 10**4)
    with pytest.raises(TooLarge, match="^the threshold DP needs more than 10000 units"):
        multi_agent_solve(mi)


def doubling_levels_instance(n):
    """One agent on n states with z = 1, 2, 4, ..., 2^(n-1) and every phi 2:
    under its lowest theta guess it picks every state, so the D it reaches
    and its shift pairs number 2^n."""
    p, q, c_life = [F(1, n)] * n, [F(1, 2)] * n, [F(0)] * n
    y, c_platform = [], []
    for j in range(n):
        lam = p[j] / (1 - q[j])
        w = lam + 2**j
        y.append((1 - q[j]) - p[j] / w)
        c_platform.append(2 * 2**j / w)
    agent = build_flower_instance(p, q, y, c_life, c_platform, [F(1)] * n, [F(1)] * n)
    return build_multi_agent_instance([agent], F(1), F(1, 4))


def test_dp_work_counts_the_pair_set_as_it_grows(monkeypatch):
    # 2^20 reachable shift pairs: the budget must stop the pair set while
    # agent_guesses grows it, at no more than twice the budget, not once it is
    # built or in a later stage.
    mi = doubling_levels_instance(20)
    largest = []

    class Recorded(multiagent._Work):
        def add(self, units):
            largest.append(units)
            super().add(units)

    monkeypatch.setattr(multiagent, "_Work", Recorded)
    monkeypatch.setattr(multiagent, "_DP_WORK", 10**4)
    with pytest.raises(TooLarge, match="^the threshold DP needs more than 10000 units") as info:
        multi_agent_solve(mi)
    # competitive_solve builds every guess before it combines any.
    assert any(entry.name == "agent_guesses" for entry in info.traceback)
    assert max(largest) <= 2 * 10**4


def test_dp_work_figures(monkeypatch):
    # The figures README.md gives for the _DP_WORK guard.
    mi = gen_random_multi_agent(12, 2, seed=1)
    result, units = _dp_work(monkeypatch, lambda: multi_agent_solve(mi))
    assert isinstance(result, DesignSet) and units == [591_715]
    for shape, refused_at in [((10, 3), 1_000_188), ((14, 2), 1_004_587)]:
        mi = gen_random_multi_agent(*shape, seed=1)
        result, units = _dp_work(monkeypatch, lambda: multi_agent_solve(mi))
        assert isinstance(result, TooLarge) and units == [refused_at], shape


def test_dp_work_baselines(monkeypatch):
    # The DesignSets and units of work of two seeded solves, with the budget
    # out of the way: a baseline for changes to the guess order.
    monkeypatch.setattr(multiagent, "_DP_WORK", 10**7)
    for shape, states, profit, want in [
        ((8, 3, 1), {1, 4}, F(7662403391, 842539860), 121_044),
        ((10, 2, 1), {3, 6, 10}, F(225697, 36332), 245_722),
    ]:
        mi = gen_random_multi_agent(*shape[:2], seed=shape[2])
        result, units = _dp_work(monkeypatch, lambda: multi_agent_solve(mi))
        assert (result, units) == (DesignSet(frozenset(states), profit), [want]), shape


def test_competitive_solve_makes_one_fraction(monkeypatch):
    # The threshold DP works on integers from the curve entries to its
    # best slot: its one Fraction is the returned profit, whatever the
    # number of agents, rivals and curve entries.
    made = []
    real = multiagent.Fraction

    def counting(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(multiagent, "Fraction", counting)
    for n, k, seed in [(3, 1, 21), (4, 2, 22), (3, 3, 23)]:
        mi = gen_random_multi_agent(n, k, seed=seed)
        ci = build_competitive_instance(mi, random_externals(mi, seed, count=3))
        made.clear()
        result = competitive_solve(ci)
        assert sum(len(im.entries) for im in ci.curves) > n
        assert made == [result.profit]


def test_quantization_grid_only_validates(monkeypatch):
    """Rebuilt on delta / m and delta_prime / m (m = 2, 3), seeded
    multi-agent and competitive instances and the no-nash game's best
    responses give the same DesignSets from the same units of work per
    threshold DP, and a flower's FPTAS on delta / 2 gives the same
    DesignSet, bins included: no table is kept in the grid's units."""
    shapes = [(6, 2, 1), (8, 3, 1), (5, 3, 4)]
    instances = [gen_random_multi_agent(n, k, seed=seed) for n, k, seed in shapes]
    g = gen_no_nash_game()

    def solve_all(m):
        got = []
        for idx, mi in enumerate(instances):
            fine = build_multi_agent_instance(mi.agents, mi.delta / m, mi.delta_prime / m)
            ci = build_competitive_instance(fine, random_externals(mi, idx))
            got.append(_dp_work(monkeypatch, lambda: multi_agent_solve(fine)))
            got.append(_dp_work(monkeypatch, lambda: competitive_solve(ci)))
        fine = build_game_instance(g.chassis, g.designers, g.delta / m, g.delta_prime / m)
        for designer, built in itertools.product(range(2), all_subsets(g.n)):
            got.append(_dp_work(monkeypatch, lambda: best_response(fine, designer, (built, built))))
        return got

    coarse = solve_all(1)
    assert all(isinstance(result, DesignSet) for result, _ in coarse)
    assert solve_all(2) == coarse
    assert solve_all(3) == coarse

    flower = gen_random_flower(12, seed=5)
    qi = preprocess(flower)
    coarse = fptas_solve(qi)
    assert fptas_solve(preprocess(flower, delta=table_bound_grid(qi)[0] / 2)) == coarse
    assert coarse.bins > 1


def narrow_multi_agent(n, k, seed):
    """gen_random_multi_agent(n, k, seed) with potentials phi in 0..2 quarters
    and demands d in 0..2 instead of 0..12 and 0..8, so that ties repeat.
    The random draws come in the generator's order."""
    rng = random.Random(seed)
    cost = [F(rng.randint(1, 5), 4) for _ in range(n)]
    agents = []
    for _ in range(k):
        weights = [rng.randint(1, 9) for _ in range(n)]
        p = [F(wt, sum(weights)) for wt in weights]
        q = [F(rng.randint(1, 8), 10) for _ in range(n)]
        c_life = [F(rng.randint(0, 2), 4) for _ in range(n)]
        y, c_platform = [], []
        for i in range(n):
            lam = p[i] / (1 - q[i])
            z = F(rng.randint(1, 2))
            w = lam + z
            y.append((1 - q[i]) - p[i] / w)
            phi = rng.randint(0, 2) * F(1, 4)
            c_platform.append((phi * z + lam * c_life[i]) / w)
        d = [F(rng.randint(0, 2)) for _ in range(n)]
        agents.append(build_flower_instance(p, q, y, c_life, c_platform, d, cost))
    return build_multi_agent_instance(agents, F(1), F(1, 4))


def random_externals(mi, seed, count=None, phi_levels=10):
    rng = random.Random(seed)
    externals = []
    for idx in range(rng.randint(1, 3) if count is None else count):
        state = rng.randint(1, mi.n)
        z = tuple(F(rng.randint(1, 2)) * mi.delta for _ in range(mi.k))
        phi = tuple(F(rng.randint(0, phi_levels)) * mi.delta_prime for _ in range(mi.k))
        externals.append(ExternalPlatform(f"x{idx}", state, z, phi))
    return externals


# (n, k) shapes the Fraction references solve in a few milliseconds, and
# larger ones (about 0.1 s each) for every twentieth instance.
SMALL_SHAPES = [(n, k) for n in range(1, 6) for k in range(1, 4) if n * k <= 6]
LARGE_SHAPES = [(4, 2), (5, 2), (3, 3)]


def reference_shape(idx):
    if idx % 20 == 19:
        return LARGE_SHAPES[idx // 20 % len(LARGE_SHAPES)]
    return SMALL_SHAPES[idx % len(SMALL_SHAPES)]


def test_integer_core_matches_references():
    """States and profit equal the Fraction references on 200 seeded
    instances; every third draws from narrow ranges, where slots tie and
    the tie-break on state tuples decides.  The partition fixtures have
    identical petals, so tied slots also share a key."""
    for a in [(1, 1), (1, 2)]:
        mi = gen_two_agent_partition(a).mi
        ci = build_competitive_instance(mi, random_externals(mi, len(a), count=1))
        for solve, reference, inst in [
            (multi_agent_solve, reference_multi_agent_solve, mi),
            (competitive_solve, reference_competitive_solve, ci),
        ]:
            got, want = solve(inst), reference(inst)
            assert (got.states, got.profit) == (want.states, want.profit), a
    for idx in range(200):
        n, k = reference_shape(idx)
        narrow = idx % 3 == 0
        mi = (narrow_multi_agent if narrow else gen_random_multi_agent)(n, k, seed=700 + idx)
        got = multi_agent_solve(mi)
        want = reference_multi_agent_solve(mi)
        assert (got.states, got.profit) == (want.states, want.profit), idx
        externals = random_externals(mi, idx, count=idx % 4, phi_levels=2 if narrow else 10)
        ci = build_competitive_instance(mi, externals)
        got = competitive_solve(ci)
        want = reference_competitive_solve(ci)
        assert (got.states, got.profit) == (want.states, want.profit), idx


def test_curve_pool_rejects_a_shared_id():
    # A curve pool finds each external's point by id, so an instance built
    # past build_competitive_instance with two externals of one id fails
    # rather than price one of them at the other's point.
    mi = gen_random_multi_agent(2, 1, seed=3)
    externals = (
        ExternalPlatform("x", 1, (mi.delta,), (40 * mi.delta_prime,)),
        ExternalPlatform("x", 2, (2 * mi.delta,), (mi.delta_prime,)),
    )
    with pytest.raises(ValueError, match="two external platforms share an id"):
        competitive_profit(CompetitiveInstance(mi, externals), {1})
    with pytest.raises(ValueError, match="is used twice"):
        build_competitive_instance(mi, externals)


def off_grid_instances():
    """Competitive instances built past build_competitive_instance with
    externals whose z is off the delta grid, which gives the designer's
    candidate a denominator shift off the grid where such an external is
    the fallback it replaces: k = 1 with one external, and k = 2 with two."""
    mi = gen_random_multi_agent(1, 1, seed=11)
    yield CompetitiveInstance(mi, (ExternalPlatform("x", 1, (mi.delta / 2,), (F(0),)),))
    mi = gen_random_multi_agent(2, 2, seed=11)
    half = mi.delta / 2
    yield CompetitiveInstance(
        mi,
        (
            ExternalPlatform("x", 1, (half, half), (F(0), F(0))),
            ExternalPlatform("y", 2, (half, 3 * half), (F(1, 4), F(0))),
        ),
    )


def test_competitive_solves_shifts_off_the_grid():
    # The DP keys each pick on its exact shifts, so delta only validates
    # documents: an instance whose shifts leave the grid gets its exact
    # optimum, and build_competitive_instance still refuses its externals.
    for ci in off_grid_instances():
        taus = {
            F(t, im.L) for im in ci.curves for g in agent_guesses(im, multiagent._Work()) for t in g.tau
        }
        assert any(t % ci.mi.delta for t in taus)
        result = competitive_solve(ci)
        assert result.profit == max(competitive_profit(ci, S) for S in all_subsets(ci.mi.n))
        assert competitive_profit(ci, result.states) == result.profit
        with pytest.raises(QuantizationError) as info:
            build_competitive_instance(ci.mi, ci.externals)
        assert str(info.value) == "external 'x', agent 1: z = 1/2 is not a positive multiple of 1"


def test_competitive_empty_externals_matches_multi_agent():
    for seed in range(20):
        n = 2 + seed % 2
        mi = gen_random_multi_agent(n, 2, seed=400 + seed)
        ci = build_competitive_instance(mi, [])
        assert competitive_solve(ci).profit == multi_agent_solve(mi).profit
        for S in all_subsets(n):
            assert competitive_profit(ci, S) == multi_agent_profit(mi, S)


def test_competitive_matches_brute_force():
    for seed in range(30):
        n = 2 + seed % 2
        mi = gen_random_multi_agent(n, 2, seed=500 + seed)
        ci = build_competitive_instance(mi, random_externals(mi, seed))
        result = competitive_solve(ci)
        value, states = brute_force_competitive(ci)
        assert result.profit == value
        assert competitive_profit(ci, result.states) == result.profit


def test_competitive_build_validation():
    mi = gen_random_multi_agent(3, 2, seed=7)
    with pytest.raises(ValueError):
        build_competitive_instance(
            mi, [ExternalPlatform("x", 9, (F(1), F(1)), (F(0), F(0)))]
        )
    with pytest.raises(ValueError):
        build_competitive_instance(mi, [ExternalPlatform("x", 1, (F(1),), (F(0),))])
    with pytest.raises(QuantizationError):
        build_competitive_instance(
            mi, [ExternalPlatform("x", 1, (F(1, 3), F(1)), (F(0), F(0)))]
        )
    with pytest.raises(QuantizationError):
        build_competitive_instance(
            mi, [ExternalPlatform("x", 1, (F(1), F(1)), (F(1, 7), F(0)))]
        )


def test_competitive_guard(monkeypatch):
    mi = gen_random_multi_agent(3, 2, seed=8)
    ci = build_competitive_instance(mi, random_externals(mi, 8))
    unpatched, units = _dp_units(monkeypatch, competitive_solve, ci)
    monkeypatch.setattr(multiagent, "_DP_WORK", units)
    assert competitive_solve(ci) == unpatched
    monkeypatch.setattr(multiagent, "_DP_WORK", units - 1)
    with pytest.raises(TooLarge, match=f"^the threshold DP needs more than {units - 1} units"):
        competitive_solve(ci)


def test_competitive_build_holds_externals_to_the_level_ceiling():
    # An external's levels z/delta and phi/delta_prime are capped at 10^12,
    # as an agent's are.  An off-grid value's message names the external,
    # the agent, the value and the step, in the shape an agent's takes.
    mi = gen_random_multi_agent(2, 2, seed=7)
    far = 10**13
    for z, phi, message in [
        (
            (far * mi.delta, F(1)), (F(0), F(0)),
            "external 'x', agent 1: quantization level exceeds 1000000000000",
        ),
        (
            (F(1), F(1)), (F(0), far * mi.delta_prime),
            "external 'x', agent 2: quantization level exceeds 1000000000000",
        ),
        (
            (F(1), -F(1)), (F(0), F(0)),
            "external 'x', agent 2: z = -1 is not a positive multiple of 1",
        ),
        (
            (F(1), F(1)), (F(1, 7), F(0)),
            "external 'x', agent 1: phi = 1/7 is not a nonnegative multiple of 1/4",
        ),
    ]:
        with pytest.raises(QuantizationError) as info:
            build_competitive_instance(mi, [ExternalPlatform("x", 1, z, phi)])
        assert str(info.value) == message
    at_ceiling = ExternalPlatform("x", 1, (10**12 * mi.delta, F(1)), (F(0), F(0)))
    assert build_competitive_instance(mi, [at_ceiling]).externals == (at_ceiling,)


def test_dominant_externals_kill_the_market():
    # An external platform at every state with an overwhelming potential
    # and the same z leaves the designer nothing worth building.
    mi = gen_random_multi_agent(2, 2, seed=9)
    dps = [derived_params(a) for a in mi.agents]
    externals = [
        ExternalPlatform(
            f"x{j}",
            j,
            tuple(dp.z[j - 1] for dp in dps),
            tuple(dp.phi[j - 1] + 100 for dp in dps),
        )
        for j in range(1, 3)
    ]
    ci = build_competitive_instance(mi, externals)
    result = competitive_solve(ci)
    assert result.states == frozenset()
    assert result.profit == 0


# The threshold DP before its key-only pass: one valued subset DP per
# (theta combination, D option), most of which hold no consistent slot.
# It and the combination DP below read the two-loop reference's guesses
# and options over the entries' theta grids, not agent_guesses.


def _valued_threshold_dp(ci):
    mi = ci.mi
    grids = _entry_grids(ci)
    k = mi.k
    cost_scale, cost = scale_to_integers(mi.cost)
    guesses = [
        [
            two_loop_agent_guess(im, theta, theta_next, mi.delta, mi.delta_prime)
            for theta, theta_next in _windows(grid)
        ]
        for grid, im in zip(grids, ci.curves)
    ]

    best = None  # (value numerator, its denominator, states)
    for choice in itertools.product(*guesses):
        combo, options = zip(*choice)
        steps = [
            tuple(g.a_steps[j] for g in combo) + tuple(g.b_steps[j] for g in combo)
            for j in range(mi.n)
        ]
        moves = [any(step) for step in steps]
        for option in itertools.product(*options):
            coeffs, M = slot_coefficients(combo, [o[1] for o in option], cost, cost_scale)
            table = {(0,) * (2 * k): (0, ())}
            for t, (step, c) in enumerate(zip(steps, coeffs), 1):
                if not moves[t - 1] and c <= 0:
                    continue  # the slot stays put and the value cannot rise
                for key, (val, states) in list(table.items()):
                    new_key = tuple(map(int.__add__, key, step))
                    cand = (val + c, states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            levels = tuple(o[0] for o in option)
            for key, (val, states) in table.items():
                if key[k:] != levels:
                    continue
                if all(
                    lo <= a and (hi is None or a <= hi)
                    for a, (_, _, lo, hi) in zip(key, option)
                ):
                    if best is None:
                        best = (val, M, states)
                        continue
                    cmp = val * best[1] - best[0] * M
                    if cmp > 0 or (cmp == 0 and states < best[2]):
                        best = (val, M, states)
    if best is None:
        raise RuntimeError("the threshold DP found no consistent (theta, D) guess")
    return DesignSet(frozenset(best[2]), F(best[0], best[1]))


def random_game(seed):
    """Two designers over a random quantized chassis: n 2-4, k 1-2."""
    rng = random.Random(seed)
    n, k = 2 + seed % 3, 1 + seed // 3 % 2
    chassis = gen_random_multi_agent(n, k, seed=seed).agents
    designers = [
        [
            Candidate(
                j,
                tuple(F(rng.randint(1, 2)) for _ in range(k)),
                tuple(F(rng.randint(0, 12), 4) for _ in range(k)),
                tuple(F(rng.randint(0, 8)) for _ in range(k)),
                F(rng.randint(1, 5), 4),
            )
            for j in range(1, n + 1)
        ]
        for _ in range(2)
    ]
    return build_game_instance(chassis, designers, F(1), F(1, 4))


def _competitive_solve(ci):
    """competitive_solve, looked up on the module at each call."""
    return multiagent.competitive_solve(ci)


def _threshold_dp_cases():
    """(solve, instance) pairs that run the threshold DP: seeded
    multi-agent and competitive instances, a two-agent partition fixture
    and game best responses."""
    cases = []
    for idx in range(60):
        n, k = reference_shape(idx)
        generate = narrow_multi_agent if idx % 3 == 0 else gen_random_multi_agent
        mi = generate(n, k, seed=900 + idx)
        cases.append((multi_agent_solve, mi))
        ci = build_competitive_instance(mi, random_externals(mi, idx, count=1 + idx % 3))
        cases.append((_competitive_solve, ci))
    cases.append((multi_agent_solve, gen_two_agent_partition((1, 2, 3)).mi))
    rng = random.Random(17)
    for g in [gen_no_nash_game()] + [random_game(seed) for seed in range(12)]:
        for designer in range(2):
            profile = tuple(
                frozenset(j for j in range(1, g.n + 1) if rng.random() < 0.5) for _ in range(2)
            )
            cases.append((lambda view: best_response(*view), (g, designer, profile)))
    return cases


def _assert_threshold_dp_matches(monkeypatch, cases, reference):
    """States and exact profit of every case equal those with
    competitive_solve, which runs the threshold DP for every case, swapped
    for reference."""
    got = [run(inst) for run, inst in cases]
    monkeypatch.setattr(multiagent, "competitive_solve", reference)
    monkeypatch.setattr(game, "competitive_solve", reference)
    want = [run(inst) for run, inst in cases]
    for idx, (g, w) in enumerate(zip(got, want)):
        assert (g.states, g.profit) == (w.states, w.profit), idx


def test_key_only_pass_matches_valued_dp(monkeypatch):
    """States and exact profit equal the valued reference on seeded
    multi-agent and competitive instances and on game best responses."""
    _assert_threshold_dp_matches(monkeypatch, _threshold_dp_cases(), _valued_threshold_dp)


# The threshold DP before the per-agent pass: every theta combination is
# walked, and each reachable key is checked against the windows of the
# option its denominator counters fix.


def _ref_in_windows(numerators, option):
    return all(map(_in_window, numerators, option))


def _combination_threshold_dp(ci):
    mi = ci.mi
    grids = _entry_grids(ci)
    k = mi.k
    cost_scale, cost = mi.integer_cost
    guesses = [
        [
            two_loop_agent_guess(im, theta, theta_next, mi.delta, mi.delta_prime)
            for theta, theta_next in _windows(grid)
        ]
        for grid, im in zip(grids, ci.curves)
    ]

    best = None  # (value numerator, its denominator, states)
    for choice in itertools.product(*guesses):
        combo, options = zip(*choice)
        steps = [
            tuple(g.a_steps[j] for g in combo) + tuple(g.b_steps[j] for g in combo)
            for j in range(mi.n)
        ]
        moves = [any(step) for step in steps]
        keys = {(0,) * (2 * k)}
        for step, move in zip(steps, moves):
            if move:
                keys |= {tuple(map(int.__add__, key, step)) for key in keys}
        numerators = {}
        for key in keys:
            numerators.setdefault(key[k:], []).append(key[:k])
        by_level = [{o[0]: o for o in opts} for opts in options]
        for levels, nums in numerators.items():
            option = tuple(opts[level] for opts, level in zip(by_level, levels))
            if not any(_ref_in_windows(a, option) for a in nums):
                continue
            coeffs, M = slot_coefficients(combo, [o[1] for o in option], cost, cost_scale)
            table = {(0,) * (2 * k): (0, ())}
            for t, (step, c) in enumerate(zip(steps, coeffs), 1):
                if not moves[t - 1] and c <= 0:
                    continue
                for key, (val, states) in list(table.items()):
                    new_key = tuple(map(int.__add__, key, step))
                    cand = (val + c, states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            for key, (val, states) in table.items():
                if key[k:] == levels and _ref_in_windows(key, option):
                    if best is None:
                        best = (val, M, states)
                        continue
                    cmp = val * best[1] - best[0] * M
                    if cmp > 0 or (cmp == 0 and states < best[2]):
                        best = (val, M, states)
    if best is None:
        raise RuntimeError("the threshold DP found no consistent (theta, D) guess")
    return DesignSet(frozenset(best[2]), F(best[0], best[1]))


def _three_agent_cases():
    """Seeded multi-agent and competitive instances with k = 3, where
    dropping guesses prunes the most combinations."""
    cases = []
    for idx in range(12):
        n = 3 + idx % 3
        generate = narrow_multi_agent if idx % 3 == 0 else gen_random_multi_agent
        mi = generate(n, 3, seed=1300 + idx)
        cases.append((multi_agent_solve, mi))
        ci = build_competitive_instance(mi, random_externals(mi, idx, count=1 + idx % 3))
        cases.append((_competitive_solve, ci))
    return cases


def test_guess_prefilter_matches_combination_dp(monkeypatch):
    """States and exact profit equal the reference that walks every theta
    combination, on the cases of the valued-DP test and on k = 3."""
    cases = _threshold_dp_cases() + _three_agent_cases()
    _assert_threshold_dp_matches(monkeypatch, cases, _combination_threshold_dp)


def _brute_kept_pairs(g, options):
    """g.kept by enumerating the subsets of the states g picks and reading
    each pair's window off its level's option."""
    picked = [j for j, m in enumerate(g.member) if m]
    by_level = {o[0]: o for o in options}
    kept = {}
    for size in range(len(picked) + 1):
        for S in itertools.combinations(picked, size):
            pair = (sum(g.a_steps[j] for j in S), sum(g.b_steps[j] for j in S))
            option = by_level[pair[1]]
            if _in_window(pair[0], option):
                kept[pair] = option[1]
    return kept


def _empty_offer_utility(base, dp):
    """The agent's utility over its rival curves base when the designer
    offers nothing."""
    if not base:
        return dp.A / dp.B
    return multi_greedy_solve(base, dp.A, dp.B).utility


def test_kept_pairs_match_brute_force():
    """Each guess keeps exactly the shift pairs of the counter pairs some
    subset of its picked states reaches inside the window of its level's
    option in the two-loop reference, so a guess is dropped iff no such
    pair exists.  The guess
    whose window holds the agent's utility under the empty offer keeps the
    empty slot, so every agent keeps a guess."""
    instances = []
    for idx in range(40):
        n, k = (3 + idx % 2, 3) if idx % 4 == 3 else reference_shape(idx)
        mi = gen_random_multi_agent(n, k, seed=1500 + idx)
        instances.append(CompetitiveInstance(mi, ()))
        instances.append(build_competitive_instance(mi, random_externals(mi, idx)))
    dropped = 0
    for ci in instances:
        steps = ci.mi.delta, ci.mi.delta_prime
        for i, (grid, im) in enumerate(zip(_solve_grids(ci), ci.curves)):
            u0 = _empty_offer_utility(_ref_agent_curves(ci, i)[0], ci.mi.params[i])
            holders = 0
            for theta, theta_next, g in windowed_guesses(im, grid):
                ref, options = two_loop_agent_guess(im, theta, theta_next, *steps)
                brute = replace(ref, kept=_brute_kept_pairs(ref, options))
                assert g.kept == in_shifts(brute, im.L, *steps).kept, (theta, theta_next)
                dropped += not g.kept
                if theta_next <= u0 and (theta is INF or u0 < theta):
                    holders += 1
                    assert (0, 0) in g.kept, (theta, theta_next, u0)
            assert holders == 1, u0
    # The prefilter has guesses to drop on these instances.
    assert dropped > 0


def _ref_grid(base, with_own):
    """An agent's theta grid: every psi of its Fraction Pareto curves."""
    return theta_grid(
        psi for curve in itertools.chain(base.values(), with_own.values()) for psi in curve.psi
    )


def _solve_grids(ci):
    """Each agent's theta grid over its Fraction Pareto curves: the
    windows of the guesses agent_guesses yields, in order."""
    return [_ref_grid(*_ref_agent_curves(ci, i)) for i in range(ci.mi.k)]


def _guess_key(g):
    """A hashable stand-in for an AgentGuess, whose kept is a dict."""
    return g.member, g.sigma, g.tau, tuple(sorted(g.kept.items()))


def _consistent_pairs(ci):
    """Every (theta combination, D) pair that holds a consistent slot key,
    found by enumerating the subsets of the states and the two-loop
    reference's options."""
    mi = ci.mi
    steps = mi.delta, mi.delta_prime
    guesses = [
        [
            (two_loop_agent_guess(im, theta, theta_next, *steps), im.L)
            for theta, theta_next in _windows(grid)
        ]
        for grid, im in zip(_solve_grids(ci), ci.curves)
    ]
    pairs = Counter()
    attempted = 0
    for choice in itertools.product(*guesses):
        (combo, options), scales = zip(*(guess for guess, _ in choice)), [L for _, L in choice]
        keys = {
            tuple(sum(g.a_steps[j - 1] for j in S) for g in combo)
            + tuple(sum(g.b_steps[j - 1] for j in S) for g in combo)
            for S in all_subsets(mi.n)
        }
        for option in itertools.product(*options):
            attempted += 1
            if any(
                all(
                    b == level and lo <= a and (hi is None or a <= hi)
                    for a, b, (level, _, lo, hi) in zip(key, key[mi.k :], option)
                )
                for key in keys
            ):
                solver_guesses = (in_shifts(g, L, *steps) for g, L in zip(combo, scales))
                pairs[tuple(map(_guess_key, solver_guesses)), tuple(o[1] for o in option)] += 1
    return pairs, attempted


def test_threshold_dp_values_only_consistent_options(monkeypatch):
    """One valued DP (one slot_coefficients call) per (theta combination,
    D) pair that holds a consistent key, and no other."""
    calls = Counter()

    def counting(guesses, denominators, *args):
        calls[tuple(map(_guess_key, guesses)), tuple(denominators)] += 1
        return slot_coefficients(guesses, denominators, *args)

    monkeypatch.setattr(multiagent, "slot_coefficients", counting)
    useful = attempted = 0
    for idx in range(40):
        n, k = reference_shape(idx)
        mi = gen_random_multi_agent(n, k, seed=1100 + idx)
        for ci in [CompetitiveInstance(mi, ()), build_competitive_instance(mi, random_externals(mi, idx))]:
            pairs, tried = _consistent_pairs(ci)
            calls.clear()
            competitive_solve(ci)
            assert calls == pairs, idx
            useful += sum(pairs.values())
            attempted += tried
    # The valued DP used to run on every option; most hold no consistent key.
    assert useful < attempted // 2, (useful, attempted)


def _hand_guess(lo, hi):
    """One agent picking state 1 only: its one nonempty slot key is
    (3, 1), so each window below holds that key at an edge.  Its kept
    pairs are read off the options (denominator shift, D, lo, hi)."""
    options = ((0, 2, 4, None), (1, 3, lo, hi))
    kept = kept_from_options((3, 0), (1, 0), options)
    return AgentGuess(member=(True, False), sigma=(3, 0), tau=(1, 0), dw=(12, 0), kept=kept)


@pytest.mark.parametrize(
    "lo, hi",
    [(3, 7), (0, 3), (3, None), (-5, None)],
    ids=["on-lo", "on-hi", "on-lo-unbounded", "unbounded"],
)
def test_threshold_dp_keeps_slot_on_window_edge(monkeypatch, lo, hi):
    # Shift 0's window (numerator 4 and up) misses the empty key, so the
    # slot of {1} at denominator shift 1, D = 3, is the only consistent one, and
    # skipping its D leaves no candidate.
    mi = gen_random_multi_agent(2, 1, seed=12)
    monkeypatch.setattr(multiagent, "agent_guesses", lambda im, work: [_hand_guess(lo, hi)])
    calls = []

    def counting(guesses, denominators, *args):
        calls.append(denominators)
        return slot_coefficients(guesses, denominators, *args)

    monkeypatch.setattr(multiagent, "slot_coefficients", counting)
    result = competitive_solve(CompetitiveInstance(mi, ()))
    assert calls == [(3,)]
    assert result == DesignSet(frozenset({1}), F(12, 3) - mi.cost[0])


@pytest.mark.parametrize("lo, hi", [(4, None), (0, 2), (3, 2)], ids=["above", "below", "empty"])
def test_threshold_dp_raises_when_no_guess_is_kept(monkeypatch, lo, hi):
    # Shift 0's window misses the empty key and shift 1's misses (3, 1), so
    # the one guess keeps no shift pair and no valued DP runs.
    mi = gen_random_multi_agent(2, 1, seed=12)
    monkeypatch.setattr(multiagent, "agent_guesses", lambda im, work: [_hand_guess(lo, hi)])
    monkeypatch.setattr(multiagent, "slot_coefficients", None)
    with pytest.raises(RuntimeError, match="no consistent \\(theta, D\\) guess"):
        competitive_solve(CompetitiveInstance(mi, ()))


@pytest.mark.parametrize(
    "theta, theta_next, kept",
    [
        (F(3), F(2), {(3, 1): 2}),
        (F(5, 2), F(3, 2), {(3, 1): 2}),
        (F(3), F(9, 4), {}),
        (F(2), F(3, 2), {}),
    ],
    ids=["on-lo", "on-hi", "under-lo", "on-theta"],
)
def test_agent_guess_keeps_pairs_on_window_edges(theta, theta_next, kept):
    # A = B = 1 over L = 1, and the designer's candidate at state 1 shifts
    # the utility's numerator by 3 and its denominator by 1.  The empty
    # slot's utility 1 lies under every window.  That of {1}, (1 + 3) /
    # (1 + 1) = 2 with D = 2, lies on theta_next (on-lo); just under theta,
    # which numerator shift 4 would reach (on-hi); under theta_next
    # (under-lo); and on theta (on-theta).  The entries' psi set the
    # window of agent_guesses' second guess: the candidate's is theta, and
    # a point of no one's own on state 2's inserted curve has theta_next.
    own, rival = Platform(("own", 1), 1, F(1), F(3), own=True), Platform("r", 2, F(1), F(1))
    entries = (
        CurveEntry(theta.numerator, theta.denominator, 1, 0, z=1, zphi=3, platform=own, inserted=True),
        CurveEntry(theta_next.numerator, theta_next.denominator, 2, 0, 1, 1, platform=rival, inserted=True),
    )
    im = CurveImage(L=1, A=1, B=1, dw=(12, 0), entries=entries)
    _, g, _ = agent_guesses(im, multiagent._Work())
    assert (g.member, g.sigma, g.tau) == ((True, False), (3, 0), (1, 0))
    assert g.kept == kept


def edge_instances():
    """Competitive instances whose utilities fall on and just under window
    bounds.  One agent with lambda = 1 at both states (A = 0, B = 3) sees
    two rivals at state 1, at points (1, 4) and (3, 9), so its curves there
    have slopes 4 and 5/2; the designer's candidate at state 1 is
    dominated, and the one at state 2 ranges over z in 1..3 and phi in
    0, 1/2, ..., 10.  Under the window [5/2, 4) the agent falls back on the
    rival at (1, 4): picking (z, phi) = (1, 8) gives utility 12/5, 1/10
    under theta_next, where the numerator bound 17/2 lies half a unit above
    the shift 8."""
    half = F(1, 2)
    rivals = [ExternalPlatform("r1", 1, (F(1),), (F(4),)), ExternalPlatform("r2", 1, (F(3),), (F(3),))]
    for z in (1, 2, 3):
        for phi in range(21):
            agent = build_flower_from_potentials(
                [half] * 2, [half] * 2, [F(0)] * 2, [F(1), F(z)], [F(0), phi * half], [F(1)] * 2, [F(1)] * 2
            )
            mi = build_multi_agent_instance([agent], F(1), half)
            yield build_competitive_instance(mi, rivals)


def brute_force_window(im, g, theta, theta_next):
    """The pairs AgentGuess g should keep, by enumerating the subsets of the
    states it picks on Fractions, and the edges they meet: a shift a whose
    window bound x (theta_next * D - a_hat, or theta * D - a_hat) has a = x
    (on) or a < x < a + 1 (under)."""
    fall = {}
    for e in im.entries:  # along a curve in idx order
        if not e.inserted and theta is not INF and F(e.psi, e.psi_den) >= theta:
            fall[e.state] = e
    a_hat = im.A + sum(e.zphi for e in fall.values())
    b_hat = im.B + sum(e.z for e in fall.values())
    picked = [j for j, m in enumerate(g.member) if m]
    kept, edges = {}, Counter()
    for S in itertools.chain.from_iterable(
        itertools.combinations(picked, size) for size in range(len(picked) + 1)
    ):
        a, b = sum(g.sigma[j] for j in S), sum(g.tau[j] for j in S)
        D = b_hat + b
        u = F(a_hat + a, D)
        if theta_next <= u and (theta is INF or u < theta):
            kept[a, b] = D
        for name, bound in (("theta_next", theta_next), ("theta", theta)):
            if bound is not INF:
                x = bound * D - a_hat
                edges[f"on {name}"] += a == x
                edges[f"under {name}"] += a < x < a + 1
    return kept, edges


def test_agent_guess_keeps_pairs_on_window_edges_of_real_curves():
    """On the curves of edge_instances, whose picks reach every edge of a
    window (on theta_next and theta, and less than one numerator unit under
    each), every guess keeps exactly the brute force's pairs."""
    edges = Counter()
    for ci in edge_instances():
        (grid,), (im,) = _entry_grids(ci), ci.curves
        for theta, theta_next, g in windowed_guesses(im, grid):
            kept, met = brute_force_window(im, g, theta, theta_next)
            assert g.kept == kept, (ci.mi.params[0].pairs, theta, theta_next)
            edges += met
    assert set(edges) == {"on theta_next", "under theta_next", "on theta", "under theta"}, edges


# The competitive layer on Fractions, as it stood before the curve images:
# the profit through multi_greedy_solve and the agent's guess read off the
# Pareto curves, with the agent's d*w and delta passed in.


def _ref_curves(ci):
    """Every agent's (base, with_own) Fraction Pareto curves."""
    return [_ref_agent_curves(ci, i) for i in range(ci.mi.k)]


def reference_competitive_profit(ci, ref_curves, S):
    """The profit of S, with ref_curves = _ref_curves(ci)."""
    S = frozenset(S)
    mi = ci.mi
    profit = -sum((mi.cost[j - 1] for j in S), F(0))
    for a, dp, (base, with_own) in zip(mi.agents, mi.params, ref_curves):
        curves = {s: with_own[s] for s in S}
        curves.update((s, curve) for s, curve in base.items() if s not in S)
        if not curves:
            continue
        sel = multi_greedy_solve(curves, dp.A, dp.B)
        den = dp.B + sum((pl.z for pl in sel.platforms), F(0))
        own_rev = sum(
            (a.d[pl.state - 1] * dp.w[pl.state - 1] for pl in sel.platforms if pl.own),
            F(0),
        )
        profit += own_rev / den
    return profit


def _ceil(x):
    return -(-x.numerator // x.denominator)


@dataclass(frozen=True)
class RefGuess:
    """A reference's guess on the quantization grid: picking state j+1
    adds a_steps[j] = sigma / (delta*delta') to the numerator counter and
    b_steps[j] = tau / delta to the denominator counter, and kept maps each
    counter pair the picks reach inside its window to its D*L.  member and
    dw are as in AgentGuess."""

    member: tuple[bool, ...]
    a_steps: tuple[int, ...]
    b_steps: tuple[int, ...]
    dw: tuple[int, ...]
    kept: dict[tuple[int, int], int]


def _whole(x):
    assert x.denominator == 1, x
    return x.numerator


def in_shifts(g, L, delta, delta_prime):
    """The AgentGuess a reference's RefGuess g stands for: each counter
    read as the shift it counts at scale L."""
    a_unit, b_unit = delta * delta_prime * L, delta * L

    def shift(a, b):
        return _whole(a * a_unit), _whole(b * b_unit)

    sigma, tau = zip(*map(shift, g.a_steps, g.b_steps))
    kept = {shift(*pair): D for pair, D in g.kept.items()}
    return AgentGuess(g.member, sigma, tau, g.dw, kept)


def _off_grid(state):
    return ValueError(f"state {state}: the shifts are not whole multiples of the grid")


def reference_agent_guess(curves, dp, dw, theta, theta_next, delta, dd):
    """The RefGuess on Fractions over one agent's (base, with_own) curves,
    its options (level, D*L, lo, hi), and the scale L of its dw and D."""
    base, with_own = curves
    fall = {}
    for s, curve in base.items():
        pick = None
        for idx, pl in enumerate(curve.platforms):
            if theta is not INF and curve.psi[idx] >= theta:
                pick = pl
        fall[s] = pick
    a_hat = dp.A + sum((pl.z * pl.phi for pl in fall.values() if pl), F(0))
    b_hat = dp.B + sum((pl.z for pl in fall.values() if pl), F(0))
    n = dp.n
    member = [False] * n
    a_steps, b_steps = [0] * n, [0] * n
    for s, curve in with_own.items():
        for idx, pl in enumerate(curve.platforms):
            selected = (
                pl.own
                and theta is not INF
                and curve.psi[idx] >= theta
                and (idx + 1 == len(curve.platforms) or curve.psi[idx + 1] <= theta_next)
            )
            if selected:
                f = fall.get(s)
                a = (pl.z * pl.phi - (f.z * f.phi if f else 0)) / dd
                b = (pl.z - (f.z if f else 0)) / delta
                if a.denominator != 1 or b.denominator != 1:
                    raise _off_grid(pl.state)
                j = pl.state - 1
                member[j] = True
                a_steps[j], b_steps[j] = int(a), int(b)
    L, (b_hat_L, delta_L), dw = scale_to_integers((b_hat, delta), dw)
    levels = {0}
    for b, picked in zip(b_steps, member):
        if picked:
            levels |= {s + b for s in levels}
    options = []
    for level in sorted(levels):
        D = b_hat + level * delta
        lo = _ceil((theta_next * D - a_hat) / dd)
        hi = None if theta is INF else _ceil((theta * D - a_hat) / dd) - 1
        options.append((level, b_hat_L + level * delta_L, lo, hi))
    kept = kept_from_options(a_steps, b_steps, options)
    return RefGuess(tuple(member), tuple(a_steps), tuple(b_steps), dw, kept), tuple(options), L


def _in_window(a, option):
    """Whether numerator a lies in the window of option = (denominator,
    D, lo, hi); hi None is no upper bound."""
    _, _, lo, hi = option
    return lo <= a and (hi is None or a <= hi)


def kept_from_options(a_steps, b_steps, options):
    """The kept pairs of a guess from its options: the (numerator,
    denominator) pairs its steps reach, grown state by state as a set,
    that lie in the window of their denominator's option, each mapped to
    the option's D."""
    pairs = {(0, 0)}
    for a, b in zip(a_steps, b_steps):
        if a or b:
            pairs |= {(x + a, y + b) for x, y in pairs}
    by_level = {o[0]: o for o in options}
    return {(a, b): by_level[b][1] for a, b in pairs if _in_window(a, by_level[b])}


# The per-window guess as it stood before its one walk over the sorted
# entries, on the counters of the quantization grid: two loops over
# per-curve entry dicts, and a theta_next test on the slope into the next
# point of the inserted curve.  It returns a RefGuess and the options the
# DP read before the one pass over the counter pairs: per reachable
# denominator level in increasing order, (level, D*L, lo, hi).


def _curve_dicts(im):
    """The rival and inserted curves' entries per state, in curve order."""
    by_curve = ({}, {})
    for e in sorted(im.entries, key=lambda e: (e.state, e.idx)):
        by_curve[e.inserted].setdefault(e.state, []).append(e)
    return by_curve


def two_loop_agent_guess(im, theta, theta_next, delta, delta_prime):
    base, with_own = _curve_dicts(im)
    n_num, n_den = theta_next.numerator, theta_next.denominator
    fall = {}
    if theta is not INF:
        t_num, t_den = theta.numerator, theta.denominator
        for s, curve in base.items():
            pick = None
            for e in curve:
                if e.psi * t_den >= t_num * e.psi_den:
                    pick = e
            fall[s] = pick
    a_hat = im.A + sum(f.zphi for f in fall.values() if f)
    b_hat = im.B + sum(f.z for f in fall.values() if f)
    n = len(im.dw)
    dd = delta * delta_prime
    dd_num, dd_den = dd.numerator, dd.denominator
    scale = im.L * dd_num
    member = [False] * n
    a_steps, b_steps = [0] * n, [0] * n
    if theta is not INF:
        for s, curve in with_own.items():
            for idx, e in enumerate(curve):
                if not (e.platform.own and e.psi * t_den >= t_num * e.psi_den):
                    continue
                if idx + 1 < len(curve) and curve[idx + 1].psi * n_den > n_num * curve[idx + 1].psi_den:
                    continue
                f = fall.get(s)
                a, a_rest = divmod((e.zphi - (f.zphi if f else 0)) * dd_den, scale)
                b, b_rest = divmod(
                    (e.z - (f.z if f else 0)) * delta.denominator, im.L * delta.numerator
                )
                if a_rest or b_rest:
                    raise _off_grid(s)
                member[s - 1] = True
                a_steps[s - 1], b_steps[s - 1] = a, b
    levels = {0}
    for b, picked in zip(b_steps, member):
        if picked:
            levels |= {s + b for s in levels}
    options = []
    for level in sorted(levels):
        D = b_hat + _whole(level * delta * im.L)
        lo = -((n_den * a_hat - n_num * D) * dd_den // (n_den * scale))
        hi = None
        if theta is not INF:
            hi = -((t_den * a_hat - t_num * D) * dd_den // (t_den * scale)) - 1
        options.append((level, D, lo, hi))
    kept = kept_from_options(a_steps, b_steps, options)
    return RefGuess(tuple(member), tuple(a_steps), tuple(b_steps), im.dw, kept), tuple(options)


def assert_guesses_match(ci, delta=None, delta_prime=None, ref=None):
    """Every guess agent_guesses yields, one per window of the grid of the
    Fraction curves and in order, equals the per-window reference's and
    the two-loop reference's on the grid of delta and delta_prime
    (the instance's by default), its counters read as shifts at the
    curves' scale.  The two-loop reference equals the Fraction reference,
    read off ref (by default ci; a game's instance passes its reference
    instance): member, the steps and the kept pairs exactly, and dw and
    each kept D up to each side's scale.  The two references' options
    agree: the levels, lo and hi exactly, and each D up to each side's
    scale."""
    ref = ref or ci
    mi = ref.mi
    delta = mi.delta if delta is None else delta
    delta_prime = mi.delta_prime if delta_prime is None else delta_prime
    for a, dp, im, curves in zip(mi.agents, mi.params, ci.curves, _ref_curves(ref)):
        dw = [d * w for d, w in zip(a.d, dp.w)]
        for theta, theta_next, got in windowed_guesses(im, _ref_grid(*curves)):
            assert got == agent_guess(im, theta, theta_next, multiagent._Work())
            two_loop, options = two_loop_agent_guess(im, theta, theta_next, delta, delta_prime)
            assert got == in_shifts(two_loop, im.L, delta, delta_prime)
            want, want_options, L = reference_agent_guess(
                curves, dp, dw, theta, theta_next, delta, delta * delta_prime
            )
            steps = ("member", "a_steps", "b_steps")
            assert [getattr(two_loop, f) for f in steps] == [getattr(want, f) for f in steps]
            M = im.L
            assert [F(x, M) for x in two_loop.dw] == [F(x, L) for x in want.dw]
            assert two_loop.kept.keys() == want.kept.keys()
            assert all(F(D, M) == F(want.kept[pair], L) for pair, D in two_loop.kept.items())
            assert [(o[0], o[2], o[3]) for o in options] == [(o[0], o[2], o[3]) for o in want_options]
            assert [F(o[1], M) for o in options] == [F(o[1], L) for o in want_options]


def twin_externals(mi, seed):
    """Rival platforms identical to the designer's candidate for every
    agent at one or two states, under ids that sort before and after the
    candidate's str(id)."""
    rng = random.Random(seed)
    externals = []
    for idx, j in enumerate(rng.sample(range(1, mi.n + 1), min(2, mi.n))):
        pid = "!twin" if idx == 0 else "~twin"
        z = tuple(dp.z[j - 1] for dp in mi.params)
        phi = tuple(dp.phi[j - 1] for dp in mi.params)
        externals.append(ExternalPlatform(pid, j, z, phi))
    return externals


def reference_instances():
    """Seeded competitive instances: every third one narrow, so psi ties
    across states, and every fourth with rivals that copy the designer's
    candidate."""
    for idx in range(60):
        n, k = reference_shape(idx)
        narrow = idx % 3 == 0
        mi = (narrow_multi_agent if narrow else gen_random_multi_agent)(n, k, seed=1300 + idx)
        yield CompetitiveInstance(mi, ())
        externals = random_externals(mi, idx, count=1 + idx % 3, phi_levels=2 if narrow else 10)
        if idx % 4 == 0:
            externals += twin_externals(mi, idx)
        yield build_competitive_instance(mi, externals)


def twin_game(seed):
    """random_game(seed) with the second designer's candidates replaced by
    the first's, so every rival build copies the designer's candidate."""
    g = random_game(seed)
    return build_game_instance(g.chassis, (g.designers[0],) * 2, g.delta, g.delta_prime)


def reference_games():
    yield gen_no_nash_game()
    for seed in range(6):
        yield random_game(seed)
        yield twin_game(seed)


def reference_game_instances():
    """(S, instance, reference) for every (designer, profile) of the
    reference games: the designer's own builds S, the search memo's
    instance, and one over the same externals whose view holds the flowers
    of reference_designer_view, so the Fraction references derive the
    agents' values by the old path."""
    for g in reference_games():
        memo = game.SearchMemo(g)
        views = [reference_designer_view(g, d) for d in range(g.num_designers)]
        profiles = list(itertools.product(all_subsets(g.n), repeat=g.num_designers))
        for designer, profile in itertools.product(range(g.num_designers), profiles):
            ci = memo.instance(designer, profile)
            yield profile[designer], ci, CompetitiveInstance(views[designer], ci.externals)


def test_competitive_profit_matches_greedy_reference():
    """The walk over the curve images gives the Fraction greedy's profit on
    every offer of seeded competitive instances and on every (designer,
    profile) of seeded games."""
    for idx, ci in enumerate(reference_instances()):
        ref_curves = _ref_curves(ci)
        for S in all_subsets(ci.mi.n):
            want = reference_competitive_profit(ci, ref_curves, S)
            assert competitive_profit(ci, S) == want, (idx, S)
    for S, ci, ref in reference_game_instances():
        want = reference_competitive_profit(ref, _ref_curves(ref), S)
        assert competitive_profit(ci, S) == want, (S, ci.externals)


def tie_instance():
    """One agent over two states with a rival at state 1, whose curve
    entries tie: the rival's point (z 1, phi 3) is the first on both of
    state 1's curves, psi 3, and the candidate there (z 2, phi 2) follows
    it on the inserted curve at slope 1, the psi of state 2's candidate
    (z 1, phi 1)."""
    half = F(1, 2)
    agent = build_flower_from_potentials(
        [half] * 2, [half] * 2, [F(0)] * 2, [F(2), F(1)], [F(2), F(1)], [F(1)] * 2, [F(1)] * 2
    )
    mi = build_multi_agent_instance([agent], F(1), half)
    return build_competitive_instance(mi, [ExternalPlatform("r", 1, (F(1),), (F(3),))])


def test_agent_guesses_yield_one_guess_per_distinct_psi():
    ci = tie_instance()
    (im,) = ci.curves
    psi = [F(e.psi, e.psi_den) for e in im.entries]
    assert psi == [3, 3, 1, 1]
    assert [(e.state, e.inserted, e.platform.own) for e in im.entries] == [
        (1, False, False), (1, True, False), (1, True, True), (2, True, True)
    ]
    # One guess above every psi, then one per distinct psi, each equal to
    # the reference's for its window.
    grid = theta_grid(psi)
    assert grid == (INF, 3, 1)
    guesses = windowed_guesses(im, grid)
    for theta, theta_next, g in guesses:
        assert g == agent_guess(im, theta, theta_next, multiagent._Work())
    assert [g.member for _, _, g in guesses] == [(False, False), (False, False), (True, True)]
    result = competitive_solve(ci)
    assert result.profit == max(competitive_profit(ci, S) for S in all_subsets(2))


def test_agent_guess_matches_reference():
    for ci in reference_instances():
        assert_guesses_match(ci)
    for _, ci, ref in reference_game_instances():
        assert_guesses_match(ci, ref=ref)
    # The rivals off the delta grid of test_competitive_solves_shifts_off_the_grid:
    # the references count their shifts on the grid of delta / 2.
    for ci in off_grid_instances():
        assert_guesses_match(ci, ci.mi.delta / 2, ci.mi.delta_prime)


def assert_entries_invariant(ci, ref=None):
    """What agent_guesses's one walk relies on: psi never rises along the
    entries; each (state, inserted) curve's entries come in idx order 0, 1,
    2, ... with psi strictly falling; and the entries' psi are the values
    of the grid of the Fraction curves of ref (by default ci)."""
    grids = _entry_grids(ci)
    assert grids == _solve_grids(ref or ci)
    for im, grid in zip(ci.curves, grids):
        values = set(grid[1:])
        for e, f in itertools.pairwise(im.entries):
            assert f.psi * e.psi_den <= e.psi * f.psi_den, (e, f)
        curves = {}
        for e in im.entries:
            assert F(e.psi, e.psi_den) in values, e
            curves.setdefault((e.state, e.inserted), []).append(e)
        for curve in curves.values():
            assert [e.idx for e in curve] == list(range(len(curve)))
            for e, f in itertools.pairwise(curve):
                assert f.psi * e.psi_den < e.psi * f.psi_den, (e, f)


def test_curve_entries_hold_the_walk_invariant():
    for ci in reference_instances():
        assert_entries_invariant(ci)
    for _, ci, ref in reference_game_instances():
        assert_entries_invariant(ci, ref)


def test_competitive_profit_raises_on_a_skipped_curve_entry():
    # An image whose entries skip a curve point breaks the greedy's swap
    # order, which the walk checks without assert.
    # Two rivals at state 1, with slopes 100 and 50 into them, both above
    # the agent's utility, which stays below (A + 100) / (B + 1).
    mi = gen_random_multi_agent(1, 1, seed=13)
    ci = CompetitiveInstance(
        mi,
        (ExternalPlatform("x1", 1, (F(1),), (F(100),)), ExternalPlatform("x2", 1, (F(2),), (F(75),))),
    )
    assert competitive_profit(ci, ()) == reference_competitive_profit(ci, _ref_curves(ci), ())
    im = ci.curves[0]
    first, second = (e for e in im.entries if not e.inserted)
    broken = im._replace(entries=(first, second._replace(idx=2)))
    object.__setattr__(ci, "curves", (broken,))
    with pytest.raises(RuntimeError, match="curve entry 2 follows entry 0"):
        competitive_profit(ci, ())


def test_nash_search_builds_each_image_once(monkeypatch):
    """One pure_nash_search on the no-nash game builds one curve pool per
    designer, which scales each (designer, agent) once and builds each
    (designer, agent, state, rival builds) run once, and reaches 10
    instances, whose curves it never builds alone."""
    g = gen_no_nash_game()
    built, pooled = [], []
    real_instance = game.competitive_instance

    def keeping(g, designer, profile, pool=None):
        # A call without a pool is a pool's own construction: the profile
        # where every designer builds everything.
        (pooled if pool is None else built).append((designer, profile))
        return real_instance(g, designer, profile, pool)

    monkeypatch.setattr(game, "competitive_instance", keeping)
    scales = Counter()
    real_scale = multiagent.scale_to_integers

    def counting(*vectors):
        scales[len(vectors)] += 1
        return real_scale(*vectors)

    # CurvePool scales four vectors (in multiplatform.hull_points),
    # integer_cost one (in multiagent).
    monkeypatch.setattr(multiagent, "scale_to_integers", counting)
    monkeypatch.setattr(multiplatform, "scale_to_integers", counting)
    runs = []
    real_run = multiagent.state_run

    def running(state, point_sets):
        runs.append(state)
        return real_run(state, point_sets)

    monkeypatch.setattr(multiagent, "state_run", running)
    assert game.pure_nash_search(g) is None
    everything = (frozenset(range(1, g.n + 1)),) * g.num_designers
    assert pooled == [(d, everything) for d in range(g.num_designers)]
    # One instance per (designer, rival builds) the search reaches: 10 of
    # the 2 * 2^3 on this game.
    assert len(built) == 10
    k = g.views[0].k
    assert scales == {4: g.num_designers * k, 1: g.num_designers}
    # The rival designers built at each state, over the instances reached.
    keys = {
        (d, i, s, tuple(e for e in range(g.num_designers) if e != d and s in profile[e]))
        for d, profile in built
        for i in range(k)
        for s in range(1, g.n + 1)
    }
    assert len(runs) == len(keys) < len(built) * k * g.n
