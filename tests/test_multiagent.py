import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from pdp import game, multiagent
from pdp.agent import TooLarge
from pdp.core import all_subsets, build_flower_instance, derived_params, scale_to_integers
from pdp.designer import DesignSet, QuantizationError, designer_oracle
from pdp.game import Candidate, best_response, build_game_instance
from pdp.instances import (
    gen_no_nash_game,
    gen_random_flower,
    gen_random_multi_agent,
    gen_two_agent_partition,
)
from pdp.multiagent import (
    INF,
    AgentGuess,
    CompetitiveInstance,
    ExternalPlatform,
    _threshold_dp,
    _windows,
    agent_guess,
    build_competitive_instance,
    build_multi_agent_instance,
    competitive_profit,
    competitive_solve,
    multi_agent_profit,
    multi_agent_solve,
    slot_coefficients,
    theta_grid,
)
from pdp.multiplatform import Platform, multi_greedy_solve, prune_redundant


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
    return (prune_redundant(ext) if ext else {}), prune_redundant(ext + own)


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
    # message names the rational values.
    mi = gen_random_multi_agent(3, 2, seed=0)
    negative_z = gen_random_flower(3, seed=1, ranges={"allow_negative_z": True})
    negative_phi = gen_random_flower(2, seed=0, ranges={"c_life_max": 12, "c_platform_max": 2})
    for agents, delta, delta_prime, message in [
        (mi.agents, F(3), mi.delta_prime, "agent 1: z[1] = 1 is not a positive multiple of 3"),
        (mi.agents, F(2, 3), mi.delta_prime, "agent 1: z[1] = 1 is not a positive multiple of 2/3"),
        (mi.agents, mi.delta, F(7), "agent 1: phi[1] = 1 is not a nonnegative multiple of 7"),
        # Every z level z/delta is 10^13 or more, past the 10^12 ceiling.
        (
            mi.agents, F(1, 10**13), mi.delta_prime,
            "agent 1, state 1: quantization level exceeds 1000000000000",
        ),
        (
            [negative_z], F(1, 10**6), F(1, 10**9),
            "agent 1: z[3] = -1 is not a positive multiple of 1/1000000",
        ),
        (
            [negative_phi], F(1), F(1, 72),
            "agent 1: phi[2] = -1/8 is not a nonnegative multiple of 1/72",
        ),
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
    dd = mi.delta * mi.delta_prime
    guesses = []
    for i, ac in enumerate(CompetitiveInstance(mi, ()).curves):
        grid = theta_grid(ac.dp.phi)
        theta_next = (*grid[1:], F(-1))[grid.index(theta[i])]
        guesses.append(agent_guess(ac, theta[i], theta_next, dd))
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
    # Guessing the minimum potential makes every state a pick, so the D
    # options are B plus every subset sum of the z levels, in steps of delta.
    guesses = multi_agent_guesses(mi, tuple(grid[-1] for grid in grids))
    for guess, dp in zip(guesses, dps):
        levels = [o[0] for o in guess.options]
        z_levels = [int(z / mi.delta) for z in dp.z]
        sums = {sum(c) for r in range(mi.n + 1) for c in itertools.combinations(z_levels, r)}
        assert levels == sorted(sums)
        assert levels[0] == 0
        base = guess.options[0][1]
        for level, scaled_D, _, _ in guess.options:
            assert F(scaled_D, base) == (dp.B + level * mi.delta) / dp.B


def test_value_coefficients_extremes():
    mi = gen_random_multi_agent(3, 2, seed=5)
    dps = [derived_params(a) for a in mi.agents]
    scale = math.lcm(*(c.denominator for c in mi.cost))
    cost = [int(c * scale) for c in mi.cost]
    # Guessing "adopt nothing" for every agent leaves only the costs.
    guesses = multi_agent_guesses(mi, (INF, INF))
    coeffs, M = slot_coefficients(guesses, [g.options[0] for g in guesses], cost, scale)
    assert tuple(F(c, M) for c in coeffs) == tuple(-c for c in mi.cost)
    # Guessing the minimum potential makes every state revenue-bearing;
    # take D = B for every agent.
    guesses = multi_agent_guesses(mi, tuple(min(dp.phi) for dp in dps))
    coeffs, M = slot_coefficients(guesses, [g.options[0] for g in guesses], cost, scale)
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


def test_solve_guard(monkeypatch):
    mi = gen_random_multi_agent(3, 2, seed=6)
    monkeypatch.setattr(multiagent, "_GRID_BUDGET", 1)
    with pytest.raises(TooLarge):
        multi_agent_solve(mi)


def test_solve_guard_counts_denominator_guesses(monkeypatch):
    # A budget the theta grid alone fits: the competitive guard passes,
    # and only the multi-agent count of D guesses exceeds it.
    mi = gen_random_multi_agent(3, 2, seed=6)
    unpatched = multi_agent_solve(mi)
    budget = math.prod(len(theta_grid(dp.phi)) for dp in mi.params)
    monkeypatch.setattr(multiagent, "_GRID_BUDGET", budget)
    assert competitive_solve(CompetitiveInstance(mi, ())) == unpatched
    with pytest.raises(TooLarge, match=r"\(theta, D\) grid size"):
        multi_agent_solve(mi)


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


def test_competitive_rejects_shifts_off_the_grid():
    # Bypassing build_competitive_instance, an external with z off the
    # delta grid makes the own candidate's slot shift fractional once the
    # external is the fallback it replaces.
    mi = gen_random_multi_agent(1, 1, seed=11)
    ci = CompetitiveInstance(mi, (ExternalPlatform("x", 1, (mi.delta / 2,), (F(0),)),))
    with pytest.raises(QuantizationError, match="agent 1, state 1: the slot shifts are not whole"):
        competitive_solve(ci)
    with pytest.raises(QuantizationError):
        build_competitive_instance(mi, ci.externals)


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
    monkeypatch.setattr(multiagent, "_GRID_BUDGET", 1)
    with pytest.raises(TooLarge):
        competitive_solve(ci)


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


def _valued_threshold_dp(ci, grids):
    mi = ci.mi
    k = mi.k
    dd = mi.delta * mi.delta_prime
    cost_scale, cost = scale_to_integers(mi.cost)
    guesses = [
        [agent_guess(ac, theta, theta_next, dd) for theta, theta_next in _windows(grid)]
        for grid, ac in zip(grids, ci.curves)
    ]

    best = None  # (value numerator, its denominator, states)
    for combo in itertools.product(*guesses):
        bad = min(((t, i) for i, g in enumerate(combo) for t in g.bad), default=None)
        if bad is not None:
            raise QuantizationError(
                f"agent {bad[1] + 1}, state {bad[0]}: the slot shifts are not whole"
                " multiples of delta * delta_prime and delta"
            )
        steps = [
            tuple(g.a_steps[j] for g in combo) + tuple(g.b_steps[j] for g in combo)
            for j in range(mi.n)
        ]
        moves = [any(step) for step in steps]
        for option in itertools.product(*(g.options for g in combo)):
            coeffs, M = slot_coefficients(combo, option, cost, cost_scale)
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


def test_key_only_pass_matches_valued_dp(monkeypatch):
    """States and exact profit equal the valued reference on seeded
    multi-agent and competitive instances and on game best responses."""
    cases = []
    for idx in range(60):
        n, k = reference_shape(idx)
        generate = narrow_multi_agent if idx % 3 == 0 else gen_random_multi_agent
        mi = generate(n, k, seed=900 + idx)
        cases.append((multi_agent_solve, mi))
        ci = build_competitive_instance(mi, random_externals(mi, idx, count=1 + idx % 3))
        cases.append((competitive_solve, ci))
    cases.append((multi_agent_solve, gen_two_agent_partition((1, 2, 3)).mi))
    rng = random.Random(17)
    for g in [gen_no_nash_game()] + [random_game(seed) for seed in range(12)]:
        for designer in range(2):
            profile = tuple(
                frozenset(j for j in range(1, g.n + 1) if rng.random() < 0.5) for _ in range(2)
            )
            cases.append((lambda view: best_response(*view), (g, designer, profile)))

    got = [run(inst) for run, inst in cases]
    monkeypatch.setattr(multiagent, "_threshold_dp", _valued_threshold_dp)
    want = [run(inst) for run, inst in cases]
    for idx, (g, w) in enumerate(zip(got, want)):
        assert (g.states, g.profit) == (w.states, w.profit), idx


def _solve_grids(ci):
    """The theta grids competitive_solve hands the threshold DP."""
    return [
        theta_grid(
            psi
            for curve in itertools.chain(ac.base.values(), ac.with_own.values())
            for psi in curve.psi
        )
        for ac in ci.curves
    ]


def _consistent_pairs(ci):
    """Every (theta combination, option) pair that holds a consistent slot
    key, found by enumerating the subsets of the states."""
    mi = ci.mi
    dd = mi.delta * mi.delta_prime
    guesses = [
        [agent_guess(ac, theta, theta_next, dd) for theta, theta_next in _windows(grid)]
        for grid, ac in zip(_solve_grids(ci), ci.curves)
    ]
    pairs = Counter()
    attempted = 0
    for combo in itertools.product(*guesses):
        keys = {
            tuple(sum(g.a_steps[j - 1] for j in S) for g in combo)
            + tuple(sum(g.b_steps[j - 1] for j in S) for g in combo)
            for S in all_subsets(mi.n)
        }
        for option in itertools.product(*(g.options for g in combo)):
            attempted += 1
            if any(
                all(
                    b == level and lo <= a and (hi is None or a <= hi)
                    for a, b, (level, _, lo, hi) in zip(key, key[mi.k :], option)
                )
                for key in keys
            ):
                pairs[combo, option] += 1
    return pairs, attempted


def test_threshold_dp_values_only_consistent_options(monkeypatch):
    """One valued DP (one slot_coefficients call) per (theta combination,
    option) pair that holds a consistent key, and no other."""
    calls = Counter()

    def counting(guesses, option, *args):
        calls[tuple(guesses), tuple(option)] += 1
        return slot_coefficients(guesses, option, *args)

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
    (3, 1), so each window below holds that key at an edge."""
    return AgentGuess(
        member=(True, False),
        a_steps=(3, 0),
        b_steps=(1, 0),
        bad=(),
        dw=(12, 0),
        options=((0, 2, 4, None), (1, 3, lo, hi)),
    )


@pytest.mark.parametrize(
    "lo, hi",
    [(3, 7), (0, 3), (3, None), (-5, None)],
    ids=["on-lo", "on-hi", "on-lo-unbounded", "unbounded"],
)
def test_threshold_dp_keeps_slot_on_window_edge(monkeypatch, lo, hi):
    # Level 0's window (numerator 4 and up) misses the empty key, so the
    # slot of {1} at level 1 is the only consistent one, and skipping its
    # option leaves no candidate.
    mi = gen_random_multi_agent(2, 1, seed=12)
    monkeypatch.setattr(multiagent, "agent_guess", lambda *args: _hand_guess(lo, hi))
    calls = []

    def counting(guesses, option, *args):
        calls.append(option)
        return slot_coefficients(guesses, option, *args)

    monkeypatch.setattr(multiagent, "slot_coefficients", counting)
    result = _threshold_dp(CompetitiveInstance(mi, ()), [(INF,)])
    assert calls == [((1, 3, lo, hi),)]
    assert result == DesignSet(frozenset({1}), F(12, 3) - mi.cost[0])


# The competitive layer on Fractions, as it stood before the curve images:
# the profit through multi_greedy_solve and the agent's guess read off the
# Pareto curves, with the agent's d*w and delta passed in.


def reference_competitive_profit(ci, S):
    S = frozenset(S)
    mi = ci.mi
    profit = -sum((mi.cost[j - 1] for j in S), F(0))
    for a, ac in zip(mi.agents, ci.curves):
        curves = {s: ac.with_own[s] for s in S}
        curves.update((s, curve) for s, curve in ac.base.items() if s not in S)
        if not curves:
            continue
        sel = multi_greedy_solve(curves, ac.dp.A, ac.dp.B)
        den = ac.dp.B + sum((pl.z for pl in sel.platforms), F(0))
        own_rev = sum(
            (a.d[pl.state - 1] * ac.dp.w[pl.state - 1] for pl in sel.platforms if pl.own),
            F(0),
        )
        profit += own_rev / den
    return profit


def _ceil(x):
    return -(-x.numerator // x.denominator)


def reference_agent_guess(ac, dw, theta, theta_next, delta, dd):
    """The AgentGuess on Fractions, and the scale L of its dw and D."""
    fall = {}
    for s, curve in ac.base.items():
        pick = None
        for idx, pl in enumerate(curve.platforms):
            if theta is not INF and curve.psi[idx] >= theta:
                pick = pl
        fall[s] = pick
    a_hat = ac.dp.A + sum((pl.z * pl.phi for pl in fall.values() if pl), F(0))
    b_hat = ac.dp.B + sum((pl.z for pl in fall.values() if pl), F(0))
    n = ac.dp.n
    member = [False] * n
    a_steps, b_steps, bad = [0] * n, [0] * n, []
    for s, curve in ac.with_own.items():
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
                    bad.append(pl.state)
                j = pl.state - 1
                member[j] = True
                a_steps[j], b_steps[j] = int(a), int(b)
    L, (b_hat_L, delta_L), dw = scale_to_integers((b_hat, delta), dw)
    scaled = (tuple(member), tuple(a_steps), tuple(b_steps), tuple(bad), dw)
    if bad:
        return AgentGuess(*scaled, ()), L
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
    return AgentGuess(*scaled, tuple(options)), L


def assert_guesses_match(ci):
    """Every agent's guess under every window of competitive_solve's grids
    equals the reference: member, bad, the levels, lo and hi exactly, the
    steps at every state whose shifts are whole (the DP raises before it
    reads any other), and dw and each D up to each side's scale."""
    mi = ci.mi
    dd = mi.delta * mi.delta_prime
    for grid, a, ac in zip(_solve_grids(ci), mi.agents, ci.curves):
        dw = [d * w for d, w in zip(a.d, ac.dp.w)]
        for theta, theta_next in _windows(grid):
            got = agent_guess(ac, theta, theta_next, dd)
            want, L = reference_agent_guess(ac, dw, theta, theta_next, mi.delta, dd)
            assert (got.member, got.bad) == (want.member, want.bad)
            whole = [j for j in range(mi.n) if j + 1 not in got.bad]
            for steps in ("a_steps", "b_steps"):
                assert [getattr(got, steps)[j] for j in whole] == [getattr(want, steps)[j] for j in whole]
            M = ac.image.L
            assert [F(x, M) for x in got.dw] == [F(x, L) for x in want.dw]
            assert [(o[0], o[2], o[3]) for o in got.options] == [(o[0], o[2], o[3]) for o in want.options]
            assert [F(o[1], M) for o in got.options] == [F(o[1], L) for o in want.options]


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


def test_competitive_profit_matches_greedy_reference():
    """The walk over the curve images gives the Fraction greedy's profit on
    every offer of seeded competitive instances and on every (designer,
    profile) of seeded games."""
    for idx, ci in enumerate(reference_instances()):
        for S in all_subsets(ci.mi.n):
            assert competitive_profit(ci, S) == reference_competitive_profit(ci, S), (idx, S)
    for g in reference_games():
        memo = game.SearchMemo(g)
        subsets = list(all_subsets(g.n))
        for designer in range(g.num_designers):
            for profile in itertools.product(subsets, repeat=g.num_designers):
                ci = memo.instance(designer, profile)
                got = competitive_profit(ci, profile[designer])
                assert got == reference_competitive_profit(ci, profile[designer]), profile


def test_agent_guess_matches_reference():
    for ci in reference_instances():
        assert_guesses_match(ci)
    for g in reference_games():
        memo = game.SearchMemo(g)
        for designer in range(g.num_designers):
            for profile in itertools.product(all_subsets(g.n), repeat=g.num_designers):
                assert_guesses_match(memo.instance(designer, profile))
    # The off-grid rival of test_competitive_rejects_shifts_off_the_grid:
    # both sides find the same state bad.
    mi = gen_random_multi_agent(1, 1, seed=11)
    ci = CompetitiveInstance(mi, (ExternalPlatform("x", 1, (mi.delta / 2,), (F(0),)),))
    assert_guesses_match(ci)
    dd = mi.delta * mi.delta_prime
    assert any(
        agent_guess(ci.curves[0], theta, theta_next, dd).bad == (1,)
        for theta, theta_next in _windows(_solve_grids(ci)[0])
    )


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
    assert competitive_profit(ci, ()) == reference_competitive_profit(ci, ())
    im = ci.curves[0].image
    first, second = im.base[1]
    broken = im._replace(entries=(first, second._replace(idx=2)))
    object.__setattr__(ci.curves[0], "image", broken)
    with pytest.raises(RuntimeError, match="curve entry 2 follows entry 0"):
        competitive_profit(ci, ())


def test_nash_search_builds_each_image_once(monkeypatch):
    """One pure_nash_search on the no-nash game scales each competitive
    instance's curves once per agent, and each designer's costs once."""
    g = gen_no_nash_game()
    built = []
    real_instance = game._competitive_instance

    def keeping(*args):
        built.append(real_instance(*args))
        return built[-1]

    monkeypatch.setattr(game, "_competitive_instance", keeping)
    calls = Counter()
    real_scale = multiagent.scale_to_integers

    def counting(*vectors):
        calls[len(vectors)] += 1
        return real_scale(*vectors)

    monkeypatch.setattr(multiagent, "scale_to_integers", counting)
    assert game.pure_nash_search(g) is None
    # One instance per (designer, rival builds) the search reaches: 10 of
    # the 2 * 2^3 on this game.
    assert len(built) == 10
    # curve_image scales four vectors; integer_cost scales one.
    assert calls == {4: len(built) * g.views[0].k, 1: g.num_designers}
