import itertools
import math
import random
from fractions import Fraction as F

import pytest

from pdp.core import all_subsets, build_flower_instance, derived_params
from pdp.designer import DesignSet, QuantizationError, designer_oracle
from pdp.instances import gen_random_flower, gen_random_multi_agent, gen_two_agent_partition
from pdp.multiagent import (
    INF,
    AgentView,
    CompetitiveInstance,
    ExternalPlatform,
    GuardExceeded,
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
from pdp.multiplatform import Platform, prune_redundant


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
    ext = [Platform(pl.id, pl.state, pl.z[i], pl.phi[i], pl.owner) for pl in ci.externals]
    own = [
        Platform(("own", j), j, dp.z[j - 1], dp.phi[j - 1], "own")
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
                    if pl.owner != "own":
                        continue
                    if (
                        theta[i] is not INF
                        and curve.psi[idx] >= theta[i]
                        and (idx + 1 == len(curve.platforms) or curve.slopes[idx] <= theta_next[i])
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
    mi = gen_random_multi_agent(3, 2, seed=0)
    with pytest.raises(QuantizationError):
        build_multi_agent_instance(mi.agents, delta=F(3), delta_prime=mi.delta_prime)
    with pytest.raises(QuantizationError):
        build_multi_agent_instance(mi.agents, delta=mi.delta, delta_prime=F(7))
    with pytest.raises(QuantizationError):
        build_multi_agent_instance(
            mi.agents, delta=mi.delta, delta_prime=mi.delta_prime, m_ceiling=0
        )


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
    """Each agent's AgentGuess under the multi-agent view at thresholds theta."""
    dd = mi.delta * mi.delta_prime
    guesses = []
    for i, a in enumerate(mi.agents):
        dp = derived_params(a)
        grid = theta_grid(dp.phi)
        theta_next = (*grid[1:], F(-1))[grid.index(theta[i])]
        view = AgentView(
            tuple(theta[i] is not INF and phi >= theta[i] for phi in dp.phi),
            dp.A, dp.B, tuple(z * phi for z, phi in zip(dp.z, dp.phi)), dp.z,
        )
        dw = [d * w for d, w in zip(a.d, dp.w)]
        guesses.append(agent_guess(view, dw, theta[i], theta_next, mi.delta, dd))
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


def test_solve_guard():
    mi = gen_random_multi_agent(3, 2, seed=6)
    with pytest.raises(GuardExceeded):
        multi_agent_solve(mi, budget=1)


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
        ranges = {"phi_levels": 2, "d_max": 2} if narrow else {}
        mi = gen_random_multi_agent(n, k, seed=700 + idx, **ranges)
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


def test_competitive_guard():
    mi = gen_random_multi_agent(3, 2, seed=8)
    ci = build_competitive_instance(mi, random_externals(mi, 8))
    with pytest.raises(GuardExceeded):
        competitive_solve(ci, budget=1)


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
