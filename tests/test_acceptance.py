"""Acceptance gate: one criterion per test, one printed verdict line each.

Every comparison is exact (Fraction equality) unless a criterion states a
tolerance.  Verdict lines are printed before the assertion so failing
criteria still report.
"""

import itertools
import math
import time
from fractions import Fraction as F

from pdp.agent import agent_oracle, greedy_solve, greedy_solve_signed, is_feasible
from pdp.core import (
    agent_utility,
    all_subsets,
    derived_params,
    designer_profit,
    stationary_distribution_flower,
)
from pdp.designer import EmptyInstance, designer_oracle, fptas_solve, preprocess
from pdp.game import best_response_dynamics, pure_nash_search
from pdp.instances import (
    gen_no_nash_game,
    gen_partition_instance,
    gen_random_flower,
    gen_random_multi_agent,
    gen_setcover_instance,
    gen_two_agent_partition,
)
from pdp.multiagent import (
    build_competitive_instance,
    competitive_solve,
    multi_agent_profit,
    multi_agent_solve,
)
from pdp.multiplatform import Platform, multi_greedy_solve, multi_oracle, prune_redundant

from conftest import table_bound_grid

fs = frozenset


def verdict(num, ok, title, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {title}{tail}")


def test_criterion_01_agent_greedy_optimality():
    started = time.monotonic()
    mismatches = 0
    for idx in range(500):
        n = 1 + idx % 12
        dp = derived_params(gen_random_flower(n, seed=idx))
        result, _ = greedy_solve(dp)
        if result.utility != agent_oracle(dp).utility:
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 5
    verdict(1, ok, "agent greedy = oracle on 500 instances",
            f"{mismatches} mismatches, {elapsed:.2f}s")
    assert ok


def test_criterion_02_signed_greedy_optimality():
    mismatches = 0
    for idx in range(300):
        n = 1 + idx % 10
        dp = derived_params(
            gen_random_flower(n, seed=idx, ranges={"allow_negative_z": True})
        )
        if greedy_solve_signed(dp).utility != agent_oracle(dp).utility:
            mismatches += 1
    ok = mismatches == 0
    verdict(2, ok, "signed greedy = oracle on 300 mixed-sign instances",
            f"{mismatches} mismatches")
    assert ok


def test_criterion_03_stationary_objective_equivalence():
    mismatches = 0
    for idx in range(100):
        n = 1 + idx % 8
        inst = gen_random_flower(n, seed=1000 + idx, ranges={"allow_negative_z": True})
        dp = derived_params(inst)
        for S in all_subsets(n):
            pi = stationary_distribution_flower(inst, S)
            reward = sum(
                pi[i] * (inst.c_platform[i - 1] if i in S else inst.c_life[i - 1])
                for i in range(1, n + 1)
            )
            if agent_utility(dp, S) != reward:
                mismatches += 1
    ok = mismatches == 0
    verdict(3, ok, "closed-form utility = stationary reward on 100 instances",
            f"{mismatches} mismatches")
    assert ok


def test_criterion_04_fptas_guarantee():
    started = time.monotonic()
    violations = 0
    checked = 0
    seed = 2000
    while checked < 300:
        n = 1 + checked % 12
        inst = gen_random_flower(n, seed=seed)
        seed += 1
        epsilon = F(1, 10) if checked % 2 == 0 else F(1, 4)
        try:
            qi = preprocess(inst, epsilon=epsilon)
        except EmptyInstance:
            continue
        checked += 1
        result = fptas_solve(qi)
        exact = designer_oracle(inst)
        dp = derived_params(inst)
        delta, r = table_bound_grid(qi)
        z_steps = sum(int(dp.z[i - 1] / delta) for i in qi.surviving)
        profit_bins = math.ceil(2 * n * n / epsilon) + 2
        revenue_bins = math.ceil(2 * n * n * (1 + r) / epsilon) + 2
        if not (
            result.profit >= (1 - epsilon) * exact.profit
            and is_feasible(inst, result.states)
            and result.profit == designer_profit(inst, result.states, result.states)
            and result.bins <= profit_bins * revenue_bins * (z_steps + 1)
        ):
            violations += 1
    elapsed = time.monotonic() - started
    ok = violations == 0 and elapsed < 30
    verdict(4, ok, "fptas within (1-eps) of oracle, feasible, bin-bounded on 300 instances",
            f"{violations} violations, {elapsed:.2f}s")
    assert ok


def _multisets_up_to(total):
    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for v in range(minimum, remaining + 1):
            for rest in rec(remaining - v, v):
                yield (v, *rest)

    for s in range(1, total + 1):
        yield from rec(s, 1)


def _has_balanced_split(a):
    total = sum(a)
    if total % 2:
        return False
    target = total // 2
    sums = {0}
    for v in a:
        sums |= {s + v for s in sums}
    return target in sums


def test_criterion_05_partition_hardness_fixture():
    reference = gen_partition_instance((1, 1))
    ref_ok = reference.v_star == F(205, 24)
    violations = 0
    count = 0
    for a in _multisets_up_to(8):
        count += 1
        fx = gen_partition_instance(a)
        n = len(fx.b)
        optimum = designer_oracle(fx.instance).profit
        if _has_balanced_split(a):
            good = optimum == fx.yes_optimum
        else:
            good = optimum < fx.v_star - (2 * n + 2) * fx.eta_prime
        if not good:
            violations += 1
    ok = ref_ok and violations == 0
    verdict(5, ok, "partition fixture optimum separates yes/no multisets, sum <= 8",
            f"{count} multisets, {violations} violations, v*(1,1)={reference.v_star}")
    assert ok


def test_criterion_06_multi_agent_exactness():
    mismatches = 0
    for idx in range(200):
        n = 2 + idx % 2
        mi = gen_random_multi_agent(n, 2, seed=3000 + idx)
        brute = max(
            (multi_agent_profit(mi, S) for S in all_subsets(n)),
        )
        if multi_agent_solve(mi).profit != brute:
            mismatches += 1
    fx = gen_two_agent_partition((1, 1))
    fixture_ok = (
        fx.v_star == F(10, 3)
        and multi_agent_solve(fx.mi).profit == fx.yes_optimum
    )
    ok = mismatches == 0 and fixture_ok
    verdict(6, ok, "multi-agent dp = brute force on 200 instances; two-agent fixture hits 10/3",
            f"{mismatches} mismatches, fixture_ok={fixture_ok}")
    assert ok


def test_criterion_07_competitive_reduction():
    mismatches = 0
    for idx in range(200):
        n = 2 + idx % 2
        mi = gen_random_multi_agent(n, 2, seed=3000 + idx)
        ci = build_competitive_instance(mi, [])
        if competitive_solve(ci).profit != multi_agent_solve(mi).profit:
            mismatches += 1
    ok = mismatches == 0
    verdict(7, ok, "competitive solver with no externals = multi-agent solver",
            f"{mismatches} mismatches")
    assert ok


def test_criterion_08_multiplatform_agent():
    import random

    canonical = multi_greedy_solve(
        prune_redundant([Platform("a", 1, F(1), F(5)), Platform("b", 1, F(2), F(4))]),
        F(10), F(10),
    )
    canonical_ok = canonical.utility == F(3, 2)
    mismatches = 0
    for idx in range(300):
        rng = random.Random(4000 + idx)
        platforms = []
        pid = 0
        for state in range(1, rng.randint(1, 6) + 1):
            for _ in range(rng.randint(1, 4)):
                z = F(rng.randint(1, 6), rng.choice([1, 2]))
                phi = F(rng.randint(0, 24), rng.choice([1, 2, 4]))
                platforms.append(Platform(f"p{pid:02d}", state, z, phi))
                pid += 1
        A = F(rng.randint(0, 8), 2)
        B = F(rng.randint(2, 9))
        curves = prune_redundant(platforms)
        pruned = [pl for c in curves.values() for pl in c.platforms]
        if not (
            multi_greedy_solve(curves, A, B).utility
            == multi_oracle(platforms, A, B).utility
            == multi_oracle(pruned, A, B).utility
        ):
            mismatches += 1
    ok = canonical_ok and mismatches == 0
    verdict(8, ok, "multi-platform greedy = oracle on 300 instances; two-platform example = 3/2",
            f"{mismatches} mismatches, canonical_ok={canonical_ok}")
    assert ok


def test_criterion_09_set_cover_fixture():
    violations = []
    count = 0
    for size in (1, 2, 3):
        universe = list(range(1, size + 1))
        subsets = [
            fs(c)
            for r in range(1, size + 1)
            for c in itertools.combinations(universe, r)
        ]
        for fam_count in (1, 2, 3):
            for families in itertools.combinations(subsets, fam_count):
                for k in (1, 2):
                    count += 1
                    sc = gen_setcover_instance(universe, families, k)
                    cover = sc.min_cover_size()
                    value, _, _ = sc.optimum()
                    expected = cover is not None and cover <= k
                    if (value > 0) != expected:
                        violations.append((universe, families, k, value))
    ok = not violations
    verdict(9, ok, "set-cover optimum positive iff a cover of size <= k exists",
            f"{count} instances, {len(violations)} violations")
    assert ok, (
        "covered k=1 instances break even exactly (mass 1/2, revenue = cost), "
        f"e.g. {violations[0] if violations else None}"
    )


def test_criterion_10_no_pure_nash_game():
    started = time.monotonic()
    g = gen_no_nash_game()
    nash_ok = pure_nash_search(g) is None
    outcome = best_response_dynamics(g, (fs({1}), fs({2})))
    expected_cycle = (
        (fs({1}), fs({2})),
        (fs({1}), fs({3})),
        (fs({1, 3}), fs({2})),
    )
    cycle_ok = (
        outcome.kind == "cycle"
        and outcome.period == 3
        and outcome.cycle == expected_cycle
    )
    elapsed = time.monotonic() - started
    ok = nash_ok and cycle_ok and elapsed < 1
    verdict(10, ok, "no pure Nash; dynamics report the stated period-3 cycle",
            f"nash_ok={nash_ok}, cycle_ok={cycle_ok}, "
            f"actual kind={outcome.kind}, period={outcome.period}, {elapsed:.2f}s")
    assert ok, (
        "exact best responses diverge from the stated cycle: the true "
        f"round-end cycle is {tuple(tuple(sorted(s) for s in p) for p in outcome.cycle)} "
        f"with period {outcome.period}"
    )


def test_criterion_11_mediant_inequality():
    import random

    rng = random.Random(5000)
    violations = 0
    for _ in range(10**4):
        x = rng.randint(-50, 50)
        y = rng.randint(1, 50)
        r = rng.randint(-50, 50)
        s = rng.randint(1, 50)
        left = F(x, y)
        right = F(r, s)
        mediant = F(x + r, y + s)
        if left < right:
            if not left < mediant < right:
                violations += 1
        elif left == right:
            if mediant != left:
                violations += 1
        else:
            if not right < mediant < left:
                violations += 1
    ok = violations == 0
    verdict(11, ok, "mediant lies strictly between on 10^4 random quadruples",
            f"{violations} violations")
    assert ok
