from fractions import Fraction as F

import pytest

from pdp.agent import TooLarge, adopted_response
from pdp.core import derived_params
from pdp.designer import EmptyInstance, designer_oracle, preprocess
from pdp.instances import (
    RangeError,
    gen_no_nash_game,
    gen_partition_instance,
    gen_random_flower,
    gen_random_multi_agent,
    gen_setcover_instance,
    gen_two_agent_partition,
)
from pdp.multiagent import multi_agent_profit


def test_random_flower_is_seed_deterministic():
    a = gen_random_flower(6, seed=42)
    b = gen_random_flower(6, seed=42)
    assert a == b
    assert a != gen_random_flower(6, seed=43)


def test_random_flower_validity():
    for seed in range(30):
        inst = gen_random_flower(2 + seed % 6, seed=seed)
        dp = derived_params(inst)
        assert all(z > 0 for z in dp.z)
        assert all((z / 1).denominator == 1 for z in dp.z)
        try:
            preprocess(inst)
        except EmptyInstance:
            pass


def test_random_flower_negative_z_stays_valid():
    saw_negative = False
    for seed in range(30):
        inst = gen_random_flower(5, seed=seed, ranges={"allow_negative_z": True})
        dp = derived_params(inst)
        saw_negative = saw_negative or any(z < 0 for z in dp.z)
        assert all(0 < qi + yi < 1 for qi, yi in zip(inst.q, inst.y))
    assert saw_negative


def test_range_errors():
    with pytest.raises(RangeError):
        gen_random_flower(3, seed=0, ranges={"bogus": 1})
    with pytest.raises(RangeError):
        gen_random_flower(0, seed=0)
    with pytest.raises(RangeError):
        gen_random_flower(3, seed=0, ranges={"z_max": 0})


def test_random_multi_agent_shape():
    mi = gen_random_multi_agent(4, 3, seed=7)
    assert mi.n == 4
    assert mi.k == 3
    assert all(a.cost == mi.cost for a in mi.agents)
    assert gen_random_multi_agent(4, 3, seed=7) == mi


def test_partition_fixture_balanced_pair():
    fx = gen_partition_instance((1, 1))
    assert fx.b == (5, 5, 4, 4)
    assert fx.v_star == F(205, 24)
    inst, v_star = fx
    assert v_star == fx.v_star
    result = designer_oracle(inst)
    assert result.profit == fx.yes_optimum


def test_partition_fixture_unbalanced_pair():
    fx = gen_partition_instance((1, 2))
    n = len(fx.b)
    result = designer_oracle(fx.instance)
    assert result.profit < fx.v_star - (2 * n + 2) * fx.eta_prime


def test_partition_fixture_balanced_quad():
    fx = gen_partition_instance((2, 2))
    assert designer_oracle(fx.instance).profit == fx.yes_optimum


def test_partition_special_petal():
    fx = gen_partition_instance((1, 1))
    dp = derived_params(fx.instance)
    # The special petal's potential sits a hair above the balanced-split
    # threshold, and the optimal design builds it.
    assert dp.phi[fx.special - 1] == F(sum(fx.b), 2 * dp.B) + fx.eta
    assert fx.special in designer_oracle(fx.instance).states


def test_partition_rejects_bad_input():
    with pytest.raises(RangeError):
        gen_partition_instance(())
    with pytest.raises(RangeError):
        gen_partition_instance((0, 1))


def test_two_agent_partition_balanced_pair():
    fx = gen_two_agent_partition((1, 1))
    assert fx.v_star == F(10, 3)
    best = max(
        multi_agent_profit(fx.mi, S)
        for S in _subsets(fx.mi.n)
    )
    assert best == fx.yes_optimum


def test_two_agent_partition_agents_mirror_each_other():
    fx = gen_two_agent_partition((1, 2))
    dp1 = derived_params(fx.mi.agents[0])
    dp2 = derived_params(fx.mi.agents[1])
    n = len(fx.b) // 2
    H = fx.b[-1]
    # Rewards mirror around H, so paired potentials sum to a constant.
    for j in range(len(fx.b)):
        assert dp1.phi[j] + dp2.phi[j] == F(2 * n * H, dp1.B) + 2 * H
    special = fx.special - 1
    assert dp1.phi[special] + dp2.phi[special] == F(2 * n * H, dp1.B) + 2 * fx.eta


def _subsets(n):
    import itertools

    for size in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), size):
            yield frozenset(combo)


def test_setcover_covered_set_mass():
    sc = gen_setcover_instance([1, 2], [{1, 2}], k=2)
    from pdp.core import steady_state_general

    chain = sc.chain_for(frozenset({0}), (0, 0))
    pi = steady_state_general(chain)
    assert pi[0] == F(4, 5)  # k^2 / (1 + k^2)


def test_setcover_reference_profits():
    sc = gen_setcover_instance([1, 2], [{1, 2}], k=2)
    value, built, routing = sc.optimum()
    assert built == frozenset({0})
    assert value == F(14, 5)

    sc = gen_setcover_instance([1, 2], [{1}, {2}], k=2)
    value, built, routing = sc.optimum()
    assert built == frozenset({0, 1})
    assert value == F(4, 5)


def test_setcover_single_build_with_unit_budget_breaks_even():
    # With k = 1 a covering set's stationary mass is 1/2, so its revenue
    # exactly repays its cost and the optimum profit is zero.
    sc = gen_setcover_instance([1, 2], [{1, 2}], k=1)
    assert sc.min_cover_size() == 1
    value, built, routing = sc.optimum()
    assert value == 0


def test_setcover_no_cover_is_unprofitable():
    sc = gen_setcover_instance([1, 2, 3], [{1}, {2}], k=2)
    assert sc.min_cover_size() is None
    value, built, routing = sc.optimum()
    assert value <= 0


def test_setcover_guard_and_ranges():
    with pytest.raises(TooLarge):
        gen_setcover_instance(list(range(10)), [set(range(10))] * 18, k=2)
    with pytest.raises(RangeError):
        gen_setcover_instance([], [{1}], k=2)
    with pytest.raises(RangeError):
        gen_setcover_instance([1], [{1}], k=0)
    with pytest.raises(RangeError, match="distinct"):
        gen_setcover_instance([1, 1, 2], [{1}, {2}], k=1)
    with pytest.raises(RangeError, match=r"family \[4\] has elements outside"):
        gen_setcover_instance([1, 2, 3], [{4}], k=1)


def test_no_nash_game_chassis():
    g = gen_no_nash_game()
    dp = derived_params(g.chassis[0])
    assert dp.A == 0
    assert dp.B == 4
    assert all(z == 1 for z in dp.z)
    assert g.delta == 1
    assert g.delta_prime == 50
