import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import pdp
from pdp.core import (
    DegenerateState,
    NonpositiveCost,
    ProbabilityError,
    ReducibleChain,
    SubsetError,
    agent_utility,
    all_subsets,
    build_flower_instance,
    build_general_chain,
    derived_params,
    designer_profit,
    flower_as_general_chain,
    scale_to_integers,
    stationary_distribution_flower,
    steady_state_general,
)
from pdp.instances import gen_random_flower


def test_derived_params_reference_values(example):
    dp = derived_params(example)
    assert dp.lam == (F(1), F(1))
    assert dp.w == (F(2), F(2))
    assert dp.z == (F(1), F(1))
    assert dp.phi == (F(2), F(4))
    assert dp.A == 0
    assert dp.B == 3


def test_agent_utility_reference_values(example):
    dp = derived_params(example)
    assert agent_utility(dp, set()) == 0
    assert agent_utility(dp, {2}) == 1
    assert agent_utility(dp, {1, 2}) == F(6, 5)


def test_stationary_distribution_reference_values(example):
    assert stationary_distribution_flower(example, set()) == (F(1, 3), F(1, 3), F(1, 3))
    assert stationary_distribution_flower(example, {1, 2}) == (F(1, 5), F(2, 5), F(2, 5))


def test_stationary_distribution_sums_to_one():
    inst = gen_random_flower(5, seed=11)
    for S in all_subsets(5):
        assert sum(stationary_distribution_flower(inst, S)) == 1


def test_scale_to_integers_uses_one_common_denominator():
    L, (a, b), c, empty = scale_to_integers((F(1, 2), F(-2, 3)), [F(5, 4), F(7)], ())
    assert (L, a, b, c, empty) == (12, 6, -8, (15, 84), ())
    assert scale_to_integers() == (1,)


def test_all_subsets_lists_each_subset_once():
    subsets = list(all_subsets(4))
    assert len(subsets) == len(set(subsets)) == 16
    assert subsets[:4] == [frozenset(), {1}, {2}, {1, 2}]


def test_designer_profit_reference_values(example):
    assert designer_profit(example, {1}, {1}) == F(49, 10)
    assert designer_profit(example, {1, 2}, {1, 2}) == F(21, 5)
    assert designer_profit(example, {2}, {2}) == F(2, 5)


def test_designer_profit_rejects_bad_subsets(example):
    with pytest.raises(SubsetError):
        designer_profit(example, {1}, {1, 2})
    with pytest.raises(SubsetError):
        designer_profit(example, {3}, set())
    with pytest.raises(SubsetError):
        agent_utility(derived_params(example), {0})


def _base_kwargs():
    return dict(
        p=[F(1, 2), F(1, 2)],
        q=[F(1, 2), F(1, 2)],
        y=[F(1, 4), F(1, 4)],
        c_life=[F(0), F(0)],
        c_platform=[F(1), F(2)],
        d=[F(10), F(1)],
        cost=[F(1, 10), F(1, 10)],
    )


def test_validation_errors():
    bad = _base_kwargs()
    bad["p"] = [F(1, 2), F(1, 3)]
    with pytest.raises(ProbabilityError):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["q"] = [F(1, 2), F(1)]
    with pytest.raises(ProbabilityError):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["y"] = [F(1, 4), F(3, 4)]
    with pytest.raises(ProbabilityError):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["y"] = [F(1, 4), F(0)]
    with pytest.raises(DegenerateState):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["cost"] = [F(1, 10), F(0)]
    with pytest.raises(NonpositiveCost):
        build_flower_instance(**bad)


def test_objective_equals_stationary_reward(example):
    dp = derived_params(example)
    for S in all_subsets(example.n):
        pi = stationary_distribution_flower(example, S)
        reward = sum(
            pi[i] * (example.c_platform[i - 1] if i in S else example.c_life[i - 1])
            for i in range(1, example.n + 1)
        )
        assert agent_utility(dp, S) == reward


def test_general_chain_matches_flower_stationary():
    for seed in range(5):
        inst = gen_random_flower(4, seed=seed)
        for S in all_subsets(4):
            chain = flower_as_general_chain(inst, S)
            assert steady_state_general(chain) == stationary_distribution_flower(inst, S)


def test_general_chain_validation():
    with pytest.raises(ProbabilityError):
        build_general_chain([[F(1, 2), F(1, 3)], [F(0), F(1)]])
    with pytest.raises(ProbabilityError):
        build_general_chain([[F(3, 2), F(-1, 2)], [F(0), F(1)]])
    with pytest.raises(SubsetError):
        build_general_chain([[F(1)]], start=2)


def test_steady_state_rejects_two_closed_classes():
    # Two absorbing states reachable from the start.
    chain = build_general_chain(
        [
            [F(0), F(1, 2), F(1, 2)],
            [F(0), F(1), F(0)],
            [F(0), F(0), F(1)],
        ]
    )
    with pytest.raises(ReducibleChain):
        steady_state_general(chain)


def test_steady_state_transient_start_gets_zero_mass():
    chain = build_general_chain(
        [
            [F(0), F(1), F(0)],
            [F(0), F(1, 2), F(1, 2)],
            [F(0), F(1, 2), F(1, 2)],
        ]
    )
    pi = steady_state_general(chain)
    assert pi == (F(0), F(1, 2), F(1, 2))


def test_steady_state_ignores_unreachable_states():
    chain = build_general_chain(
        [
            [F(1), F(0)],
            [F(1, 2), F(1, 2)],
        ],
        start=0,
    )
    assert steady_state_general(chain) == (F(1), F(0))


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants raise instead.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"
