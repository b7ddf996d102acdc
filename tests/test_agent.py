import tracemalloc
from fractions import Fraction as F

import pytest

from pdp.agent import (
    SignError,
    TooLarge,
    _lex_key,
    adopted_response,
    agent_oracle,
    greedy_solve,
    greedy_solve_signed,
    is_feasible,
)
from pdp.core import DerivedParams, agent_utility, all_subsets, derived_params, scale_to_integers
from pdp.designer import designer_oracle
from pdp.instances import gen_random_flower


# Reference: the oracle sweep with one table entry per subset, each
# extending the subset without its lowest state.  The Gray-code oracle
# must return the same set and utility.
def _ref_agent_oracle(dp):
    n = dp.n
    _, (a, b), zphis, zs = scale_to_integers(
        (dp.A, dp.B), [z * phi for z, phi in zip(dp.z, dp.phi)], dp.z
    )
    terms = list(zip(zphis, zs))
    nums = [0] * (1 << n)
    dens = [0] * (1 << n)
    nums[0], dens[0] = a, b
    best_mask, best_num, best_den, best_size = 0, a, b, 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        i = low.bit_length() - 1
        prev = mask ^ low
        num = nums[prev] + terms[i][0]
        den = dens[prev] + terms[i][1]
        nums[mask] = num
        dens[mask] = den
        cmp = num * best_den - best_num * den
        if cmp > 0:
            best_mask, best_num, best_den = mask, num, den
            best_size = mask.bit_count()
        elif cmp == 0:
            size = mask.bit_count()
            if size < best_size or (size == best_size and _lex_key(mask, n) < _lex_key(best_mask, n)):
                best_mask, best_num, best_den = mask, num, den
                best_size = size
    chosen = frozenset(i + 1 for i in range(n) if best_mask >> i & 1)
    return chosen, F(best_num, best_den)


# Identical petals apart from a few reward and cost levels, so that
# potentials and utilities repeat and the tie-break decides.
NARROW = {"z_max": 1, "weight_max": 1, "q_steps": 1, "c_life_max": 0,
          "c_platform_max": 4, "d_max": 4, "cost_max": 3}


def test_greedy_reference(example):
    dp = derived_params(example)
    result, trace = greedy_solve(dp)
    assert result.states == frozenset({1, 2})
    assert result.utility == F(6, 5)
    assert trace.order == (2, 1)


def test_greedy_trace_monotone():
    for seed in range(20):
        inst = gen_random_flower(6, seed=seed)
        dp = derived_params(inst)
        result, trace = greedy_solve(dp)
        accepted = [s for s in trace.steps if s.accepted]
        for first, second in zip(accepted, accepted[1:]):
            assert first.utility_before < second.utility_before
        # The trace replays to the returned set.
        assert frozenset(s.state for s in accepted) == result.states


def test_greedy_prefix_property():
    for seed in range(30):
        inst = gen_random_flower(6, seed=100 + seed)
        dp = derived_params(inst)
        if len(set(dp.phi)) != dp.n:
            continue
        result, _ = greedy_solve(dp)
        ranked = sorted(range(1, dp.n + 1), key=lambda i: -dp.phi[i - 1])
        assert result.states == frozenset(ranked[: len(result.states)])


def test_greedy_rejects_mixed_signs():
    dp = DerivedParams(
        lam=(F(1), F(1)),
        w=(F(2), F(1, 2)),
        z=(F(1), F(-1, 2)),
        phi=(F(4), F(1)),
        A=F(0),
        B=F(3),
    )
    with pytest.raises(SignError):
        greedy_solve(dp)


def test_signed_greedy_equality_convention():
    # Negative-z state whose potential equals the running utility is not
    # adopted; brute force confirms the value is unaffected.
    dp = DerivedParams(
        lam=(F(1), F(1)),
        w=(F(2), F(1, 2)),
        z=(F(1), F(-1, 2)),
        phi=(F(4), F(1)),
        A=F(0),
        B=F(3),
    )
    result = greedy_solve_signed(dp)
    assert result.states == frozenset({1})
    assert result.utility == 1
    assert max(agent_utility(dp, S) for S in all_subsets(2)) == 1


def test_signed_greedy_matches_plain_when_all_positive(example):
    dp = derived_params(example)
    plain, _ = greedy_solve(dp)
    signed = greedy_solve_signed(dp)
    assert plain.utility == signed.utility


def test_oracle_reference(example):
    dp = derived_params(example)
    result = agent_oracle(dp)
    assert result.states == frozenset({1, 2})
    assert result.utility == F(6, 5)


def test_oracle_single_state():
    inst = gen_random_flower(1, seed=3)
    dp = derived_params(inst)
    result = agent_oracle(dp)
    base = dp.A / dp.B
    if dp.phi[0] > base:
        assert result.states == frozenset({1})
    else:
        assert result.states == frozenset()


def test_oracle_guard():
    inst = gen_random_flower(4, seed=0)
    with pytest.raises(TooLarge):
        agent_oracle(derived_params(inst), guard=3)


def test_greedy_matches_oracle_positive_corpus():
    for seed in range(60):
        inst = gen_random_flower(2 + seed % 7, seed=seed)
        dp = derived_params(inst)
        result, _ = greedy_solve(dp)
        assert result.utility == agent_oracle(dp).utility


def test_signed_matches_oracle_mixed_corpus():
    for seed in range(60):
        inst = gen_random_flower(
            2 + seed % 6, seed=seed, ranges={"allow_negative_z": True}
        )
        dp = derived_params(inst)
        assert greedy_solve_signed(dp).utility == agent_oracle(dp).utility


def test_is_feasible_reference(example):
    assert is_feasible(example, {1, 2})
    assert is_feasible(example, set())
    assert is_feasible(example, {1})


def test_infeasible_when_potential_below_base():
    inst = gen_random_flower(3, seed=5, ranges={"c_life_max": 0})
    dp = derived_params(inst)
    # A state is rejected alone iff its potential does not beat the base.
    for i in range(1, 4):
        expected = agent_utility(dp, set()) < dp.phi[i - 1]
        assert is_feasible(inst, {i}) == expected


def test_subset_heredity():
    for seed in range(25):
        inst = gen_random_flower(5, seed=200 + seed)
        for S in all_subsets(5):
            if is_feasible(inst, S):
                for T in all_subsets(5):
                    if T < S:
                        assert is_feasible(inst, T)


def test_adopted_response_is_optimal_over_offer():
    for seed in range(20):
        inst = gen_random_flower(5, seed=300 + seed, ranges={"allow_negative_z": True})
        dp = derived_params(inst)
        for S in all_subsets(5):
            adopted = adopted_response(inst, S)
            best = max(
                agent_utility(dp, T) for T in all_subsets(5) if T <= S
            )
            assert agent_utility(dp, adopted) == best


def test_oracle_matches_table_reference():
    for idx in range(240):
        ranges = [None, NARROW, {"allow_negative_z": True}, {**NARROW, "allow_negative_z": True}][idx % 4]
        inst = gen_random_flower(1 + idx % 12, seed=7000 + idx, ranges=ranges)
        dp = derived_params(inst)
        result = agent_oracle(dp)
        assert (result.states, result.utility) == _ref_agent_oracle(dp)


def test_oracles_sweep_in_constant_memory():
    # A table per running sum would take 2^14 entries each (over 1 MB).
    inst = gen_random_flower(14, seed=11)
    mixed = gen_random_flower(14, seed=8, ranges={"allow_negative_z": True}, delta=F(1, 16))
    assert any(z < 0 for z in derived_params(mixed).z)
    dp = derived_params(inst)
    for oracle, arg in ((agent_oracle, dp), (designer_oracle, inst), (designer_oracle, mixed)):
        tracemalloc.start()
        try:
            oracle(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (oracle.__name__, peak)
