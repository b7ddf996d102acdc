import json
import random
import tracemalloc
from fractions import Fraction as F
from itertools import accumulate

import pytest

from conftest import FLOWER_KINDS, NARROW
from pdp import agent, cli, core
from pdp.agent import (
    SignError,
    TooLarge,
    adopted_response,
    agent_oracle,
    greedy_solve,
    greedy_solve_signed,
    is_feasible,
)
from pdp.core import (
    AdoptionSet,
    DerivedPairs,
    DerivedParams,
    agent_utility,
    all_subsets,
    as_pair,
    derived_params,
    scale_to_integers,
)
from pdp.designer import designer_oracle
from pdp.instances import gen_random_flower


def _params(lam, w, z, phi, A, B):
    """DerivedParams holding the given Fraction values."""
    vectors = (tuple(map(as_pair, v)) for v in (lam, w, z, phi))
    return DerivedParams(DerivedPairs(*vectors, as_pair(A), as_pair(B)))


def _lex_key(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


# Reference: the oracle sweep with one table entry per subset, each
# extending the subset without its lowest state.  The oracle must return
# the same set and utility.
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


# Reference: the single Gray-code sweep, comparing each subset with the
# incumbent in Python.  The blocked sweep must return the same set and
# utility.
def _gray_agent_oracle(dp):
    n = dp.n
    _, (a, b), zphis, zs = scale_to_integers(
        (dp.A, dp.B), [z * phi for z, phi in zip(dp.z, dp.phi)], dp.z
    )
    terms = list(zip(zphis, zs))

    mask, num, den, size = 0, a, b, 0
    best_mask, best_num, best_den, best_size = 0, a, b, 0
    for step in range(1, 1 << n):
        low = step & -step
        zphi, z = terms[low.bit_length() - 1]
        mask ^= low
        if mask & low:
            num += zphi
            den += z
            size += 1
        else:
            num -= zphi
            den -= z
            size -= 1
        cmp = num * best_den - best_num * den
        if cmp > 0 or (cmp == 0 and size < best_size):
            best_mask, best_num, best_den, best_size = mask, num, den, size
    chosen = frozenset(i + 1 for i in range(n) if best_mask >> i & 1)
    return chosen, F(best_num, best_den)


# Reference: the blocked Gray-code sweep that sums every key, scoring
# each block of 2^8 steps with max(accumulate(...)) over per-step key
# increments.  The oracle, which tests a block in O(1) against the
# prefix maximum of its increments, must return the same set and utility.
def _blocked_agent_oracle(dp):
    n = dp.n
    _, (a, b), zphis, zs = scale_to_integers(
        (dp.A, dp.B), [z * phi for z, phi in zip(dp.z, dp.phi)], dp.z
    )
    bits = min(8, n)

    def sums(mask):
        states = [i for i in range(n) if mask >> i & 1]
        return a + sum(zphis[i] for i in states), b + sum(zs[i] for i in states), len(states)

    def block_steps(first):
        steps = []
        for t in range(first + 1, first + (1 << bits)):
            low = t & -t
            steps.append((low.bit_length() - 1, bool((t ^ t >> 1) & low)))
        return steps

    steps_by_parity = (block_steps(0), block_steps(1 << bits))

    def increments(bn, bd):
        d = [(zphi * bd - bn * z) * (n + 1) - 1 for zphi, z in zip(zphis, zs)]
        signed = ([-x for x in d], d)
        return d, [[signed[enters][i] for i, enters in steps] for steps in steps_by_parity]

    best, bn, bd, bs = 0, a, b, 0
    d, incs_by_parity = increments(bn, bd)
    key = 0
    for t0 in range(0, 1 << n, 1 << bits):
        first = t0 ^ (t0 >> 1)
        if t0:
            for i in (bits - 1, (t0 & -t0).bit_length() - 1):
                key += d[i] if first >> i & 1 else -d[i]
        incs = incs_by_parity[t0 >> bits & 1]
        while (top := max(accumulate(incs, initial=key))) > 0:
            t = t0 + list(accumulate(incs, initial=key)).index(top)
            best = t ^ (t >> 1)
            bn, bd, bs = sums(best)
            d, incs_by_parity = increments(bn, bd)
            incs = incs_by_parity[t0 >> bits & 1]
            num, den, size = sums(first)
            key = (num * bd - bn * den) * (n + 1) + bs - size
    chosen = frozenset(i + 1 for i in range(n) if best >> i & 1)
    return chosen, F(bn, bd)


# Reference: the blocked sweep with bit i holding state i + 1, from
# before the oracle labelled its bits by rank.  It tests blocks in O(1)
# and rescans with a second accumulate.  The oracle must return the same
# set and utility.
def _unordered_agent_oracle(dp):
    n = dp.n
    _, (a, b), zphis, zs = scale_to_integers(
        (dp.A, dp.B), [z * phi for z, phi in zip(dp.z, dp.phi)], dp.z
    )
    bits = min(8, n)

    def sums(mask):
        states = [i for i in range(n) if mask >> i & 1]
        return a + sum(zphis[i] for i in states), b + sum(zs[i] for i in states), len(states)

    steps = []
    for t in range(1, 1 << bits):
        low = t & -t
        steps.append((low.bit_length() - 1, bool((t ^ t >> 1) & low)))

    def increments(bn, bd):
        d = [(zphi * bd - bn * z) * (n + 1) - 1 for zphi, z in zip(zphis, zs)]
        incs = [d[i] if enters else -d[i] for i, enters in steps]
        return d, incs, max(accumulate(incs, initial=0))

    best, bn, bd, bs = 0, a, b, 0
    d, incs, top = increments(bn, bd)
    key = 0
    for t0 in range(1 << (n - bits)):
        outer = (t0 ^ t0 >> 1) << bits
        if t0:
            i = bits + (t0 & -t0).bit_length() - 1
            key += d[i] if outer >> i & 1 else -d[i]
        while key + top > 0:
            t = list(accumulate(incs, initial=key)).index(key + top)
            best = outer | (t ^ t >> 1)
            bn, bd, bs = sums(best)
            d, incs, top = increments(bn, bd)
            num, den, size = sums(outer)
            key = (num * bd - bn * den) * (n + 1) + bs - size
    chosen = frozenset(i + 1 for i in range(n) if best >> i & 1)
    return chosen, F(bn, bd)


def test_greedy_reference(example):
    dp = derived_params(example)
    result, steps = greedy_solve(dp)
    assert result.states == frozenset({1, 2})
    assert result.utility == F(6, 5)
    assert [s.state for s in steps] == [2, 1]


def test_greedy_trace_monotone():
    for seed in range(20):
        inst = gen_random_flower(6, seed=seed)
        dp = derived_params(inst)
        result, steps = greedy_solve(dp)
        accepted = [s for s in steps if s.accepted]
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
    dp = _params(
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
    dp = _params(
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


def test_oracle_guard(monkeypatch):
    inst = gen_random_flower(4, seed=0)
    monkeypatch.setattr(agent, "_ORACLE_STATES", 3)
    with pytest.raises(TooLarge):
        agent_oracle(derived_params(inst))


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
    # Mixed-sign and all-positive flowers: the agent adopts the smallest
    # optimal subset of the offer, which is unique.
    for seed in range(20):
        for ranges in ({"allow_negative_z": True}, None, NARROW):
            inst = gen_random_flower(5, seed=300 + seed, ranges=ranges)
            dp = derived_params(inst)
            utility = {T: agent_utility(dp, T) for T in all_subsets(5)}
            for S in all_subsets(5):
                best = max(u for T, u in utility.items() if T <= S)
                optimal = [T for T, u in utility.items() if T <= S and u == best]
                smallest = min(len(T) for T in optimal)
                assert [T for T in optimal if len(T) == smallest] == [adopted_response(inst, S)]


def test_oracle_matches_table_reference():
    for idx in range(240):
        ranges = [None, NARROW, {"allow_negative_z": True}, {**NARROW, "allow_negative_z": True}][idx % 4]
        inst = gen_random_flower(1 + idx % 12, seed=7000 + idx, ranges=ranges)
        dp = derived_params(inst)
        result = agent_oracle(dp)
        assert (result.states, result.utility) == _ref_agent_oracle(dp)


def _tight_params(n, rng):
    # Small integers and potentials next to the base utility a, so that
    # the oracle's integer ratio comparisons come out between -n and n
    # and the size term of its key must not outweigh them.
    a = rng.randint(0, 4)
    z = tuple(F(rng.choice([-1, 1, 2])) for _ in range(n))
    B = 1 - sum(x for x in z if x < 0)
    return _params(
        lam=(F(1),) * n,
        w=tuple(1 + x for x in z),
        z=z,
        phi=tuple(F(a + rng.randint(-1, 2)) for _ in range(n)),
        A=F(a * B),
        B=F(B),
    )


def test_oracle_matches_gray_code_reference():
    # 24 instances for each n = 1..16, four of each flower kind and eight
    # small-integer ones: one block below n = 8, one full block at n = 8,
    # several blocks from n = 9.
    kinds = [None, NARROW, {"allow_negative_z": True}, {**NARROW, "allow_negative_z": True}]
    rng = random.Random(5)
    for idx in range(384):
        n = 1 + idx % 16
        kind = idx // 16 % 6
        if kind < 4:
            dp = derived_params(gen_random_flower(n, seed=9000 + idx, ranges=kinds[kind]))
        else:
            dp = _tight_params(n, rng)
        result = agent_oracle(dp)
        expected = _gray_agent_oracle(dp)
        assert (result.states, result.utility) == expected == _unordered_agent_oracle(dp), (n, idx)


def _tie_instance(n, core):
    # The states in `core` reach the optimal utility 2 together; every
    # other state has potential 2 and leaves it there.  So the full set
    # ties with `core` and has n - len(core) >= 9 more states: the two
    # lie in different blocks of the sweep.
    phi = {1: F(4), 2: F(3)}[len(core)]
    return _params(
        lam=(F(1),) * n,
        w=(F(2),) * n,
        z=(F(1),) * n,
        phi=tuple(phi if i in core else F(2) for i in range(1, n + 1)),
        A=F(0),
        B=F(1),
    )


def test_oracle_tie_break_across_blocks():
    for n in (10, 11, 13):
        cores = [{i} for i in range(1, n + 1)] + [{1, n}, {8, 9}, {n - 1, n}]
        for core in cores:
            dp = _tie_instance(n, core)
            assert agent_utility(dp, range(1, n + 1)) == 2
            result = agent_oracle(dp)
            assert result.states == frozenset(core) and result.utility == 2, (n, core)
            assert (result.states, result.utility) == _gray_agent_oracle(dp)


def test_oracles_sweep_in_constant_memory():
    # A table per running sum would take 2^14 entries each (over 1 MB),
    # and 2^18 entries for the n = 18 agent oracle.
    inst = gen_random_flower(14, seed=11)
    mixed = gen_random_flower(14, seed=8, ranges={"allow_negative_z": True}, delta=F(1, 16))
    assert any(z < 0 for z in derived_params(mixed).z)
    dp = derived_params(inst)
    big = derived_params(gen_random_flower(18, seed=11))
    for oracle, arg in (
        (agent_oracle, dp),
        (agent_oracle, big),
        (designer_oracle, inst),
        (designer_oracle, mixed),
    ):
        tracemalloc.start()
        try:
            oracle(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (oracle.__name__, peak)


def _gray_rank(mask):
    # The step at which the single reflected Gray-code sweep of the
    # references visits `mask`; its bits from 8 up number the block.
    t = 0
    while mask:
        t ^= mask
        mask >>= 1
    return t


def _count_accumulate(monkeypatch, limit=None):
    # Replace the oracle's accumulate with one that counts its calls and
    # fails past `limit` of them, so a sweep that never ends fails too.
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        assert limit is None or len(calls) <= limit, f"over {limit} accumulate calls"
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(agent, "accumulate", counting)
    return calls


def _wide_params(n, rng):
    # Potentials in a narrow band far above the base utility 0, and a few
    # negative-z states with potentials below it: the optimum holds about
    # every state, so more than 8 and past the first block of any sweep.
    z = tuple(F(rng.choice([-1, 1, 1, 2, 3])) for _ in range(n))
    B = 1 - sum(x for x in z if x < 0)
    return _params(
        lam=(F(1),) * n,
        w=tuple(1 + x for x in z),
        z=z,
        phi=tuple(F(20 + rng.randint(0, 2)) if x > 0 else F(rng.randint(-3, 0)) for x in z),
        A=F(0),
        B=F(B),
    )


def _identity(a, b, zphis, zs):
    return list(range(len(zs)))


def _recording(monkeypatch, labelling):
    # Patch the oracle's labelling and keep the order of each call.
    orders = []

    def recorded(*args):
        orders.append(labelling(*args))
        return orders[-1]

    monkeypatch.setattr(agent, "_sweep_order", recorded)
    return orders


def test_oracle_block_test_matches_blocked_sweep(monkeypatch):
    # The O(1) block test must rescan exactly the blocks that hold a
    # better subset, in every block and after every change of incumbent.
    # Tight integers and cross-block ties at n = 9..13, flowers of each
    # kind and optima of more than 8 states.  With bits labelled by state,
    # about half the optima lie in an odd block, where the blocked
    # reference walks the inner sets from a nonempty one, so in another
    # order than the oracle.  Each incumbent beats the last, so a sweep
    # makes at most 1 + (2^n - 1) calls to accumulate.
    calls = _count_accumulate(monkeypatch, limit=1 << 13)
    kinds = [None, NARROW, {"allow_negative_z": True}, {**NARROW, "allow_negative_z": True}]
    rng = random.Random(14)
    cases = [_tie_instance(n, core) for n in (10, 11, 13) for core in ({1}, {n}, {8, 9}, {n - 1, n})]
    for idx in range(140):
        n = 9 + idx % 5
        kind = idx // 5 % 7
        if kind < 4:
            cases.append(derived_params(gen_random_flower(n, seed=14000 + idx, ranges=kinds[kind])))
        elif kind < 6:
            cases.append(_tight_params(n, rng))
        else:
            cases.append(_wide_params(n, rng))
    expected = [_blocked_agent_oracle(dp) for dp in cases]
    assert expected == [_gray_agent_oracle(dp) for dp in cases]
    odd = sum(_gray_rank(sum(1 << (i - 1) for i in states)) >> 8 & 1 for states, _ in expected)
    assert odd >= 40, odd
    assert sum(len(states) > 8 for states, _ in expected) >= 20
    # The final incumbent is set by a rescan of the block that holds it,
    # so an optimum past the sweep's first block shows a rescan there.
    # Under the rank labelling those are mostly the optima of more than 8
    # states; under the identity, the optima that hold a state above 8.
    later = {}
    for name, labelling in (("ranked", agent._sweep_order), ("identity", _identity)):
        orders = _recording(monkeypatch, labelling)
        later[name] = 0
        for dp, want in zip(cases, expected):
            calls.clear()
            result = agent_oracle(dp)
            assert (result.states, result.utility) == want, name
            rank = orders[-1]
            later[name] += sum(1 << rank.index(i - 1) for i in result.states) >> 8 != 0
    assert later["ranked"] >= 30 and later["identity"] >= 100, later


def test_oracle_tests_blocks_in_constant_time(monkeypatch):
    # One prefix-sum list at the start and one per incumbent: 4 on this
    # flower, whose optimum {8, 15, 16} the rank labelling puts in the
    # first of its 2^10 blocks, found after 3 incumbents.
    calls = _count_accumulate(monkeypatch)
    dp = derived_params(gen_random_flower(18, seed=11))
    result = agent_oracle(dp)
    assert len(calls) == 4, len(calls)
    assert result.states == frozenset({8, 15, 16})
    assert result.utility == greedy_solve(dp)[0].utility


def test_gray_steps_match_per_call_steps():
    # The inner Gray code's steps for every block width up to
    # _BLOCK_BITS, as the oracle built them on each call, are a prefix of
    # the one module constant.
    assert agent._BLOCK_BITS == 8 and len(agent._GRAY_STEPS) == 255
    for bits in range(9):
        steps = []
        for t in range(1, 1 << bits):
            low = t & -t
            steps.append((low.bit_length() - 1, bool((t ^ t >> 1) & low)))
        assert list(agent._GRAY_STEPS[: (1 << bits) - 1]) == steps, bits


def test_sweep_order_ranks_by_signed_gain():
    # Descending sign(z) * (phi - A/B), ties by state; A/B = 2 here.
    dp = _params(
        lam=(F(1),) * 6,
        w=(F(2), F(3), F(1, 2), F(2), F(3, 2), F(1, 3)),
        z=(F(1), F(2), F(-1, 2), F(1), F(1, 2), F(-2, 3)),
        phi=(F(3), F(5, 2), F(1), F(3), F(2), F(3)),
        A=F(4),
        B=F(2),
    )
    _, (a, b), zphis, zs = scale_to_integers(
        (dp.A, dp.B), [z * phi for z, phi in zip(dp.z, dp.phi)], dp.z
    )
    # Gains 1, 1/2, 1, 1, 0, -1 for states 1..6.
    assert agent._sweep_order(a, b, zphis, zs) == [0, 2, 3, 1, 4, 5]


def test_oracle_answer_does_not_depend_on_labelling(monkeypatch):
    # Under the identity, the reversed and seeded shuffled labellings, the
    # oracle returns what the references return, which label bits by
    # state: on every flower kind, tight integers and cross-block ties.
    rng = random.Random(36)
    cases = [_tie_instance(n, core) for n in (10, 11) for core in ({1}, {n}, {8, 9}, {1, n}, {n - 1, n})]
    for idx in range(96):
        n = 1 + idx % 12
        kind = idx // 12 % 6
        if kind < 4:
            cases.append(derived_params(gen_random_flower(n, seed=36000 + idx, ranges=FLOWER_KINDS[kind])))
        elif kind == 4:
            cases.append(_tight_params(n, rng))
        else:
            cases.append(_wide_params(n, rng))
    expected = [_ref_agent_oracle(dp) for dp in cases]
    assert expected == [_gray_agent_oracle(dp) for dp in cases]
    assert expected == [_unordered_agent_oracle(dp) for dp in cases]

    def shuffled(a, b, zphis, zs):
        order = list(range(len(zs)))
        rng.shuffle(order)
        return order

    def reversed_(a, b, zphis, zs):
        return list(range(len(zs)))[::-1]

    for labelling in (_identity, reversed_, shuffled):
        orders = _recording(monkeypatch, labelling)
        for dp, want in zip(cases, expected):
            result = agent_oracle(dp)
            assert (result.states, result.utility) == want, (labelling.__name__, orders[-1])
        assert len(orders) == len(cases)


def test_oracle_relabels_with_the_petals():
    # Permuting a flower's petals permutes the oracle's answer the same way.
    rng = random.Random(3601)
    for idx in range(24):
        inst = gen_random_flower(10, seed=36100 + idx, ranges=FLOWER_KINDS[idx % 4])
        perm = list(range(inst.n))
        rng.shuffle(perm)
        # Petal j + 1 of the relabelled flower is petal perm[j] + 1.
        fields = core.FlowerPairs._fields
        moved = core.build_flower_instance(**{f: [getattr(inst, f)[i] for i in perm] for f in fields})
        result = agent_oracle(derived_params(inst))
        relabelled = agent_oracle(derived_params(moved))
        assert relabelled.utility == result.utility
        assert relabelled.states == frozenset(j + 1 for j, i in enumerate(perm) if i + 1 in result.states)


# References: the Fraction versions of the greedy and the fixpoint solver,
# from before both ran on the integer image.  The solvers must return the
# same sets, utilities and traces, every utility_before included.
def _ref_solve_signed(dp, offered):
    offered = list(offered)
    u = dp.A / dp.B
    while True:
        chosen = frozenset(
            i
            for i in offered
            if (dp.phi[i - 1] > u if dp.z[i - 1] > 0 else dp.phi[i - 1] < u)
        )
        num = dp.A + sum(dp.z[i - 1] * dp.phi[i - 1] for i in chosen)
        den = dp.B + sum(dp.z[i - 1] for i in chosen)
        if num / den == u:
            return chosen, u
        u = num / den


def _ref_greedy_solve(dp):
    order = sorted(range(1, dp.n + 1), key=lambda i: (-dp.phi[i - 1], i))
    num = dp.A
    den = dp.B
    chosen = set()
    steps = []
    for i in order:
        u = num / den
        accept = u < dp.phi[i - 1]
        steps.append(agent.GreedyStep(i, u, accept))
        if not accept:
            break
        chosen.add(i)
        num += dp.z[i - 1] * dp.phi[i - 1]
        den += dp.z[i - 1]
    return AdoptionSet(frozenset(chosen), num / den), tuple(steps)


def test_integer_solvers_match_fraction_reference(reference_flowers):
    rng = random.Random(18)
    positive = offers = 0
    for inst in reference_flowers:
        dp = derived_params(inst)
        states, utility = _ref_solve_signed(dp, range(1, dp.n + 1))
        assert greedy_solve_signed(dp) == AdoptionSet(states, utility)
        if all(z > 0 for z in dp.z):
            positive += 1
            result, steps = greedy_solve(dp)
            assert (result, steps) == _ref_greedy_solve(dp)
            assert all(type(step.utility_before) is F for step in steps)
        else:
            with pytest.raises(SignError):
                greedy_solve(dp)
        for _ in range(2):
            offered = frozenset(i for i in range(1, dp.n + 1) if rng.random() < 0.5)
            adopted, _ = _ref_solve_signed(dp, offered)
            assert adopted_response(inst, offered) == adopted
            assert is_feasible(inst, offered) == (adopted == offered)
            offers += 1
    assert positive >= 500 and offers == 2000


def _count_images(monkeypatch):
    # Wrap scale_to_integers where DerivedParams.image looks it up; an
    # image build is the call that scales (A, B), z and phi.
    calls = []
    real = core.scale_to_integers

    def counting(*vectors):
        calls.append(len(vectors))
        return real(*vectors)

    monkeypatch.setattr(core, "scale_to_integers", counting)
    return calls


def test_integer_image_built_once_per_params(monkeypatch, tmp_path, capsys):
    calls = _count_images(monkeypatch)
    inst = gen_random_flower(12, seed=4, ranges={"allow_negative_z": True})
    rng = random.Random(4)
    for _ in range(100):
        adopted_response(inst, [i for i in range(1, 13) if rng.random() < 0.5])
    assert calls == [3]

    # One verify runs the solver, the oracle and the FPTAS's feasibility
    # test; the image is built once, and the designer's ScaledParams once.
    calls.clear()
    path = tmp_path / "flower.json"
    path.write_text(json.dumps(cli.serialize_instance(gen_random_flower(10, seed=6))))
    assert cli.main(["verify", str(path)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c.get("match") for c in checks] == [True, True]
    assert sorted(calls) == [2, 3]


def test_oracle_does_not_use_integer_image(monkeypatch):
    insts = [gen_random_flower(1 + idx % 12, seed=500 + idx, ranges=FLOWER_KINDS[idx % 4]) for idx in range(48)]
    expected = [agent_oracle(derived_params(inst)) for inst in insts]

    def broken(self):
        raise RuntimeError("integer image used")

    monkeypatch.setattr(DerivedParams, "image", property(broken))
    assert [agent_oracle(derived_params(inst)) for inst in insts] == expected
    with pytest.raises(RuntimeError):
        greedy_solve_signed(derived_params(insts[0]))
