import dataclasses
import math
from fractions import Fraction as F

import pytest

from pdp.agent import TooLarge, is_feasible
from pdp.core import (
    all_subsets,
    build_flower_instance,
    derived_params,
    designer_profit,
    scaled_params,
)
from pdp.designer import (
    CostBoundError,
    DesignSet,
    EmptyInstance,
    QuantizationError,
    _feasible_singleton_profit,
    designer_oracle,
    fptas_solve,
    preprocess,
    singleton_profit,
)
from pdp.instances import gen_random_flower


# Reference: the FPTAS and its preprocessing computed directly over
# Fraction.  The integer-scaled solver must match it bin for bin.


@dataclasses.dataclass(frozen=True)
class _RefQuantized:
    inst: object
    delta: F
    epsilon: F
    K: F
    r: F
    surviving: tuple


def _ref_preprocess(inst, delta=None, epsilon=F(1, 10), r_ceiling=F(1000)):
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon = {epsilon} must lie in (0, 1)")
    dp = derived_params(inst)
    surviving = tuple(
        i
        for i in range(1, inst.n + 1)
        if is_feasible(inst, {i}) and singleton_profit(inst, i) > 0
    )
    if not surviving:
        raise EmptyInstance("no state has a feasible, profitable singleton")
    K = max(singleton_profit(inst, i) for i in surviving)
    if delta is None:
        num, den = 0, 1
        for i in surviving:
            num = math.gcd(num, dp.z[i - 1].numerator)
            den = math.lcm(den, dp.z[i - 1].denominator)
        delta = F(num, den)
    for i in surviving:
        ratio = dp.z[i - 1] / delta
        if ratio.denominator != 1 or ratio <= 0:
            raise QuantizationError(f"z[{i}] is not a positive integer multiple of {delta}")
    r = max(inst.cost[i - 1] / K for i in surviving)
    if r > r_ceiling:
        raise CostBoundError(f"cost/K ratio {r} exceeds the ceiling {r_ceiling}")
    return _RefQuantized(inst, delta, epsilon, K, r, surviving)


def _ref_fptas(qi, stage_log=None):
    inst = qi.inst
    dp = derived_params(inst)
    n = inst.n
    unit = qi.epsilon * qi.K / (2 * n)

    # Entry: (states tuple sorted, sum_dw, sum_cost, N, D, min_phi or None)
    def profit_of(entry):
        _, sum_dw, sum_cost, _, D, _ = entry
        return sum_dw / (dp.B + D) - sum_cost

    def key_of(entry):
        p1 = entry[1] / (dp.B + entry[4])
        d_steps = entry[4] / qi.delta
        assert d_steps.denominator == 1
        return (math.ceil(profit_of(entry) / unit), math.ceil(p1 / unit), int(d_steps))

    empty = ((), F(0), F(0), F(0), F(0), None)
    table = {key_of(empty): empty}

    for k in qi.surviving:
        zk = dp.z[k - 1]
        phik = dp.phi[k - 1]
        for _, entry in sorted(table.items()):
            states, sum_dw, sum_cost, N, D, min_phi = entry
            new_min = phik if min_phi is None else min(min_phi, phik)
            N2 = N + zk * phik
            D2 = D + zk
            if (dp.A + N2) >= new_min * (dp.B + D2):
                continue
            new_entry = (
                states + (k,),
                sum_dw + inst.d[k - 1] * dp.w[k - 1],
                sum_cost + inst.cost[k - 1],
                N2,
                D2,
                new_min,
            )
            if profit_of(new_entry) <= 0:
                continue
            key = key_of(new_entry)
            old = table.get(key)
            if old is None or N2 < old[3] or (N2 == old[3] and new_entry[0] < old[0]):
                table[key] = new_entry
        if stage_log is not None:
            stage_log.append((k, [e[0] for e in table.values()]))

    best = max(table.values(), key=lambda e: (profit_of(e), [-s for s in e[0]]))
    return DesignSet(frozenset(best[0]), profit_of(best), bins=len(table))


# Reference: the positive-z oracle sweep with one table entry per subset
# for every running sum.  The Gray-code sweep must pick the same set.
def _ref_oracle_positive(sp):
    n = len(sp.z)
    L, zphi, zs, dws, costs, phis = sp.L, sp.zphi, sp.z, sp.dw, sp.cost, sp.phi

    def mask_states(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    size = 1 << n
    num = [0] * size
    den = [0] * size
    dw = [0] * size
    cost = [0] * size
    minphi = [0] * size
    num[0], den[0] = sp.A, sp.B

    best_mask = 0
    best_pnum, best_pden = 0, 1
    best_size = 0
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        prev = mask ^ low
        num[mask] = num[prev] + zphi[i]
        den[mask] = den[prev] + zs[i]
        dw[mask] = dw[prev] + dws[i]
        cost[mask] = cost[prev] + costs[i]
        minphi[mask] = phis[i] if prev == 0 else min(minphi[prev], phis[i])
        if num[mask] * L >= minphi[mask] * den[mask]:
            continue
        pnum = dw[mask] * L - cost[mask] * den[mask]
        pden = den[mask] * L
        cmp = pnum * best_pden - best_pnum * pden
        if cmp > 0:
            best_mask, best_pnum, best_pden = mask, pnum, pden
            best_size = mask.bit_count()
        elif cmp == 0:
            sz = mask.bit_count()
            if sz < best_size or (sz == best_size and mask_states(mask) < mask_states(best_mask)):
                best_mask, best_pnum, best_pden = mask, pnum, pden
                best_size = sz
    return frozenset(i + 1 for i in range(n) if best_mask >> i & 1)


# Reference: the oracle for any z signs, one is_feasible and one exact
# Fraction profit per offered set.  The sweep must pick the same set.
def _ref_oracle_general(inst):
    n = inst.n
    best = (F(0), 0, ())
    best_states = frozenset()
    for mask in range(1, 1 << n):
        S = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        if not is_feasible(inst, S):
            continue
        p = designer_profit(inst, S, S)
        key = (p, -len(S), tuple(-s for s in sorted(S)))
        if key > best:
            best = key
            best_states = S
    return best_states


def test_preprocess_reference(example):
    qi = preprocess(example)
    assert qi.surviving == (1, 2)
    assert qi.K == F(49, 10)
    assert qi.delta == 1
    assert qi.r == F(1, 10) / F(49, 10)


def test_preprocess_drops_worthless_state(example):
    inst = build_flower_instance(
        p=example.p, q=example.q, y=example.y,
        c_life=example.c_life, c_platform=example.c_platform,
        d=[F(10), F(0)], cost=example.cost,
    )
    qi = preprocess(inst)
    assert qi.surviving == (1,)


def test_preprocess_quantization_error(example):
    qi = preprocess(example)
    assert qi.delta == 1
    with pytest.raises(QuantizationError):
        preprocess(example, delta=F(2, 3))


def test_preprocess_empty_instance(example):
    inst = build_flower_instance(
        p=example.p, q=example.q, y=example.y,
        c_life=example.c_life, c_platform=example.c_platform,
        d=[F(0), F(0)], cost=example.cost,
    )
    with pytest.raises(EmptyInstance):
        preprocess(inst)


def test_preprocess_cost_bound_error(example):
    with pytest.raises(CostBoundError):
        preprocess(example, r_ceiling=F(1, 1000))


def test_preprocess_epsilon_range(example):
    with pytest.raises(ValueError):
        preprocess(example, epsilon=F(0))
    with pytest.raises(ValueError):
        preprocess(example, epsilon=F(1))


def test_fptas_reference(example):
    qi = preprocess(example)
    result = fptas_solve(qi)
    assert is_feasible(example, result.states)
    assert result.profit >= (1 - qi.epsilon) * F(49, 10)
    assert result.profit == designer_profit(example, result.states, result.states)


def test_oracle_reference(example):
    result = designer_oracle(example)
    assert result.states == frozenset({1})
    assert result.profit == F(49, 10)


def test_oracle_empty_when_costs_dominate(example):
    inst = build_flower_instance(
        p=example.p, q=example.q, y=example.y,
        c_life=example.c_life, c_platform=example.c_platform,
        d=example.d, cost=[F(5), F(5)],
    )
    result = designer_oracle(inst)
    assert result.states == frozenset()
    assert result.profit == 0


def test_oracle_empty_without_demand(example):
    inst = build_flower_instance(
        p=example.p, q=example.q, y=example.y,
        c_life=example.c_life, c_platform=example.c_platform,
        d=[F(0), F(0)], cost=example.cost,
    )
    result = designer_oracle(inst)
    assert result.states == frozenset()
    assert result.profit == 0


def test_oracle_guard(example):
    with pytest.raises(TooLarge):
        designer_oracle(example, guard=1)


def test_oracle_equality_never_adopts_negative_state():
    # State 2 has z < 0 and phi_2 = 3/4 = u({1}) = u({1, 2}), so the agent
    # offered {1, 2} adopts only {1}: {1, 2} is not feasible, although its
    # profit 26/11 - 1/5 would beat the 2/5 of {1}.
    inst = build_flower_instance(
        p=[F(1, 2), F(1, 2)],
        q=[F(1, 2), F(1, 2)],
        y=[F(1, 4), F(-1, 4)],
        c_life=[F(0), F(1)],
        c_platform=[F(1), F(9, 8)],
        d=[F(1), F(10)],
        cost=[F(1, 10), F(1, 10)],
    )
    dp = derived_params(inst)
    assert dp.z[1] < 0 and dp.phi[1] == F(3, 4)
    assert not is_feasible(inst, {1, 2})
    assert _ref_oracle_general(inst) == {1}
    assert designer_oracle(inst) == DesignSet(frozenset({1}), F(2, 5))


def test_fptas_within_epsilon_of_oracle():
    checked = 0
    seed = 0
    while checked < 50:
        inst = gen_random_flower(2 + checked % 7, seed=seed)
        seed += 1
        epsilon = F(1, 10) if checked % 2 == 0 else F(1, 4)
        try:
            qi = preprocess(inst, epsilon=epsilon)
        except EmptyInstance:
            continue
        result = fptas_solve(qi)
        assert is_feasible(inst, result.states)
        assert result.profit == designer_profit(inst, result.states, result.states)
        exact = designer_oracle(inst)
        assert result.profit >= (1 - epsilon) * exact.profit
        checked += 1


def _entry_data(inst, states):
    dp = derived_params(inst)
    N = sum(dp.z[i - 1] * dp.phi[i - 1] for i in states)
    D = sum(dp.z[i - 1] for i in states)
    revenue = sum(inst.d[i - 1] * dp.w[i - 1] for i in states) / (dp.B + D)
    profit = revenue - sum(inst.cost[i - 1] for i in states)
    return N, D, revenue, profit


def test_bin_invariance_lemma():
    # Two feasible sets hashed to the same bin have the same denominator
    # shift and near-equal profits, and the set with the smaller
    # objective numerator inherits every feasible extension of the other.
    checked = 0
    seed = 500
    while checked < 15:
        inst = gen_random_flower(5, seed=seed)
        seed += 1
        try:
            qi = preprocess(inst)
        except EmptyInstance:
            continue
        checked += 1
        dp = derived_params(inst)
        unit = qi.epsilon * qi.K / (2 * inst.n)
        bins = {}
        for S in all_subsets(inst.n):
            if not set(S) <= set(qi.surviving):
                continue
            if not is_feasible(inst, S):
                continue
            N, D, revenue, profit = _entry_data(inst, S)
            if S and profit <= 0:
                continue
            key = (math.ceil(profit / unit), math.ceil(revenue / unit), D / qi.delta)
            bins.setdefault(key, []).append((S, N, D, profit))
        rest = set(qi.surviving)
        for group in bins.values():
            for (S1, N1, D1, p1) in group:
                for (S2, N2, D2, p2) in group:
                    if S1 == S2 or N1 > N2:
                        continue
                    assert D1 == D2
                    assert abs(p1 - p2) < unit
                    for T in all_subsets(inst.n):
                        if not set(T) <= rest - set(S1) - set(S2):
                            continue
                        if is_feasible(inst, S2 | T):
                            assert is_feasible(inst, S1 | T)


def test_stagewise_loss_bound():
    # After processing j states, some stored partial set extends (using
    # only unprocessed states) to a feasible set whose profit is within
    # j * epsilon * K / n of the optimum.
    checked = 0
    seed = 900
    while checked < 10:
        inst = gen_random_flower(5, seed=seed)
        seed += 1
        try:
            qi = preprocess(inst)
        except EmptyInstance:
            continue
        checked += 1
        unit = qi.epsilon * qi.K / (2 * inst.n)
        opt = designer_oracle(inst).profit
        log = []
        fptas_solve(qi, stage_log=log)
        for j, (state, stored) in enumerate(log, start=1):
            processed = set(qi.surviving[:j])
            remaining = set(qi.surviving[j:])
            best = F(0)
            for states in stored:
                base = set(states)
                for T in all_subsets(inst.n):
                    if not set(T) <= remaining:
                        continue
                    full = frozenset(base | set(T))
                    if not is_feasible(inst, full):
                        continue
                    best = max(best, designer_profit(inst, full, full))
            assert best >= opt - 2 * unit * j
        # Restricting the optimum to processed states only tightens it.
        assert best >= opt - 2 * unit * len(qi.surviving)


def test_table_size_bound():
    checked = 0
    seed = 1500
    while checked < 30:
        inst = gen_random_flower(2 + checked % 6, seed=seed)
        seed += 1
        epsilon = F(1, 10) if checked % 2 == 0 else F(1, 4)
        try:
            qi = preprocess(inst, epsilon=epsilon)
        except EmptyInstance:
            continue
        checked += 1
        dp = derived_params(inst)
        n = inst.n
        result = fptas_solve(qi)
        z_steps = sum(int(dp.z[i - 1] / qi.delta) for i in qi.surviving)
        profit_bins = math.ceil(2 * n * n / epsilon) + 2
        revenue_bins = math.ceil(2 * n * n * (1 + qi.r) / epsilon) + 2
        assert result.bins <= profit_bins * revenue_bins * (z_steps + 1)


def test_singleton_profit_matches_designer_profit(example):
    for i in (1, 2):
        assert singleton_profit(example, i) == designer_profit(example, {i}, {i})


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EmptyInstance, CostBoundError, QuantizationError) as exc:
        return type(exc)


# Few distinct values, so petals repeat and bins collide between sets of
# equal objective numerator: this exercises the collision tie-break.
_NARROW = {"weight_max": 1, "q_steps": 1, "z_max": 2, "c_life_max": 0,
           "c_platform_max": 4, "d_max": 4, "cost_max": 3}


def test_fptas_matches_fraction_reference():
    compared = 0
    for idx in range(260):
        n = 2 + idx % 13
        inst = gen_random_flower(n, seed=3000 + idx, ranges=_NARROW if idx % 3 == 2 else None)
        epsilon = F(1, 10) if idx % 2 == 0 else F(1, 4)
        delta = None
        if idx % 4 >= 2:
            dp = derived_params(inst)
            delta = F(
                math.gcd(*(z.numerator for z in dp.z)), math.lcm(*(z.denominator for z in dp.z))
            ) / (2 + idx % 3)
        ref = _outcome(_ref_preprocess, inst, delta=delta, epsilon=epsilon)
        qi = _outcome(preprocess, inst, delta=delta, epsilon=epsilon)
        if isinstance(ref, type):
            assert qi is ref
            continue
        assert (qi.surviving, qi.K, qi.r, qi.delta) == (ref.surviving, ref.K, ref.r, ref.delta)
        ref_log, log = [], []
        expected = _ref_fptas(ref, stage_log=ref_log)
        result = fptas_solve(qi, stage_log=log)
        assert (result.states, result.profit, result.bins) == (
            expected.states,
            expected.profit,
            expected.bins,
        )
        assert log == ref_log
        compared += 1
    assert compared >= 200


def test_singleton_screen_matches_agent_response():
    for idx in range(40):
        inst = gen_random_flower(
            2 + idx % 6, seed=idx, ranges={"allow_negative_z": True}, delta=F(1, 16)
        )
        sp = scaled_params(inst, derived_params(inst))
        for i in range(1, inst.n + 1):
            expected = singleton_profit(inst, i) if is_feasible(inst, {i}) else None
            assert _feasible_singleton_profit(sp, i) == expected


def test_fptas_rejects_delta_not_dividing_z(example):
    qi = preprocess(example)
    assert qi.delta == 1
    with pytest.raises(QuantizationError):
        fptas_solve(dataclasses.replace(qi, delta=F(2, 3)))


def test_preprocess_rejects_nonpositive_delta(example):
    for delta in (F(0), F(-1)):
        with pytest.raises(QuantizationError):
            preprocess(example, delta=delta)


def test_oracle_matches_table_reference():
    # Narrow ranges repeat petals, so potentials and profits tie.
    narrow = {**_NARROW, "z_max": 1}
    cases = [(1 + idx % 12, 8000 + idx, narrow if idx % 2 else None) for idx in range(240)]
    # The best profit is reached by {1, 3, 4} and by {1, 3, 4, 5}, which
    # the sweep visits first: the smaller cardinality decides.
    cases.append((5, 7752, narrow))
    for n, seed, ranges in cases:
        inst = gen_random_flower(n, seed=seed, ranges=ranges)
        expected = _ref_oracle_positive(scaled_params(inst, derived_params(inst)))
        result = designer_oracle(inst)
        assert (result.states, result.profit) == (
            expected,
            designer_profit(inst, expected, expected),
        )
    # Mixed signs: feasibility is two-sided, so the reference asks the
    # agent's own response for every offered set.
    mixed = {"allow_negative_z": True}
    cases = [
        (1 + idx % 12, 8500 + idx, {**narrow, **mixed} if idx % 2 else mixed)
        for idx in range(36)
    ]
    # Narrow cases whose best profit several sets reach: {2, 3} and
    # {1, 2, 3}; {1, 3, 5, 6}, {1, 4, 5, 6} and {1, 3, 4, 5, 6}; {1, 3, 4}
    # and {1, 4, 6}.  Each holds a negative-z state.
    cases += [(2 + seed % 7, seed, {**narrow, **mixed}) for seed in (8016, 8544, 8146)]
    negative_optima = 0
    for n, seed, ranges in cases:
        inst = gen_random_flower(n, seed=seed, ranges=ranges, delta=F(1, 16))
        expected = _ref_oracle_general(inst)
        result = designer_oracle(inst)
        assert (result.states, result.profit) == (
            expected,
            designer_profit(inst, expected, expected),
        )
        negative_optima += any(derived_params(inst).z[i - 1] < 0 for i in expected)
    assert negative_optima >= 15
