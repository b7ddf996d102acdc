import dataclasses
import math
import random
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from pdp.agent import TooLarge, is_feasible
from pdp import designer
from pdp.core import (
    ScaledParams,
    SignError,
    all_subsets,
    build_flower_instance,
    derived_params,
    designer_profit,
    scale_to_integers,
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
)
from pdp.instances import gen_random_flower

from conftest import MIXED


def _replaced(inst, **vectors):
    """inst with the given vectors in place of its own."""
    return build_flower_instance(**{**inst.pairs._asdict(), **vectors})


# Reference: the FPTAS and its preprocessing computed directly over
# Fraction.  The integer-scaled solver must match it bin for bin, and
# preprocess must raise the same errors with the same messages.


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
    if delta is not None and delta <= 0:
        raise QuantizationError(f"delta = {delta} must be positive")
    dp = derived_params(inst)
    surviving = tuple(
        i
        for i in range(1, inst.n + 1)
        if is_feasible(inst, {i}) and designer_profit(inst, {i}, {i}) > 0
    )
    if not surviving:
        raise EmptyInstance("no state has a feasible, profitable singleton")
    K = max(designer_profit(inst, {i}, {i}) for i in surviving)
    if delta is None:
        num, den = 0, 1
        for i in surviving:
            num = math.gcd(num, dp.z[i - 1].numerator)
            den = math.lcm(den, dp.z[i - 1].denominator)
        delta = F(num, den)
    for i in surviving:
        if dp.z[i - 1] < 0:
            raise SignError(
                f"z[{i}] = {dp.z[i - 1]} is negative; the FPTAS needs every surviving z positive"
            )
        if (dp.z[i - 1] / delta).denominator != 1:
            raise QuantizationError(
                f"z[{i}] = {dp.z[i - 1]} is not a positive integer multiple of {delta}"
            )
    r = max(inst.cost[i - 1] / K for i in surviving)
    if r > r_ceiling:
        raise CostBoundError(f"cost/K ratio {r} exceeds the ceiling {r_ceiling}")
    return _RefQuantized(inst, delta, epsilon, K, r, surviving)


def _ref_fptas(qi, stage_log=None, rounding=math.ceil):
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
        return (rounding(profit_of(entry) / unit), rounding(p1 / unit), int(d_steps))

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
# for every running sum.  The search must pick the same set.
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


# Reference: the Gray-code sweep over all 2^n offered sets that the
# depth-first search replaced.  The search must pick the same set.
def _oracle_sweep(sp):
    """Gray-code subset sweep over integer sums with a two-sided feasibility test.

    Consecutive subsets differ in one state (Knuth, TAOCP 4A, 7.2.1.1), so
    every running sum moves by one add or subtract.  The agent offered S
    adopts all of S iff every i in S has z_i * (phi_i - u(S)) > 0, where
    u(S) = (A + sum z*phi) / (B + sum z): by Dinkelbach's condition (see
    agent._solve_signed) S is the agent's response iff S is exactly the
    set of its states with that strict sign at u = u(S).  So S is feasible
    iff its smallest positive-z potential lies above u(S) and its largest
    negative-z potential below it; equality never adopts.

    The low bits stand for the negative-z states and the bits above them
    for the positive-z states, each block by descending potential, ties by
    state index.  The smallest positive-z potential is then that of the
    highest set bit, when it lies above the negative block, and the
    largest negative-z potential that of the lowest set negative bit.
    """
    n = len(sp.z)
    L = sp.L
    order = sorted(range(n), key=lambda j: (sp.z[j] > 0, -sp.phi[j], j))
    neg = sum(z < 0 for z in sp.z)
    neg_mask = (1 << neg) - 1
    terms = [(sp.zphi[j], sp.z[j], sp.dw[j], sp.cost[j]) for j in order]
    phis = [sp.phi[j] for j in order]

    def states(mask: int) -> tuple[int, ...]:
        return tuple(sorted(order[p] for p in range(mask.bit_length()) if mask >> p & 1))

    mask, num, den, dw, cost, size = 0, sp.A, sp.B, 0, 0, 0
    # Profits compare as pnum / den (the common factor 1/L drops out);
    # the empty set has profit 0.  den = (B + sum z) * L stays positive,
    # since B = 1 + sum lam and each z_i = w_i - lam_i > -lam_i, so with
    # phi scaled by L, u(S) < phi_i is num * L < phi_i * den, and the
    # feasibility tests are two integer cross-multiplications.
    best_mask, best_pnum, best_den, best_size = 0, 0, sp.B, 0
    for step in range(1, 1 << n):
        low = step & -step
        zphi, z, dwi, costi = terms[low.bit_length() - 1]
        mask ^= low
        if mask & low:
            num += zphi
            den += z
            dw += dwi
            cost += costi
            size += 1
        else:
            num -= zphi
            den -= z
            dw -= dwi
            cost -= costi
            size -= 1
        numL = num * L
        top = mask.bit_length() - 1
        if top >= neg and numL >= phis[top] * den:
            continue
        negs = mask & neg_mask
        if negs and phis[(negs & -negs).bit_length() - 1] * den >= numL:
            continue
        pnum = dw * L - cost * den
        cmp = pnum * best_den - best_pnum * den
        if cmp > 0 or (
            cmp == 0
            and (
                size < best_size
                or (size == best_size and states(mask) < states(best_mask))
            )
        ):
            best_mask, best_pnum, best_den, best_size = mask, pnum, den, size
    return frozenset(j + 1 for j in states(best_mask))


# Reference: the oracle for any z signs, one is_feasible and one exact
# Fraction profit per offered set.  The search must pick the same set.
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


def test_preprocess_cost_bound_error(example, monkeypatch):
    monkeypatch.setattr(designer, "_COST_RATIO", F(1, 1000))
    with pytest.raises(CostBoundError):
        preprocess(example)


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


def test_oracle_guard(example, monkeypatch):
    monkeypatch.setattr(designer, "_ORACLE_VISITS", 1)
    with pytest.raises(TooLarge):
        designer_oracle(example)


def test_oracle_budget_counts_visited_sets(monkeypatch):
    # The mixed-sign twin of gen_random_flower(20, seed=3): the search
    # needs well under a quarter of the 2^20 sets the sweep visits.
    twin = gen_random_flower(20, seed=3, ranges={"allow_negative_z": True}, delta=F(1, 16))
    assert any(z < 0 for z in derived_params(twin).z)
    expected = _oracle_sweep(_ref_scaled_params(twin, derived_params(twin)))
    monkeypatch.setattr(designer, "_ORACLE_VISITS", (1 << 20) // 4)
    assert designer_oracle(twin).states == expected


def test_oracle_tie_breaks(example):
    # Three petals on one chassis: every potential is 2 and every offered
    # set is feasible.  {2, 3} and {1, 2, 3} tie at 54/13, above every
    # other set; the search meets {1, 2, 3} first, and the smaller set
    # replaces it.
    chassis = build_flower_instance(
        p=[F(1, 3)] * 3,
        q=[F(1, 2)] * 3,
        y=[F(1, 4)] * 3,
        c_life=[F(0)] * 3,
        c_platform=[F(1)] * 3,
        d=[F(5), F(10), F(10)],
        cost=[F(20, 39), F(1), F(1)],
    )
    # The example with equal demands and costs: {1}, {2} and {1, 2} tie at
    # 2.  The search meets {2} first, since phi_2 = 4 > phi_1 = 2, and the
    # lexicographically first set of the smallest size replaces it.
    lex = _replaced(example, d=(F(10), F(10)), cost=(F(3), F(3)))
    for inst, n, best, profit in ((chassis, 3, {2, 3}, F(54, 13)), (lex, 2, {1}, F(2))):
        profits = {S: designer_profit(inst, S, S) for S in all_subsets(n) if is_feasible(inst, S)}
        assert max(profits.values()) == profit
        assert list(profits.values()).count(profit) >= 2
        assert _oracle_sweep(_ref_scaled_params(inst, derived_params(inst))) == best
        assert _ref_oracle_general(inst) == best
        assert designer_oracle(inst) == DesignSet(frozenset(best), profit)


def test_oracle_matches_sweep_reference():
    for idx in range(360):
        n = 1 + idx % 12
        ranges = [None, {"allow_negative_z": True}, {**_NARROW, "allow_negative_z": True}][idx % 3]
        inst = gen_random_flower(n, seed=9000 + idx, ranges=ranges, delta=F(1, 16))
        expected = _oracle_sweep(_ref_scaled_params(inst, derived_params(inst)))
        assert designer_oracle(inst).states == expected


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


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (EmptyInstance, CostBoundError, QuantizationError) as exc:
        return type(exc)


# Few distinct values, so petals repeat and bins collide between sets of
# equal objective numerator: this exercises the collision tie-break.
_NARROW = {"weight_max": 1, "q_steps": 1, "z_max": 2, "c_life_max": 0,
           "c_platform_max": 4, "d_max": 4, "cost_max": 3}


def _stage_sets(log):
    """Each stage's stored sets, in one order: the FPTAS walks its table in
    insertion order, so only the sets of a stage, not their order, are
    fixed."""
    return [(k, sorted(stored)) for k, stored in log]


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
        assert _stage_sets(log) == _stage_sets(ref_log)
        compared += 1
    assert compared >= 200


def test_fptas_bins_round_up_on_exact_multiples(example):
    # unit = (1/10) * 4 / 4 = 1/10.  {1} has profit 4 and revenue 5, both
    # exact multiples of the unit; {2} has profit 3.95 and revenue 4.95.
    # Rounding up puts both in bin (40, 50, 1), where {1} wins on its
    # smaller z*phi; rounding down would part them.
    inst = _replaced(example, d=(F(10), F(99, 10)), cost=(F(1), F(1)))
    qi, ref = preprocess(inst), _ref_preprocess(inst)
    assert qi.K == 4 and qi.epsilon * qi.K / (2 * inst.n) == F(1, 10)
    log, ref_log, floor_log = [], [], []
    result = fptas_solve(qi, stage_log=log)
    assert _ref_fptas(ref, stage_log=ref_log).bins == result.bins == 3
    assert _stage_sets(log) == _stage_sets(ref_log) == [(1, [(), (1,)]), (2, [(), (1,), (1, 2)])]
    assert _ref_fptas(ref, stage_log=floor_log, rounding=math.floor).bins == 4
    assert floor_log[-1] == (2, [(), (1,), (2,), (1, 2)])


def test_singleton_screen_matches_agent_response():
    for idx in range(40):
        inst = gen_random_flower(
            2 + idx % 6, seed=idx, ranges={"allow_negative_z": True}, delta=F(1, 16)
        )
        image, sp = derived_params(inst).image, scaled_params(inst, derived_params(inst))
        for i in range(1, inst.n + 1):
            got = _feasible_singleton_profit(image, sp, i)
            if not is_feasible(inst, {i}):
                assert got is None
                continue
            pnum, den = got
            assert den > 0
            assert F(pnum, den * sp.M) == designer_profit(inst, {i}, {i})


def _off_grid(example):
    """Preprocessed instances, each with a delta that does not divide every
    surviving z: the example (integer z) at 2/3, 3/7 and 2, and a flower of
    fractional z whose L, 9324, is a multiple of 3 at 3/16, which divides
    every z * L but not every z."""
    quarters = preprocess(gen_random_flower(6, seed=0, delta=F(1, 4)))
    return [(preprocess(example), d) for d in (F(2, 3), F(3, 7), 2)] + [(quarters, F(3, 16))]


def test_fptas_reads_no_delta(example):
    # preprocess is the one check of the FPTAS's input: a hand-built
    # instance with any delta solves as the one preprocess built.
    assert preprocess(example).delta == 1
    for qi, delta in _off_grid(example):
        assert fptas_solve(dataclasses.replace(qi, delta=delta)) == fptas_solve(qi)


def test_preprocess_rejects_nonpositive_delta(example):
    for delta in (F(0), F(-1)):
        with pytest.raises(QuantizationError):
            preprocess(example, delta=delta)


def test_preprocess_reads_epsilon_and_delta_with_rat(example):
    # epsilon and delta are read by core.rat: any exact spelling gives the
    # same instance, and a float is refused up front with rat's TypeError.
    qi = preprocess(example, delta=F(1), epsilon=F(1, 10))
    assert preprocess(example, delta="1", epsilon="1/10") == qi
    assert preprocess(example, delta=(3, 3), epsilon=(-1, -10)) == qi
    for key, value in (("epsilon", 0.1), ("delta", 0.5)):
        with pytest.raises(TypeError) as info:
            preprocess(example, **{key: value})
        assert str(info.value) == f"expected an exact rational, got {value!r}"


def test_oracle_matches_table_reference():
    # Narrow ranges repeat petals, so potentials and profits tie.
    narrow = {**_NARROW, "z_max": 1}
    cases = [(1 + idx % 12, 8000 + idx, narrow if idx % 2 else None) for idx in range(240)]
    # The best profit is reached by {1, 3, 4} and by {1, 3, 4, 5}: the
    # smaller cardinality decides.
    cases.append((5, 7752, narrow))
    for n, seed, ranges in cases:
        inst = gen_random_flower(n, seed=seed, ranges=ranges)
        expected = _ref_oracle_positive(_ref_scaled_params(inst, derived_params(inst)))
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


# Reference: one integer image of a flower over a single common
# denominator L, with z*phi and d*w formed as Fraction products before the
# scaling; every field is the rational value times L.  The reference
# oracles and _sorted_fptas read it, while the solvers read A, B, z and
# phi over one L (DerivedParams.image) and d*w and cost over another, M.
class _SingleL(NamedTuple):
    L: int
    A: int
    B: int
    z: tuple
    zphi: tuple
    phi: tuple
    dw: tuple
    cost: tuple


def _ref_scaled_params(inst, dp):
    n = inst.n
    L, (A, B), *vectors = scale_to_integers(
        (dp.A, dp.B),
        dp.z,
        tuple(dp.z[i] * dp.phi[i] for i in range(n)),
        dp.phi,
        tuple(inst.d[i] * dp.w[i] for i in range(n)),
        inst.cost,
    )
    return _SingleL(L, A, B, *vectors)


# Reference: ScaledParams with d*w formed as Fraction products before the
# scaling.  The pair-based scaled_params must give the same integers and
# the same M.
def _ref_designer_scaled(inst, dp):
    return ScaledParams(
        *scale_to_integers(tuple(d * w for d, w in zip(inst.d, dp.w)), inst.cost)
    )


# Reference: the FPTAS that walked each stage's table in sorted key order,
# on the single-L Fraction-product image.  The insertion-order walk must
# store the same sets in every bin.
def _sorted_fptas(qi, stage_log=None):
    dp = derived_params(qi.inst)
    sp = _ref_scaled_params(qi.inst, dp)
    L, A = sp.L, sp.A
    unit = qi.epsilon * qi.K / (2 * qi.inst.n)
    un, ud = unit.numerator, unit.denominator
    Lun = L * un
    table = {(0, 0, 0): ((), 0, sp.B, 0, 0, 0, None, 0)}
    for k in qi.surviving:
        j = k - 1
        # Steps of delta, whole or not, key a bin as sum z does.
        steps_k = dp.z[j] / qi.delta
        zk, zphik, phik, dwk, costk = sp.z[j], sp.zphi[j], sp.phi[j], sp.dw[j], sp.cost[j]
        for _, (states, N, den, sum_dw, sum_cost, steps, min_phi, _) in sorted(table.items()):
            new_min = phik if min_phi is None or phik < min_phi else min_phi
            N2 = N + zphik
            den2 = den + zk
            if (A + N2) * L >= new_min * den2:
                continue
            dw2 = sum_dw + dwk
            cost2 = sum_cost + costk
            pnum = dw2 * L - cost2 * den2
            if pnum <= 0:
                continue
            steps2 = steps + steps_k
            key = (-(-pnum * ud // (den2 * Lun)), -(-dw2 * ud // (den2 * un)), steps2)
            states2 = states + (k,)
            old = table.get(key)
            if old is None or N2 < old[1] or (N2 == old[1] and states2 < old[0]):
                table[key] = (states2, N2, den2, dw2, cost2, steps2, new_min, pnum)
        if stage_log is not None:
            stage_log.append((k, [e[0] for e in table.values()]))
    best = table[(0, 0, 0)]
    for e in table.values():
        cmp = e[7] * best[2] - best[7] * e[2]
        if cmp > 0 or (cmp == 0 and [-s for s in e[0]] > [-s for s in best[0]]):
            best = e
    return DesignSet(frozenset(best[0]), F(best[7], best[2] * L), bins=len(table))


def test_scaled_params_reduce_each_product():
    # d * w = (1/8) * (12/11) = 12/88 = 3/22 and cost = 1/7: over the
    # unreduced 88 the lcm would be 616, not 154.  Flowers with arbitrary
    # denominators besides: every field and M equal the Fraction-product
    # reference.
    inst = build_flower_instance(
        [F(1)], [F(1, 8)], [F(-1, 24)], [F(7, 8)], [F(3, 2)], [F(1, 8)], [F(1, 7)]
    )
    dp = derived_params(inst)
    assert scaled_params(inst, dp) == _ref_designer_scaled(inst, dp)
    assert scaled_params(inst, dp) == ScaledParams(154, (21,), (22,))
    rng = random.Random(19)
    built = 0
    while built < 300:
        n = rng.randint(1, 4)
        weights = [rng.randint(1, 5) for _ in range(n)]
        q = [F(rng.randint(1, 5), rng.randint(6, 12)) for _ in range(n)]

        def some(low=0):
            return [F(rng.randint(low, 9), rng.randint(1, 9)) for _ in range(n)]

        try:
            inst = build_flower_instance(
                [F(w, sum(weights)) for w in weights],
                q,
                [F(rng.randint(-20, 20), 84) * (1 - x) for x in q],
                some(), some(), some(), some(1),
            )
        except ValueError:
            continue
        dp = derived_params(inst)
        assert scaled_params(inst, dp) == _ref_designer_scaled(inst, dp)
        built += 1


def _raised(fn, *args, **kwargs):
    """fn's result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def _preprocessed(fn, inst, **kwargs):
    """The fields of fn(inst, **kwargs), or the type and text of its error."""
    qi = _raised(fn, inst, **kwargs)
    if isinstance(qi, tuple):
        return qi
    return qi.surviving, qi.K, qi.r, qi.delta, qi.epsilon


def test_integer_fptas_matches_sorted_reference():
    # n 1-20, and n 21-40 in one case of nine (the tables grow fast with
    # n), over the default, narrow (bins collide), mixed-sign and mixed
    # narrow ranges, at two epsilons, with the default delta and with the
    # gcd of z divided by 2, 3 or 4.
    kinds = (None, _NARROW, MIXED, {**_NARROW, **MIXED})
    outcomes = {}
    for idx in range(1000):
        n = 1 + idx % 20 + 20 * (idx % 9 == 8)
        kind = idx // 20 % 4
        inst = gen_random_flower(n, seed=19000 + idx, ranges=kinds[kind], delta=F(1, 1 + 3 * (kind >= 2)))
        dp = derived_params(inst)
        assert scaled_params(inst, dp) == _ref_designer_scaled(inst, dp)
        epsilon = F(1, 10) if idx // 80 % 2 == 0 else F(1, 4)
        delta = None
        if idx // 160 % 2:
            delta = F(
                math.gcd(*(z.numerator for z in dp.z)), math.lcm(*(z.denominator for z in dp.z))
            ) / (2 + idx % 3)
        expected = _preprocessed(_ref_preprocess, inst, delta=delta, epsilon=epsilon)
        assert _preprocessed(preprocess, inst, delta=delta, epsilon=epsilon) == expected
        if isinstance(expected[0], type):
            outcomes[expected[0]] = outcomes.get(expected[0], 0) + 1
            continue
        qi = preprocess(inst, delta=delta, epsilon=epsilon)
        outcomes[DesignSet] = outcomes.get(DesignSet, 0) + 1
        result = fptas_solve(qi)
        expected = _sorted_fptas(qi)
        assert (result.states, result.profit, result.bins) == (
            expected.states,
            expected.profit,
            expected.bins,
        )
    # Each delta given divides every z, so no grid fault; a surviving
    # negative z is a sign fault.
    assert outcomes == {DesignSet: 932, SignError: 48, EmptyInstance: 20}


def test_preprocess_errors_match_fraction_reference(example, monkeypatch):
    # Each check's error, type and text, on the example, on a mixed-sign
    # flower whose surviving negative z fails the sign test, and on a flower
    # of fractional z (L = 9324) that 3/16 does not divide, although it
    # divides every z * L.  The twelve-petal mixed flower's survivors are
    # states 3, 5, 6, 9 and 11, with z[3] = 1/4 and z[5] = -1/16: each state
    # is tested for its sign, then for the grid, in state order.
    mixed = next(
        inst
        for seed in range(100)
        for inst in [gen_random_flower(6, seed=seed, ranges=MIXED, delta=F(1, 16))]
        if _raised(_ref_preprocess, inst)[0] is SignError
    )
    mixed12 = gen_random_flower(12, seed=0, ranges=MIXED, delta=F(1, 16))
    worthless = _replaced(example, d=(F(0), F(0)))
    quarters = gen_random_flower(6, seed=0, delta=F(1, 4))
    assert quarters.params.image.L == 9324
    for inst, kwargs in [
        (example, {"epsilon": F(0)}),
        (example, {"epsilon": F(1)}),
        (example, {"delta": F(0)}),
        (example, {"delta": F(-1, 3)}),
        (example, {"delta": F(2, 3)}),
        (example, {"delta": 2}),
        (example, {"delta": 1}),
        (worthless, {}),
        (mixed, {}),
        (mixed, {"delta": F(1, 16)}),
        (mixed12, {}),
        (mixed12, {"delta": F(1, 8)}),
        (mixed12, {"delta": F(3, 16)}),
        (quarters, {}),
        (quarters, {"delta": F(1, 8)}),
        (quarters, {"delta": F(3, 16)}),
    ]:
        assert _preprocessed(preprocess, inst, **kwargs) == _preprocessed(
            _ref_preprocess, inst, **kwargs
        )
    assert _raised(preprocess, mixed)[0] is SignError
    # -1/16 is off the grid of 1/8, and the sign test comes first.
    negative = (SignError, "z[5] = -1/16 is negative; the FPTAS needs every surviving z positive")
    assert _raised(preprocess, mixed12) == _raised(preprocess, mixed12, delta=F(1, 8)) == negative
    assert _raised(preprocess, mixed12, delta=F(3, 16)) == (
        QuantizationError,
        "z[3] = 1/4 is not a positive integer multiple of 3/16",
    )
    monkeypatch.setattr(designer, "_COST_RATIO", F(1, 1000))
    assert _preprocessed(preprocess, example) == _preprocessed(
        _ref_preprocess, example, r_ceiling=F(1, 1000)
    )


def test_fptas_off_grid_delta_matches_sorted_reference(example):
    # The FPTAS reads no delta; the sorted reference keys on steps of it.
    for qi, delta in _off_grid(example):
        off = dataclasses.replace(qi, delta=delta)
        result, expected = fptas_solve(off), _sorted_fptas(off)
        assert (result.states, result.profit, result.bins) == (
            expected.states,
            expected.profit,
            expected.bins,
        )


def test_fptas_makes_fractions_only_at_the_edges(monkeypatch):
    # Fractions that designer makes in one preprocess plus fptas_solve: K,
    # r, the default delta and the returned profit, whatever the size.
    made = []
    real = designer.Fraction

    def counting(*args):
        made.append(args)
        return real(*args)

    counts, bins = [], []
    for n in (8, 32):
        inst = gen_random_flower(n, seed=5)
        inst.scaled  # built before counting: scaled_params lives in core
        made.clear()
        monkeypatch.setattr(designer, "Fraction", counting)
        qi = preprocess(inst)
        result = fptas_solve(qi)
        monkeypatch.setattr(designer, "Fraction", real)
        assert len(qi.surviving) >= n // 2
        counts.append(len(made))
        bins.append(result.bins)
    assert bins[1] > 10 * bins[0]
    assert counts[0] == counts[1] <= 4
