"""The designer's single-agent problem: rounding FPTAS and exact oracle.

The designer offers a set S of platforms; only feasible sets (the agent
adopts all of S) earn revenue.  The FPTAS hashes partial sets by rounded
profit, rounded revenue, and the exact scaled denominator shift, keeping
one representative per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .agent import TooLarge
from .core import (
    DerivedParams,
    FlowerInstance,
    ScaledParams,
    derived_params,
    designer_profit,
    scaled_params,
)


class QuantizationError(ValueError):
    """A z value is not a positive integer multiple of delta."""


class EmptyInstance(ValueError):
    """No state survives preprocessing."""


class CostBoundError(ValueError):
    """A build cost exceeds the allowed multiple of K."""


@dataclass(frozen=True)
class DesignSet:
    """An offered (= adopted) set with its exact profit."""

    states: frozenset[int]
    profit: Fraction
    bins: int | None = None


@dataclass(frozen=True)
class QuantizedInstance:
    inst: FlowerInstance
    delta: Fraction
    epsilon: Fraction
    K: Fraction
    r: Fraction
    surviving: tuple[int, ...]
    dp: DerivedParams
    scaled: ScaledParams


def singleton_profit(inst: FlowerInstance, i: int) -> Fraction:
    return designer_profit(inst, {i}, {i})


def _fraction_gcd(values) -> Fraction:
    num = 0
    den = 1
    for v in values:
        num = math.gcd(num, v.numerator)
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)


def _feasible_singleton_profit(sp: ScaledParams, i: int) -> Fraction | None:
    """Profit of offering {i} alone, or None when the agent would not adopt.

    The same answers as is_feasible(inst, {i}) and singleton_profit: a
    lone state is adopted iff its potential lies strictly above the
    baseline utility A/B (z > 0) or strictly below it (z < 0).
    """
    j = i - 1
    base, potential = sp.A * sp.L, sp.phi[j] * sp.B
    if not (base < potential if sp.z[j] > 0 else potential < base):
        return None
    den = sp.B + sp.z[j]
    return Fraction(sp.dw[j] * sp.L - sp.cost[j] * den, den * sp.L)


def preprocess(
    inst: FlowerInstance,
    delta: Fraction | None = None,
    epsilon: Fraction = Fraction(1, 10),
    r_ceiling: Fraction = Fraction(1000),
) -> QuantizedInstance:
    """Filter useless states and validate the quantization assumptions.

    A state survives when offering it alone is feasible and profitable.
    K is the best singleton profit; every cost must be at most r_ceiling
    times K; delta must be positive and every surviving z a positive
    multiple of it.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon = {epsilon} must lie in (0, 1)")
    if delta is not None and delta <= 0:
        raise QuantizationError(f"delta = {delta} must be positive")
    dp = derived_params(inst)
    sp = scaled_params(inst, dp)
    profits = {}
    for i in range(1, inst.n + 1):
        profit = _feasible_singleton_profit(sp, i)
        if profit is not None and profit > 0:
            profits[i] = profit
    if not profits:
        raise EmptyInstance("no state has a feasible, profitable singleton")
    surviving = tuple(profits)
    K = max(profits.values())
    if delta is None:
        delta = _fraction_gcd([dp.z[i - 1] for i in surviving])
    for i in surviving:
        ratio = dp.z[i - 1] / delta
        if ratio.denominator != 1 or ratio <= 0:
            raise QuantizationError(
                f"z[{i}] = {dp.z[i - 1]} is not a positive integer multiple of {delta}"
            )
    r = max(inst.cost[i - 1] / K for i in surviving)
    if r > r_ceiling:
        raise CostBoundError(f"cost/K ratio {r} exceeds the ceiling {r_ceiling}")
    return QuantizedInstance(inst, delta, epsilon, K, r, surviving, dp, sp)


def fptas_solve(qi: QuantizedInstance, stage_log: list | None = None) -> DesignSet:
    """(1 - epsilon)-approximate profit maximization over feasible sets.

    Dynamic program over states: every stored set is extended by the
    current state and kept only when still feasible with positive
    profit.  Bins collide on (rounded profit, rounded revenue, scaled
    denominator shift); the set with the smaller objective numerator
    wins a collision, which keeps the most extendable representative.

    Sums run over the integers of qi.scaled (each rational times L), so
    the rounded profit and revenue come from integer floor division and
    feasibility from one cross-multiplication.
    """
    sp = qi.scaled
    L, A = sp.L, sp.A
    unit = qi.epsilon * qi.K / (2 * qi.inst.n)
    # ceil(x / unit) for x = a / b, b > 0, is -(-a * ud // (b * un)).
    un, ud = unit.numerator, unit.denominator
    Lun = L * un

    # Entry: (states tuple sorted, N, den, sum_dw, sum_cost, d_steps,
    # min_phi or None, pnum), scaled by L: N = sum z*phi, den = B + sum z,
    # d_steps = sum z / delta, and the profit is pnum / (den * L).
    table = {(0, 0, 0): ((), 0, sp.B, 0, 0, 0, None, 0)}  # zero profit and revenue

    for k in qi.surviving:
        j = k - 1
        steps_k = qi.dp.z[j] / qi.delta
        if steps_k.denominator != 1:
            raise QuantizationError(
                f"z[{k}] = {qi.dp.z[j]} is not an integer multiple of {qi.delta}"
            )
        steps_k = steps_k.numerator
        zk, zphik, phik, dwk, costk = sp.z[j], sp.zphi[j], sp.phi[j], sp.dw[j], sp.cost[j]
        for _, (states, N, den, sum_dw, sum_cost, steps, min_phi, _) in sorted(table.items()):
            new_min = phik if min_phi is None or phik < min_phi else min_phi
            N2 = N + zphik
            den2 = den + zk
            # All surviving z are positive, so feasibility is exactly
            # the threshold test against the smallest potential.
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

    # Highest profit, ties broken by the larger [-s for s in states].  The
    # empty set keeps bin (0, 0, 0): every other entry has positive profit.
    best = table[(0, 0, 0)]
    for e in table.values():
        cmp = e[7] * best[2] - best[7] * e[2]
        if cmp > 0 or (cmp == 0 and [-s for s in e[0]] > [-s for s in best[0]]):
            best = e
    return DesignSet(frozenset(best[0]), Fraction(best[7], best[2] * L), bins=len(table))


def designer_oracle(inst: FlowerInstance, guard: int = 22) -> DesignSet:
    """Exact profit maximizer by exhaustive enumeration of offered sets.

    Ties break toward the smallest cardinality, then lexicographic.  One
    integer Gray-code sweep covers every mix of z signs with O(n) memory.
    """
    n = inst.n
    if n > guard:
        raise TooLarge(f"n = {n} exceeds the enumeration guard {guard}")
    states = _oracle_sweep(scaled_params(inst, derived_params(inst)))
    return DesignSet(states, designer_profit(inst, states, states))


def _oracle_sweep(sp: ScaledParams) -> frozenset[int]:
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
