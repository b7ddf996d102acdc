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
from .core import FlowerInstance, ScaledParams, designer_profit


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


def _fraction_gcd(values) -> Fraction:
    num = 0
    den = 1
    for v in values:
        num = math.gcd(num, v.numerator)
        den = math.lcm(den, v.denominator)
    return Fraction(num, den)


def _feasible_singleton_profit(sp: ScaledParams, i: int) -> Fraction | None:
    """Profit of offering {i} alone, or None when the agent would not adopt.

    The same answers as is_feasible(inst, {i}) and designer_profit(inst,
    {i}, {i}): a lone state is adopted iff its potential lies strictly
    above the baseline utility A/B (z > 0) or strictly below it (z < 0).
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
    dp, sp = inst.params, inst.scaled
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
    return QuantizedInstance(inst, delta, epsilon, K, r, surviving)


def fptas_solve(qi: QuantizedInstance, stage_log: list | None = None) -> DesignSet:
    """(1 - epsilon)-approximate profit maximization over feasible sets.

    Dynamic program over states: every stored set is extended by the
    current state and kept only when still feasible with positive
    profit.  Bins collide on (rounded profit, rounded revenue, scaled
    denominator shift); the set with the smaller objective numerator
    wins a collision, which keeps the most extendable representative.

    Sums run over the integers of qi.inst.scaled (each rational times L), so
    the rounded profit and revenue come from integer floor division and
    feasibility from one cross-multiplication.
    """
    dp, sp = qi.inst.params, qi.inst.scaled
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
        steps_k = dp.z[j] / qi.delta
        if steps_k.denominator != 1:
            raise QuantizationError(
                f"z[{k}] = {dp.z[j]} is not an integer multiple of {qi.delta}"
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


def designer_oracle(inst: FlowerInstance, guard: int = 1 << 22) -> DesignSet:
    """Exact profit maximizer over every feasible offered set.

    Ties break toward the smallest cardinality, then lexicographic.  One
    integer depth-first search covers every mix of z signs with O(n)
    memory; it visits only offered sets that can still become feasible,
    at most 2^n - 1 of them.  guard is a budget on the sets visited: the
    search raises TooLarge once it is spent, so the guard bounds time.
    """
    states = _oracle_search(inst.scaled, guard)
    return DesignSet(states, designer_profit(inst, states, states))


def _oracle_search(sp: ScaledParams, guard: int) -> frozenset[int]:
    """Depth-first search over the feasible offered sets, on integer sums.

    The agent offered S adopts all of S iff every i in S has
    z_i * (phi_i - u(S)) > 0, where u(S) = (A + sum z*phi) / (B + sum z):
    by Dinkelbach's condition (see agent._solve_signed) S is the agent's
    response iff S is exactly the set of its states with that strict sign
    at u = u(S); equality never adopts.  So S is feasible iff u(S) lies
    strictly below phi_k, for k the positive-z state of S with the lowest
    potential, and strictly above phi_m, for m the negative-z state with
    the highest.

    States are ordered by descending potential, ties by state index, and
    the search fixes k and m first (either may be absent, not both; a
    pair with phi_k <= phi_m is never feasible).  The rest of S is drawn
    from the candidates: the positive-z states before k and the
    negative-z states after m.  With den = (B + sum z) * L, num =
    (A + sum z*phi) * L and every phi scaled by L, feasibility is then two
    integer tests that move one way as candidates join:

    - packing: the slack phi_k * den - num * L falls by
      z_j * (phi_j - phi_k) * L^2 >= 0, so a branch is cut once its slack
      is <= 0;
    - covering: the excess num * L - phi_m * den rises by
      z_j * (phi_j - phi_m) * L^2 >= 0, so a branch is cut once its excess
      plus the rises of every candidate still to come is <= 0.

    Each set is visited once, under its own k and m, and each visit
    extends the set by candidates after its last one, so no set is
    visited twice.  TooLarge is raised on visit guard + 1.
    """
    L, A, B = sp.L, sp.A, sp.B
    order = sorted(range(len(sp.z)), key=lambda j: (-sp.phi[j], j))
    pos = [j for j in order if sp.z[j] > 0]
    neg = [j for j in order if sp.z[j] < 0]
    # Profits compare as pnum / den (the common factor 1/L drops out);
    # the empty set has profit 0.  den stays positive, since B = 1 +
    # sum lam and each z_i = w_i - lam_i > -lam_i.
    best_pnum, best_den, best_states = 0, B, ()
    path = []
    visits = 0

    def visit(cands, reach, start, slack, excess, den, dw, cost):
        nonlocal best_pnum, best_den, best_states, visits
        visits += 1
        if visits > guard:
            raise TooLarge(f"the search visits more than {guard} offered sets")
        if excess > 0:
            pnum = dw * L - cost * den
            cmp = pnum * best_den - best_pnum * den
            if cmp > 0 or (
                cmp == 0
                and (
                    len(path) < len(best_states)
                    or (len(path) == len(best_states) and sorted(path) < list(best_states))
                )
            ):
                best_pnum, best_den, best_states = pnum, den, tuple(sorted(path))
        for idx in range(start, len(cands)):
            if excess + reach[idx] <= 0:
                break
            pack, cover, j = cands[idx]
            if slack + pack > 0:
                path.append(j)
                visit(
                    cands, reach, idx + 1, slack + pack, excess + cover,
                    den + sp.z[j], dw + sp.dw[j], cost + sp.cost[j],
                )
                path.pop()

    # The candidates are pos[:before_k] and neg[after_m:]; an absent k or m
    # admits no candidates of its sign.
    ks = [(None, 0)] + [(k, i) for i, k in enumerate(pos)]
    ms = [(None, len(neg))] + [(m, i + 1) for i, m in enumerate(neg)]
    for k, before_k in ks:
        for m, after_m in ms:
            if k is None and m is None:
                continue
            if k is not None and m is not None and sp.phi[k] <= sp.phi[m]:
                continue
            path[:] = [j for j in (k, m) if j is not None]
            den = B + sum(sp.z[j] for j in path)
            num = A + sum(sp.zphi[j] for j in path)
            # An absent k or m leaves its test always passing.
            slack = sp.phi[k] * den - num * L if k is not None else 1
            excess = num * L - sp.phi[m] * den if m is not None else 1
            if slack <= 0:
                continue
            cands = []
            for j in pos[:before_k] + neg[after_m:]:
                pack = sp.phi[k] * sp.z[j] - sp.zphi[j] * L if k is not None else 0
                cover = sp.zphi[j] * L - sp.phi[m] * sp.z[j] if m is not None else 0
                cands.append((pack, cover, j))
            reach = [0] * (len(cands) + 1)
            for idx in range(len(cands) - 1, -1, -1):
                reach[idx] = reach[idx + 1] + cands[idx][1]
            if excess + reach[0] <= 0:
                continue
            visit(
                cands, reach, 0, slack, excess, den,
                sum(sp.dw[j] for j in path), sum(sp.cost[j] for j in path),
            )
    return frozenset(j + 1 for j in best_states)
