"""The designer's single-agent problem: rounding FPTAS and exact oracle.

The designer offers a set S of platforms; only feasible sets (the agent
adopts all of S) earn revenue.  The FPTAS hashes partial sets by rounded
profit, rounded revenue, and the exact scaled denominator, keeping one
representative per bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import FlowerInstance, IntegerImage, ScaledParams, SignError, TooLarge, designer_profit, rat

# The largest cost/K ratio r the FPTAS accepts, the most bins its table may
# hold after a stage, and the most offered sets designer_oracle visits.  The
# largest table on the benchmark's FPTAS corpus holds about 3,000 bins.
_COST_RATIO = Fraction(1000)
_FPTAS_BINS = 1 << 16
_ORACLE_VISITS = 1 << 22


class QuantizationError(ValueError):
    """A quantization step is not positive, or a value lies off its grid."""


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


def _feasible_singleton_profit(
    image: IntegerImage, sp: ScaledParams, i: int
) -> tuple[int, int] | None:
    """Profit of offering {i} alone as a pair (pnum, den) with profit
    pnum / (den * M) and den > 0, or None when the agent would not adopt.

    The same answers as is_feasible(inst, {i}) and designer_profit(inst,
    {i}, {i}): a lone state is adopted iff its potential lies strictly
    above the baseline utility A/B (z > 0) or strictly below it (z < 0).
    """
    j = i - 1
    base, potential = image.A * image.L, image.phi[j] * image.B
    if not (base < potential if image.z[j] > 0 else potential < base):
        return None
    den = image.B + image.z[j]
    return sp.dw[j] * image.L - sp.cost[j] * den, den


def preprocess(
    inst: FlowerInstance,
    delta: Fraction | None = None,
    epsilon: Fraction = Fraction(1, 10),
) -> QuantizedInstance:
    """Filter useless states and check the FPTAS's input; fptas_solve does not.

    epsilon and delta are read by rat; delta must be positive.  A state
    survives when offering it alone is feasible and profitable; in state
    order, a survivor with a negative z raises SignError, then one off an
    explicit delta's grid QuantizationError.  Costs are at most _COST_RATIO * K.

    The screen reads A, B, z and phi times L from inst.params.image and
    d*w and cost times M from inst.scaled: each singleton profit is an
    integer pair (pnum, den) worth pnum / (den * M), the best, K, is found
    by cross-multiplication, and r = max cost / K is max(cost * M) * den /
    pnum for K's pair.  z is a whole multiple of delta = dn/dd iff L * dn
    divides z * L * dd.  The default delta, gcd(z * L) / L over the
    survivors, divides every z and is only recorded, for criterion 04's bin
    bound.  K, r and the default delta are the only Fractions made.
    """
    epsilon = rat(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon = {epsilon} must lie in (0, 1)")
    image, sp = inst.params.image, inst.scaled
    L = image.L
    if delta is not None:
        delta = rat(delta)
        if delta <= 0:
            raise QuantizationError(f"delta = {delta} must be positive")
        Ldn, dd = L * delta.numerator, delta.denominator
    surviving = []
    k_num, k_den = 0, 1
    for i in range(1, inst.n + 1):
        profit = _feasible_singleton_profit(image, sp, i)
        if profit is None or profit[0] <= 0:
            continue
        z = image.z[i - 1]
        if z < 0:
            raise SignError(
                f"z[{i}] = {Fraction(z, L)} is negative; the FPTAS needs every surviving z positive"
            )
        if delta is not None and z * dd % Ldn:
            raise QuantizationError(
                f"z[{i}] = {Fraction(z, L)} is not a positive integer multiple of {delta}"
            )
        surviving.append(i)
        if profit[0] * k_den > k_num * profit[1]:
            k_num, k_den = profit
    if not surviving:
        raise EmptyInstance("no state has a feasible, profitable singleton")
    if delta is None:
        delta = Fraction(math.gcd(*(image.z[i - 1] for i in surviving)), L)
    K = Fraction(k_num, k_den * sp.M)
    r = Fraction(max(sp.cost[i - 1] for i in surviving) * k_den, k_num)
    if r > _COST_RATIO:
        raise CostBoundError(f"cost/K ratio {r} exceeds the ceiling {_COST_RATIO}")
    return QuantizedInstance(inst, delta, epsilon, K, r, tuple(surviving))


def fptas_solve(qi: QuantizedInstance, stage_log: list | None = None) -> DesignSet:
    """(1 - epsilon)-approximate profit maximization over feasible sets.

    Dynamic program over states: every stored set is extended by the
    current state and kept only when still feasible with positive
    profit.  Bins collide on (rounded profit, rounded revenue, exact
    denominator (B + sum z) * L); the set with the smaller objective
    numerator wins a collision, which keeps the most extendable
    representative.

    Sums run over integers: A, B, z, phi (times L) and z*phi (times L^2)
    from qi.inst.params.image, d*w and cost (times M) from qi.inst.scaled.
    The rounded profit and revenue come from integer floor division and
    feasibility from one cross-multiplication.  The only Fraction made is
    the returned profit.  delta is not read: it keys no bin and preprocess
    checked every surviving z, so any delta gets the same DesignSet.

    Each stage walks a snapshot of the table in insertion order, and the
    result does not depend on that order.  Every snapshot entry yields
    the same one candidate whatever the order.  A bin keeps the minimum
    under (sum z*phi, states), a strict total order: a set has one key,
    so the table never holds two entries with equal states, and each
    candidate holds the current state, which no snapshot entry does.  So
    every bin ends a stage with the same representative, and len(table)
    is the same.  The final pick maximizes (profit, [-s for s in
    states]), also a total order.  Only the order of each stage's entries
    in stage_log depends on the walk.

    The table is checked after each stage: past _FPTAS_BINS bins the solve
    raises TooLarge.  So each stage walks at most _FPTAS_BINS entries, and
    a solve tries at most n * _FPTAS_BINS candidates.
    """
    L, A, B, z, phi, zphi = qi.inst.params.image
    sp = qi.inst.scaled
    # unit = epsilon * K / (2n) = un / ud, not necessarily in lowest terms;
    # ceil(x / unit) for x = a / b, b > 0, is -(-a * ud // (b * un)).
    eps, K = qi.epsilon, qi.K
    un = eps.numerator * K.numerator
    ud = eps.denominator * K.denominator * 2 * qi.inst.n
    Mun = sp.M * un

    # Entry: (states tuple sorted, N, den, sum_dw, sum_cost, min_phi, pnum),
    # with N = (A + sum z*phi) * L^2, den = (B + sum z) * L, sum_dw =
    # sum d*w * M * L, sum_cost = sum cost * M and min_phi scaled by L.  The
    # profit is pnum / (den * M) and the revenue sum_dw / (den * M), so both
    # round on one divisor.  The empty set's min_phi lies above every
    # surviving potential.
    top = max((phi[i - 1] for i in qi.surviving), default=0) + 1
    empty = (0, 0, B)  # zero profit and revenue
    table = {empty: ((), A * L, B, 0, 0, top, 0)}

    for k in qi.surviving:
        j = k - 1
        zk, zphik, phik, dwk, costk = z[j], zphi[j], phi[j], sp.dw[j] * L, sp.cost[j]
        get = table.get
        for states, N, den, sum_dw, sum_cost, min_phi, _ in list(table.values()):
            new_min = phik if phik < min_phi else min_phi
            N2 = N + zphik
            den2 = den + zk
            # All surviving z are positive, so feasibility is exactly
            # the threshold test against the smallest potential.
            if N2 >= new_min * den2:
                continue
            dw2 = sum_dw + dwk
            cost2 = sum_cost + costk
            pnum = dw2 - cost2 * den2
            if pnum <= 0:
                continue
            divisor = den2 * Mun
            key = (-(-pnum * ud // divisor), -(-dw2 * ud // divisor), den2)
            old = get(key)
            if old is None or N2 < old[1] or (N2 == old[1] and states + (k,) < old[0]):
                table[key] = (states + (k,), N2, den2, dw2, cost2, new_min, pnum)
        if len(table) > _FPTAS_BINS:
            raise TooLarge(f"the FPTAS table holds {len(table)} bins, past the budget {_FPTAS_BINS}")
        if stage_log is not None:
            stage_log.append((k, [e[0] for e in table.values()]))

    # Highest profit, ties broken by the larger [-s for s in states].  The
    # empty set keeps its bin: every other entry has positive profit.
    best = table[empty]
    for e in table.values():
        cmp = e[6] * best[2] - best[6] * e[2]
        if cmp > 0 or (cmp == 0 and [-s for s in e[0]] > [-s for s in best[0]]):
            best = e
    return DesignSet(frozenset(best[0]), Fraction(best[6], best[2] * sp.M), bins=len(table))


def designer_oracle(inst: FlowerInstance) -> DesignSet:
    """Exact profit maximizer over every feasible offered set.

    Ties break toward the smallest cardinality, then lexicographic.  One
    integer depth-first search covers every mix of z signs with O(n)
    memory; it visits only offered sets that can still become feasible,
    at most 2^n - 1 of them.  _ORACLE_VISITS is a budget on the sets
    visited: the search raises TooLarge once it is spent, so it bounds time.
    """
    states = _oracle_search(inst.params.image, inst.scaled)
    return DesignSet(states, designer_profit(inst, states, states))


def _oracle_search(image: IntegerImage, sp: ScaledParams) -> frozenset[int]:
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
    negative-z states after m.  On the integer image (L, and A, B, z and
    phi times L, z*phi times L^2), with den = (B + sum z) * L and num =
    (A + sum z*phi) * L^2, feasibility is then two integer tests that
    move one way as candidates join:

    - packing: the slack phi_k * den - num falls by
      z_j * (phi_j - phi_k) * L^2 >= 0, so a branch is cut once its slack
      is <= 0;
    - covering: the excess num - phi_m * den rises by
      z_j * (phi_j - phi_m) * L^2 >= 0, so a branch is cut once its excess
      plus the rises of every candidate still to come is <= 0.

    A set's profit is pnum / (den * M), with d*w and cost times M from sp
    and pnum = sum dw * L - sum cost * den.

    Each set is visited once, under its own k and m, and each visit
    extends the set by candidates after its last one, so no set is
    visited twice.  TooLarge is raised on visit _ORACLE_VISITS + 1.
    """
    L, A, B, z, phi, zphi = image
    order = sorted(range(len(z)), key=lambda j: (-phi[j], j))
    pos = [j for j in order if z[j] > 0]
    neg = [j for j in order if z[j] < 0]
    # Profits compare as pnum / den (the common factor 1/M drops out);
    # the empty set has profit 0.  den stays positive, since B = 1 +
    # sum lam and each z_i = w_i - lam_i > -lam_i.
    best_pnum, best_den, best_states = 0, B, ()
    path = []
    visits, limit = 0, _ORACLE_VISITS

    def visit(cands, reach, start, slack, excess, den, dw, cost):
        nonlocal best_pnum, best_den, best_states, visits
        visits += 1
        if visits > limit:
            raise TooLarge(f"the search visits more than {limit} offered sets")
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
                    den + z[j], dw + sp.dw[j], cost + sp.cost[j],
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
            if k is not None and m is not None and phi[k] <= phi[m]:
                continue
            path[:] = [j for j in (k, m) if j is not None]
            den = B + sum(z[j] for j in path)
            num = A * L + sum(zphi[j] for j in path)
            # An absent k or m leaves its test always passing.
            slack = phi[k] * den - num if k is not None else 1
            excess = num - phi[m] * den if m is not None else 1
            if slack <= 0:
                continue
            cands = []
            for j in pos[:before_k] + neg[after_m:]:
                pack = phi[k] * z[j] - zphi[j] if k is not None else 0
                cover = zphi[j] - phi[m] * z[j] if m is not None else 0
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
