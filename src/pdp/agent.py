"""The agent's adoption problem: greedy solvers, oracle, feasibility.

The agent picks a subset of offered platforms maximizing the ratio
(A + sum z*phi) / (B + sum z).  With positive z the optimum is a
threshold set in phi; the greedy adds states in descending phi while the
running utility stays strictly below the next potential.

The greedy and the fixpoint solver run on the integer image of the
derived parameters (DerivedParams.image, built once per DerivedParams):
running numerators and denominators are integers, and a Fraction is made
only for a returned utility and each step of the greedy's trace.  The
oracle scales the Fractions itself, so it shares no arithmetic with the
solvers it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import AdoptionSet, DerivedParams, FlowerInstance, check_subset, scale_to_integers


# log2 of the steps per block in agent_oracle's sweep.
_BLOCK_BITS = 8
# The most states agent_oracle sweeps the 2^n subsets of.
_ORACLE_STATES = 28


class SignError(ValueError):
    """A z sign the chosen solver does not handle."""


class TooLarge(ValueError):
    """Instance exceeds an enumeration guard."""


@dataclass(frozen=True)
class GreedyStep:
    state: int
    utility_before: Fraction
    accepted: bool


def _solve_signed(dp: DerivedParams, offered) -> tuple[frozenset[int], Fraction]:
    """The smallest optimal subset of `offered`, for any z signs.

    Dinkelbach's method for ratio maximization (Dinkelbach 1967, "On
    nonlinear fractional programming"): given a utility guess u, the subset
    maximizing (numerator - u * denominator) takes positive-z states with
    phi > u and negative-z states with phi < u; its achieved utility
    becomes the next guess.  The guess rises strictly each round and
    ranges over finitely many subset utilities, so the loop terminates at
    the optimum.  Equality never adopts (a phi = u state contributes
    nothing at the fixpoint).  The guess is num / (den * L) on the integer
    image, so phi > u reads phi * den > num.
    """
    L, A, B, z, phi, zphi = dp.image
    offered = [i - 1 for i in offered]
    base = A * L
    num, den = base, B
    while True:
        chosen = [i for i in offered if (phi[i] * den > num if z[i] > 0 else phi[i] * den < num)]
        next_num = base + sum(zphi[i] for i in chosen)
        next_den = B + sum(z[i] for i in chosen)
        if next_num * den == num * next_den:
            return frozenset(i + 1 for i in chosen), Fraction(num, den * L)
        num, den = next_num, next_den


def greedy_solve(dp: DerivedParams) -> tuple[AdoptionSet, tuple[GreedyStep, ...]]:
    """Optimal adoption set when every z is positive, and the steps taken.

    States by phi descending; adopt while the running utility stays
    strictly below the next potential.  Equality never adopts.
    """
    L, A, B, z, phi, zphi = dp.image
    if any(zi <= 0 for zi in z):
        raise SignError("greedy_solve requires all z > 0; use greedy_solve_signed")
    # A stable sort keeps ties in phi in ascending state order.
    order = [i + 1 for i in sorted(range(dp.n), key=phi.__getitem__, reverse=True)]
    num, den = A * L, B
    chosen = []
    steps = []
    for i in order:
        accept = phi[i - 1] * den > num
        steps.append(GreedyStep(i, Fraction(num, den * L), accept))
        if not accept:
            break
        chosen.append(i)
        num += zphi[i - 1]
        den += z[i - 1]
    result = AdoptionSet(frozenset(chosen), Fraction(num, den * L))
    return result, tuple(steps)


def greedy_solve_signed(dp: DerivedParams) -> AdoptionSet:
    """Optimal adoption set for any mix of z signs (all z nonzero)."""
    states, utility = _solve_signed(dp, range(1, dp.n + 1))
    return AdoptionSet(states, utility)


def agent_oracle(dp: DerivedParams) -> AdoptionSet:
    """Exhaustive maximizer of agent_utility over all subsets.

    Ties break toward the smallest cardinality.  Among the optimal sets
    the smallest is unique: at the optimal utility u*, it is exactly the
    set of states with z*(phi - u*) > 0, and every other optimal set adds
    states that leave the ratio at u*.  So the visit order does not
    change the result.

    The sweep splits a subset into its low bits = min(_BLOCK_BITS, n)
    states and the rest.  A reflected Gray code (Knuth, TAOCP 4A,
    7.2.1.1) walks the sets of the rest, one block each, and within each
    block a second one walks the low sets from the empty set, so every
    subset lies in exactly one block.  Given the incumbent's numerator
    bn, denominator bd and size bs, each subset S has the integer key

        K(S) = (num(S)*bd - bn*den(S)) * (n + 1) + bs - |S|,

    positive exactly when S has a higher ratio, or the same ratio and
    fewer states (den > 0 always and |bs - |S|| <= n).  K is linear in
    membership: a step that puts state i in adds
    D_i = (zphi_i*bd - bn*z_i) * (n + 1) - 1, and one that takes it out
    subtracts D_i.  So every block has the same key increments `incs`,
    and a block holds a subset beating the incumbent exactly when its
    first key plus top = max(accumulate(incs, initial=0)) is positive:
    on integers, max(accumulate(incs, initial=key)) == key + top.  Only a
    block that passes is scanned; its first subset of maximal key becomes
    the incumbent, `incs` and `top` are recomputed, and the block is
    tested again.  Each incumbent beats the last, so the rescans end.
    The sweep uses no phi order, threshold or Dinkelbach step, so it
    stays independent of the greedy solvers it checks.  Memory is
    O(2^_BLOCK_BITS + n).
    """
    n = dp.n
    if n > _ORACLE_STATES:
        raise TooLarge(f"n = {n} exceeds the enumeration guard {_ORACLE_STATES}")
    _, (a, b), zphis, zs = scale_to_integers(
        (dp.A, dp.B), [z * phi for z, phi in zip(dp.z, dp.phi)], dp.z
    )
    bits = min(_BLOCK_BITS, n)

    def sums(mask):
        states = [i for i in range(n) if mask >> i & 1]
        return a + sum(zphis[i] for i in states), b + sum(zs[i] for i in states), len(states)

    # (state, enters) for each step of the inner Gray code after the empty set.
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
    return AdoptionSet(chosen, Fraction(bn, bd))


def adopted_response(inst: FlowerInstance, offered) -> frozenset[int]:
    """The set the agent actually adopts when offered exactly `offered`."""
    chosen, _ = _solve_signed(inst.params, check_subset(offered, inst.n))
    return chosen


def is_feasible(inst: FlowerInstance, S) -> bool:
    """True iff the agent's optimal response to offering S adopts all of S."""
    S = check_subset(S, inst.n)
    return adopted_response(inst, S) == S
