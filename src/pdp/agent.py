"""The agent's adoption problem: greedy solvers, oracle, feasibility.

The agent picks a subset of offered platforms maximizing the ratio
(A + sum z*phi) / (B + sum z).  With positive z the optimum is a
threshold set in phi; the greedy adds states in descending phi while the
running utility stays strictly below the next potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import AdoptionSet, DerivedParams, FlowerInstance, check_subset, derived_params
from .core import scale_to_integers


class SignError(ValueError):
    """A z sign the chosen solver does not handle."""


class TooLarge(ValueError):
    """Instance exceeds an enumeration guard."""


@dataclass(frozen=True)
class GreedyStep:
    state: int
    utility_before: Fraction
    accepted: bool


@dataclass(frozen=True)
class GreedyTrace:
    order: tuple[int, ...]
    steps: tuple[GreedyStep, ...]


def _phi_order(dp: DerivedParams, states) -> list[int]:
    return sorted(states, key=lambda i: (-dp.phi[i - 1], i))


def _run_greedy(dp: DerivedParams, offered) -> tuple[frozenset[int], Fraction, GreedyTrace]:
    """Greedy over an offered set of positive-z states.

    States by phi descending; adopt while the running utility stays
    strictly below the next potential.  Equality never adopts.
    """
    order = _phi_order(dp, offered)
    num = dp.A
    den = dp.B
    chosen = set()
    steps = []
    for i in order:
        u = num / den
        phi = dp.phi[i - 1]
        accept = u < phi
        steps.append(GreedyStep(i, u, accept))
        if not accept:
            break
        chosen.add(i)
        num += dp.z[i - 1] * dp.phi[i - 1]
        den += dp.z[i - 1]
    return frozenset(chosen), num / den, GreedyTrace(tuple(order), tuple(steps))


def _solve_signed(dp: DerivedParams, offered) -> tuple[frozenset[int], Fraction]:
    """Optimal subset of `offered` under mixed z signs.

    Dinkelbach's method for ratio maximization (Dinkelbach 1967, "On
    nonlinear fractional programming"): given a utility guess u, the subset
    maximizing (numerator - u * denominator) takes positive-z states with
    phi > u and negative-z states with phi < u; its achieved utility
    becomes the next guess.  The guess rises strictly each round and
    ranges over finitely many subset utilities, so the loop terminates at
    the optimum.  Equality never adopts (a phi = u state contributes
    nothing at the fixpoint).
    """
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


def greedy_solve(dp: DerivedParams) -> tuple[AdoptionSet, GreedyTrace]:
    """Optimal adoption set when every z is positive."""
    if any(z <= 0 for z in dp.z):
        raise SignError("greedy_solve requires all z > 0; use greedy_solve_signed")
    states, utility, trace = _run_greedy(dp, range(1, dp.n + 1))
    return AdoptionSet(states, utility), trace


def greedy_solve_signed(dp: DerivedParams) -> AdoptionSet:
    """Optimal adoption set for any mix of z signs (all z nonzero)."""
    states, utility = _solve_signed(dp, range(1, dp.n + 1))
    return AdoptionSet(states, utility)


def agent_oracle(dp: DerivedParams, guard: int = 25) -> AdoptionSet:
    """Exhaustive maximizer of agent_utility over all subsets.

    Ties break toward the smallest cardinality, then lexicographic order.
    The sweep visits the subsets in reflected Gray-code order (Knuth,
    TAOCP 4A, 7.2.1.1): consecutive subsets differ in one state, so the
    running numerator and denominator move by one add or subtract per
    subset and memory stays O(n).  The tie-break is a strict total order
    on distinct subsets, so the visit order does not change the result.
    """
    n = dp.n
    if n > guard:
        raise TooLarge(f"n = {n} exceeds the enumeration guard {guard}")
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
        if cmp > 0 or (
            cmp == 0
            and (
                size < best_size
                or (size == best_size and _lex_key(mask, n) < _lex_key(best_mask, n))
            )
        ):
            best_mask, best_num, best_den, best_size = mask, num, den, size
    chosen = frozenset(i + 1 for i in range(n) if best_mask >> i & 1)
    return AdoptionSet(chosen, Fraction(best_num, best_den))


def _lex_key(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def adopted_response(inst: FlowerInstance, offered) -> frozenset[int]:
    """The set the agent actually adopts when offered exactly `offered`."""
    dp = derived_params(inst)
    offered = check_subset(offered, inst.n)
    if all(dp.z[i - 1] > 0 for i in offered):
        chosen, _, _ = _run_greedy(dp, offered)
    else:
        chosen, _ = _solve_signed(dp, offered)
    return chosen


def is_feasible(inst: FlowerInstance, S) -> bool:
    """True iff the agent's optimal response to offering S adopts all of S."""
    S = check_subset(S, inst.n)
    return adopted_response(inst, S) == S
