"""Exact model of flower Markov chains and the designer's objective.

A flower chain has a rest state 0 plus petal states 1..n.  From rest the
process jumps to petal i with probability p_i.  Petal i loops on itself
with probability q_i (q_i + y_i when a platform is adopted there) and
otherwise returns to rest.  All arithmetic is exact over Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


# Solvers look an instance up a handful of times per call; one operation
# touches well under this many distinct instances.
CACHE_SIZE = 16


class ProbabilityError(ValueError):
    """A transition parameter is outside its legal range."""


class DegenerateState(ValueError):
    """A petal's platform does not change its dynamics (y_i = 0)."""


class NonpositiveCost(ValueError):
    """A platform build cost is not strictly positive."""


class SubsetError(ValueError):
    """A state subset refers to states outside 1..n or is inconsistent."""


class ReducibleChain(ValueError):
    """The reachable part of a chain has no unique closed class."""


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction, or 'num/den' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class FlowerInstance:
    """A flower chain plus the designer's rewards and build costs.

    All vectors are indexed by petal, position 0 holding petal 1's value.
    """

    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    c_life: tuple[Fraction, ...]
    c_platform: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    cost: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.p)


def build_flower_instance(p, q, y, c_life, c_platform, d, cost) -> FlowerInstance:
    """Validate parameters and construct a FlowerInstance.

    Raises ProbabilityError, DegenerateState, or NonpositiveCost when the
    parameters violate the model's standing assumptions.
    """
    vectors = [tuple(rat(v) for v in vec) for vec in (p, q, y, c_life, c_platform, d, cost)]
    p, q, y, c_life, c_platform, d, cost = vectors
    n = len(p)
    if n == 0:
        raise ProbabilityError("need at least one petal")
    for vec, name in zip(vectors, ("p", "q", "y", "c_life", "c_platform", "d", "cost")):
        if len(vec) != n:
            raise ProbabilityError(f"{name} has length {len(vec)}, expected {n}")
    if sum(p) != 1:
        raise ProbabilityError(f"rest-state jump probabilities sum to {sum(p)}, not 1")
    for i in range(n):
        if p[i] <= 0:
            raise ProbabilityError(f"p[{i + 1}] = {p[i]} must be positive")
        if not 0 < q[i] < 1:
            raise ProbabilityError(f"q[{i + 1}] = {q[i]} must lie strictly in (0, 1)")
        if y[i] == 0:
            raise DegenerateState(f"y[{i + 1}] = 0: platform would not change the dynamics")
        if not 0 < q[i] + y[i] < 1:
            raise ProbabilityError(
                f"q[{i + 1}] + y[{i + 1}] = {q[i] + y[i]} must lie strictly in (0, 1)"
            )
        if cost[i] <= 0:
            raise NonpositiveCost(f"cost[{i + 1}] = {cost[i]} must be positive")
    return FlowerInstance(p, q, y, c_life, c_platform, d, cost)


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form quantities that drive every solver.

    lam_i is the expected visit mass of petal i (relative to rest) without
    a platform, w_i with one, z_i = w_i - lam_i the shift.  phi_i is the
    potential of petal i: the utility level at which the agent is exactly
    indifferent about adopting there.  A and B are the baseline utility
    numerator and denominator over the platform-free chain.
    """

    lam: tuple[Fraction, ...]
    w: tuple[Fraction, ...]
    z: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]
    A: Fraction
    B: Fraction

    @property
    def n(self) -> int:
        return len(self.lam)


@lru_cache(maxsize=CACHE_SIZE)
def derived_params(inst: FlowerInstance) -> DerivedParams:
    n = inst.n
    lam = tuple(inst.p[i] / (1 - inst.q[i]) for i in range(n))
    w = tuple(inst.p[i] / (1 - inst.q[i] - inst.y[i]) for i in range(n))
    z = tuple(w[i] - lam[i] for i in range(n))
    phi = tuple(
        (w[i] * inst.c_platform[i] - lam[i] * inst.c_life[i]) / z[i] for i in range(n)
    )
    A = sum((lam[i] * inst.c_life[i] for i in range(n)), Fraction(0))
    B = 1 + sum(lam)
    return DerivedParams(lam, w, z, phi, A, B)


@dataclass(frozen=True)
class ScaledParams:
    """Integer image of an instance over one common denominator L.

    Every field is the rational value times L (phi is phi_i * L, zphi is
    z_i * phi_i * L, dw is d_i * w_i * L), so subset sums stay integers
    and every ratio comparison is an integer cross-multiplication.
    """

    L: int
    A: int
    B: int
    z: tuple[int, ...]
    zphi: tuple[int, ...]
    phi: tuple[int, ...]
    dw: tuple[int, ...]
    cost: tuple[int, ...]


def scale_to_integers(*vectors):
    """(L, *scaled): L is the lcm of every denominator in `vectors`, each
    of which comes back as a tuple of its Fractions times L, as ints."""
    L = math.lcm(*(v.denominator for vec in vectors for v in vec))
    return (L, *(tuple(v.numerator * (L // v.denominator) for v in vec) for vec in vectors))


def scaled_params(inst: FlowerInstance, dp: DerivedParams) -> ScaledParams:
    """The ScaledParams of `inst`; L is the lcm of every denominator."""
    n = inst.n
    L, (A, B), *vectors = scale_to_integers(
        (dp.A, dp.B),
        dp.z,
        tuple(dp.z[i] * dp.phi[i] for i in range(n)),
        dp.phi,
        tuple(inst.d[i] * dp.w[i] for i in range(n)),
        inst.cost,
    )
    return ScaledParams(L, A, B, *vectors)


def all_subsets(n: int):
    """Every subset of the states 1..n, as frozensets, in bitmask order."""
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def check_subset(S, n: int) -> frozenset[int]:
    S = frozenset(S)
    for i in S:
        if not (isinstance(i, int) and 1 <= i <= n):
            raise SubsetError(f"state {i!r} is not in 1..{n}")
    return S


def agent_utility(dp: DerivedParams, S) -> Fraction:
    """Average reward per step the agent earns adopting exactly S."""
    S = check_subset(S, dp.n)
    num = dp.A + sum((dp.z[i - 1] * dp.phi[i - 1] for i in S), Fraction(0))
    den = dp.B + sum((dp.z[i - 1] for i in S), Fraction(0))
    return num / den


def stationary_distribution_flower(inst: FlowerInstance, S) -> tuple[Fraction, ...]:
    """Stationary distribution (rest first) when platforms on S are adopted."""
    S = check_subset(S, inst.n)
    dp = derived_params(inst)
    mass = [Fraction(1)]
    mass += [dp.w[i - 1] if i in S else dp.lam[i - 1] for i in range(1, inst.n + 1)]
    total = sum(mass)
    return tuple(m / total for m in mass)


def designer_profit(inst: FlowerInstance, offered, adopted) -> Fraction:
    """Reward collected from adopted platforms minus the cost of offered ones."""
    offered = check_subset(offered, inst.n)
    adopted = check_subset(adopted, inst.n)
    if not adopted <= offered:
        raise SubsetError("adopted platforms must be among the offered ones")
    dp = derived_params(inst)
    den = dp.B + sum((dp.z[i - 1] for i in adopted), Fraction(0))
    revenue = sum((inst.d[i - 1] * dp.w[i - 1] for i in adopted), Fraction(0)) / den
    return revenue - sum((inst.cost[i - 1] for i in offered), Fraction(0))


@dataclass(frozen=True)
class AdoptionSet:
    """The agent's chosen states together with the utility they achieve."""

    states: frozenset[int]
    utility: Fraction


@dataclass(frozen=True)
class GeneralChain:
    """An arbitrary finite Markov chain with a designated start state."""

    rows: tuple[tuple[Fraction, ...], ...]
    start: int = 0

    @property
    def size(self) -> int:
        return len(self.rows)


def build_general_chain(rows, start: int = 0) -> GeneralChain:
    rows = tuple(tuple(rat(v) for v in row) for row in rows)
    m = len(rows)
    for s, row in enumerate(rows):
        if len(row) != m:
            raise ProbabilityError(f"row {s} has length {len(row)}, expected {m}")
        if any(v < 0 for v in row):
            raise ProbabilityError(f"row {s} has a negative entry")
        if sum(row) != 1:
            raise ProbabilityError(f"row {s} sums to {sum(row)}, not 1")
    if not 0 <= start < m:
        raise SubsetError(f"start state {start} is not in 0..{m - 1}")
    return GeneralChain(rows, start)


def flower_as_general_chain(inst: FlowerInstance, S) -> GeneralChain:
    """Encode a flower chain with adopted set S as an explicit matrix."""
    S = check_subset(S, inst.n)
    m = inst.n + 1
    rows = []
    rows.append(tuple([Fraction(0)] + list(inst.p)))
    for i in range(1, m):
        stay = inst.q[i - 1] + (inst.y[i - 1] if i in S else 0)
        row = [Fraction(0)] * m
        row[0] = 1 - stay
        row[i] = stay
        rows.append(tuple(row))
    return GeneralChain(tuple(rows), start=0)


def _closed_classes(rows, nodes):
    """Strongly connected components of the positive-transition graph that
    have no edge leaving them, restricted to the given node set."""
    nodes = sorted(nodes)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        # Iterative Tarjan to avoid recursion limits on larger chains.
        work = [(v, iter([u for u in nodes if rows[v][u] > 0]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter([t for t in nodes if rows[u][t] > 0])))
                    advanced = True
                    break
                if u in on_stack:
                    low[node] = min(low[node], index[u])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while True:
                        u = stack.pop()
                        on_stack.discard(u)
                        comp.add(u)
                        if u == node:
                            break
                    sccs.append(comp)

    for v in nodes:
        if v not in index:
            strongconnect(v)

    closed = []
    for comp in sccs:
        if all(rows[v][u] == 0 for v in comp for u in nodes if u not in comp):
            closed.append(comp)
    return closed


def steady_state_general(chain: GeneralChain) -> tuple[Fraction, ...]:
    """Long-run distribution of the chain started from its start state.

    The states reachable from the start must contain exactly one closed
    communicating class; the distribution is supported there, with zero
    mass on transient and unreachable states.
    """
    rows = chain.rows
    m = chain.size

    reachable = {chain.start}
    frontier = [chain.start]
    while frontier:
        v = frontier.pop()
        for u in range(m):
            if rows[v][u] > 0 and u not in reachable:
                reachable.add(u)
                frontier.append(u)

    closed = _closed_classes(rows, reachable)
    if len(closed) != 1:
        raise ReducibleChain(
            f"reachable part has {len(closed)} closed classes, need exactly 1"
        )
    support = sorted(closed[0])
    k = len(support)
    pos = {s: j for j, s in enumerate(support)}

    # Solve pi = pi P on the closed class, replacing one balance equation
    # with normalization.  Columns are unknowns pi_j.
    aug = []
    for eq in range(k - 1):
        s = support[eq]
        row = [rows[t][s] - (1 if t == s else 0) for t in support]
        aug.append([Fraction(v) for v in row] + [Fraction(0)])
    aug.append([Fraction(1)] * k + [Fraction(1)])

    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise ReducibleChain("singular balance system on the closed class")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]

    pi = [Fraction(0)] * m
    for s in support:
        pi[s] = aug[pos[s]][k]
    return tuple(pi)
