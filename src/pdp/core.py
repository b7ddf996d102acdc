"""Exact model of flower Markov chains and the designer's objective.

A flower chain has a rest state 0 plus petal states 1..n.  From rest the
process jumps to petal i with probability p_i.  Petal i loops on itself
with probability q_i (q_i + y_i when a platform is adopted there) and
otherwise returns to rest.  All arithmetic is exact: values are Fractions
at the edges, and validation and derived_params work on their integer
numerators and denominators, making one Fraction per derived value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


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
    """Parse a rational from an int, Fraction, or 'num/den' string.  A bool
    or a float is not an exact rational and raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


@dataclass(frozen=True)
class FlowerInstance:
    """A flower chain plus the designer's rewards and build costs.

    All vectors are indexed by petal, position 0 holding petal 1's value.
    params and scaled are computed on first use and kept on the instance,
    so they live exactly as long as it does.
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

    @cached_property
    def params(self) -> DerivedParams:
        return derived_params(self)

    @cached_property
    def scaled(self) -> ScaledParams:
        return scaled_params(self, self.params)


def _exact_sum(terms) -> Fraction:
    """The sum of the rationals num/den given as (num, den) pairs, taken
    over the lcm of the denominators and normalized once."""
    terms = list(terms)
    L = math.lcm(*(den for _, den in terms))
    return Fraction(sum(num * (L // den) for num, den in terms), L)


def build_flower_instance(p, q, y, c_life, c_platform, d, cost) -> FlowerInstance:
    """Validate parameters and construct a FlowerInstance.

    Raises ProbabilityError, DegenerateState, or NonpositiveCost when the
    parameters violate the model's standing assumptions.  Every test is
    made on the integer numerators and denominators.
    """
    vectors = [
        tuple(v if type(v) is Fraction else rat(v) for v in vec)
        for vec in (p, q, y, c_life, c_platform, d, cost)
    ]
    p, q, y, c_life, c_platform, d, cost = vectors
    n = len(p)
    if n == 0:
        raise ProbabilityError("need at least one petal")
    for vec, name in zip(vectors, ("p", "q", "y", "c_life", "c_platform", "d", "cost")):
        if len(vec) != n:
            raise ProbabilityError(f"{name} has length {len(vec)}, expected {n}")
    total = _exact_sum((v.numerator, v.denominator) for v in p)
    if total != 1:
        raise ProbabilityError(f"rest-state jump probabilities sum to {total}, not 1")
    for i in range(n):
        qn, qd = q[i].numerator, q[i].denominator
        yn, yd = y[i].numerator, y[i].denominator
        if p[i].numerator <= 0:
            raise ProbabilityError(f"p[{i + 1}] = {p[i]} must be positive")
        if not 0 < qn < qd:
            raise ProbabilityError(f"q[{i + 1}] = {q[i]} must lie strictly in (0, 1)")
        if yn == 0:
            raise DegenerateState(f"y[{i + 1}] = 0: platform would not change the dynamics")
        if not 0 < qn * yd + yn * qd < qd * yd:
            raise ProbabilityError(
                f"q[{i + 1}] + y[{i + 1}] = {q[i] + y[i]} must lie strictly in (0, 1)"
            )
        if cost[i].numerator <= 0:
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

    @cached_property
    def image(self) -> IntegerImage:
        """The solvers' integer image, built on first use and kept."""
        L, (A, B), z, phi = scale_to_integers((self.A, self.B), self.z, self.phi)
        return IntegerImage(L, A, B, z, phi, tuple(zi * pi for zi, pi in zip(z, phi)))


class IntegerImage(NamedTuple):
    """DerivedParams over one common denominator L.

    A, B, z and phi are the rational values times L, and zphi is
    z_i * phi_i * L^2.  A subset's utility (A + sum z*phi) / (B + sum z) is
    then N / (D * L) with N = A * L + sum zphi at scale L^2 and D = B + sum z
    at scale L, and phi_i > N / (D * L) reads phi_i * D > N, as D > 0.
    """

    L: int
    A: int
    B: int
    z: tuple[int, ...]
    phi: tuple[int, ...]
    zphi: tuple[int, ...]


def derived_params(inst: FlowerInstance) -> DerivedParams:
    """The DerivedParams of `inst`, from integer numerators and denominators.

    Writing xn / xd for a value x in lowest terms (cpn / cpd for c_platform,
    cln / cld for c_life), a = (1 - q) * qd and b = (1 - q - y) * qd * yd are
    positive integers, and

        lam = p / (1 - q)          = pn * qd / (pd * a)
        w   = p / (1 - q - y)      = pn * qd * yd / (pd * b)
        z   = w - lam              = pn * qd^2 * yn / (pd * a * b)
        phi = (w*c_pl - lam*c_li) / z
            = (a * yd * cpn * cld - b * cln * cpd) / (qd * yn * cpd * cld)

    Each value is normalized once, by one Fraction(num, den); A and B are
    summed over one lcm.
    """
    lam, w, z, phi = [], [], [], []
    for p, q, y, c_li, c_pl in zip(inst.p, inst.q, inst.y, inst.c_life, inst.c_platform):
        pn, pd = p.numerator, p.denominator
        qn, qd = q.numerator, q.denominator
        yn, yd = y.numerator, y.denominator
        a = qd - qn
        b = a * yd - yn * qd
        mass = pn * qd
        lam.append(Fraction(mass, pd * a))
        w.append(Fraction(mass * yd, pd * b))
        z.append(Fraction(mass * qd * yn, pd * a * b))
        phi.append(
            Fraction(
                a * yd * c_pl.numerator * c_li.denominator - b * c_li.numerator * c_pl.denominator,
                qd * yn * c_pl.denominator * c_li.denominator,
            )
        )
    A = _exact_sum(
        (v.numerator * c.numerator, v.denominator * c.denominator) for v, c in zip(lam, inst.c_life)
    )
    B = _exact_sum([(1, 1), *((v.numerator, v.denominator) for v in lam)])
    return DerivedParams(tuple(lam), tuple(w), tuple(z), tuple(phi), A, B)


@dataclass(frozen=True)
class ScaledParams:
    """The designer's d*w and cost over their own common denominator M.

    dw is d_i * w_i * M and cost is cost_i * M.  With B and z from the
    DerivedParams.image over L, a subset's profit is pnum / (den * M) for
    den = (B + sum z) * L and pnum = sum dw * L - sum cost * den.
    """

    M: int
    dw: tuple[int, ...]
    cost: tuple[int, ...]


def scale_to_integers(*vectors):
    """(L, *scaled): L is the lcm of every denominator in `vectors`, each
    of which comes back as a tuple of its values times L, as ints.  A value
    is a Fraction or a (numerator, denominator) pair in lowest terms with a
    positive denominator, so L is the same for either form of a value.
    DerivedParams.image puts A, B, z and phi over one such L, and
    scaled_params puts d*w and cost over another, called M there."""
    vectors = [
        [v if type(v) is tuple else (v.numerator, v.denominator) for v in vec] for vec in vectors
    ]
    L = math.lcm(*(den for vec in vectors for _, den in vec))
    return (L, *(tuple(num * (L // den) for num, den in vec) for vec in vectors))


def product_pair(x: Fraction, y: Fraction) -> tuple[int, int]:
    """x * y as a (numerator, denominator) pair in lowest terms."""
    num, den = x.numerator * y.numerator, x.denominator * y.denominator
    g = math.gcd(num, den)
    return num // g, den // g


def scaled_params(inst: FlowerInstance, dp: DerivedParams) -> ScaledParams:
    """The ScaledParams of `inst`: M is the lcm of the denominators of d*w
    and cost, the products d*w entering as lowest-terms pairs, one gcd each."""
    return ScaledParams(*scale_to_integers(tuple(map(product_pair, inst.d, dp.w)), inst.cost))


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
    dp = inst.params
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
    dp = inst.params
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


def _reachable(rows, v) -> set[int]:
    """The states reachable from v by positive transitions, v included."""
    seen = {v}
    frontier = [v]
    while frontier:
        s = frontier.pop()
        for u, p in enumerate(rows[s]):
            if p > 0 and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def _closed_classes(rows, nodes):
    """Closed communicating classes within `nodes`, which must hold every
    state reachable from any of its states.  v is recurrent iff every state
    it reaches reaches it back, and its class is then everything it reaches."""
    reach = {v: _reachable(rows, v) for v in nodes}
    return list({frozenset(r) for v, r in reach.items() if all(v in reach[u] for u in r)})


def steady_state_general(chain: GeneralChain) -> tuple[Fraction, ...]:
    """Long-run distribution of the chain started from its start state.

    The states reachable from the start must contain exactly one closed
    communicating class; the distribution is supported there, with zero
    mass on transient and unreachable states.
    """
    rows = chain.rows
    m = chain.size
    closed = _closed_classes(rows, _reachable(rows, chain.start))
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
