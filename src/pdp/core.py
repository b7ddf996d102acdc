"""Exact model of flower Markov chains and the designer's objective.

A flower chain has a rest state 0 plus petal states 1..n.  From rest the
process jumps to petal i with probability p_i.  Petal i loops on itself
with probability q_i (q_i + y_i when a platform is adopted there) and
otherwise returns to rest.  All arithmetic is exact: a flower and its
derived parameters keep each value as a lowest-terms (numerator,
denominator) pair of ints, validation and derived_params work on those,
and a Fraction is built only where a caller reads one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple


# The most states steady_state_general eliminates over.  Its Fraction
# Gauss-Jordan elimination grows faster than m^3 as the entries grow: a
# dense seeded chain took 1.4 s at m = 60 (2-core x86-64 machine).
_CHAIN_STATES = 60


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


class TooLarge(ValueError):
    """Instance exceeds an enumeration guard."""


class SignError(ValueError):
    """A z sign the chosen solver does not handle."""


def rat(value) -> Fraction:
    """The one reader of an exact rational: a (num, den) tuple as
    Fraction(num, den), so reduced, and any other value as Fraction(value)
    reads it.  A bool or a float is not exact and raises TypeError."""
    if isinstance(value, (bool, float)):
        raise TypeError(f"expected an exact rational, got {value!r}")
    if type(value) is tuple:
        num, den = value
        return Fraction(num, den)
    return Fraction(value)


# A rational as its (numerator, denominator) in lowest terms, denominator > 0.
Pair = tuple[int, int]


def lowest_terms(num: int, den: int) -> Pair:
    """num / den (den != 0) as a Pair, by one gcd."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def as_pair(value) -> Pair:
    """A Fraction or an int, or a Pair, as a Pair; no gcd is taken."""
    return value if type(value) is tuple else (value.numerator, value.denominator)


def fraction_view(name: str) -> cached_property:
    """The Fractions of the tuple of Pairs self.pairs.<name>, built on first
    read and kept."""
    return cached_property(lambda self: tuple(Fraction(*v) for v in getattr(self.pairs, name)))


# A flower's vectors, indexed by petal (position 0 holds petal 1's value).
FlowerPairs = NamedTuple(
    "FlowerPairs",
    [(key, tuple[Pair, ...]) for key in ("p", "q", "y", "c_life", "c_platform", "d", "cost")],
)


@dataclass(frozen=True)
class FlowerInstance:
    """A flower chain plus the designer's rewards and build costs.

    The values are kept as Pairs; p ... cost are their Fraction views,
    built when something reads them.  params and scaled are computed on
    first use and kept on the instance, so they live exactly as long as it
    does.
    """

    pairs: FlowerPairs

    p, q, y, c_life, c_platform, d, cost = map(fraction_view, FlowerPairs._fields)

    @property
    def n(self) -> int:
        return len(self.pairs.p)

    @cached_property
    def params(self) -> DerivedParams:
        return derived_params(self)

    @cached_property
    def scaled(self) -> ScaledParams:
        return scaled_params(self, self.params)


def _exact_sum(terms) -> Pair:
    """The sum of the rationals num/den given as (num, den) pairs with den >
    0, taken over the lcm of the denominators, as a Pair."""
    terms = list(terms)
    L = math.lcm(*(den for _, den in terms))
    return lowest_terms(sum(num * (L // den) for num, den in terms), L)


def build_flower_instance(p, q, y, c_life, c_platform, d, cost) -> FlowerInstance:
    """Validate parameters and construct a FlowerInstance.

    Every value is read by rat, so every Pair is in lowest terms however
    it is spelled; a Fraction's Pair is taken with no new gcd.  The Pairs
    are then checked by build_flower_from_pairs.
    """
    return build_flower_from_pairs(
        FlowerPairs(
            *(tuple(as_pair(rat(v)) for v in vec) for vec in (p, q, y, c_life, c_platform, d, cost))
        )
    )


def build_flower_from_pairs(pairs: FlowerPairs) -> FlowerInstance:
    """Validate a flower's lowest-terms Pairs, as the CLI reads them, and
    construct its FlowerInstance.

    Raises ProbabilityError, DegenerateState, or NonpositiveCost when the
    parameters violate the model's standing assumptions.  Every test is
    made on the Pairs.
    """
    n = len(pairs.p)
    if n == 0:
        raise ProbabilityError("need at least one petal")
    for vec, name in zip(pairs, FlowerPairs._fields):
        if len(vec) != n:
            raise ProbabilityError(f"{name} has length {len(vec)}, expected {n}")
    total = _exact_sum(pairs.p)
    if total != (1, 1):
        raise ProbabilityError(f"rest-state jump probabilities sum to {Fraction(*total)}, not 1")
    petals = zip(pairs.p, pairs.q, pairs.y, pairs.cost)
    for i, ((pn, pd), (qn, qd), (yn, yd), (cn, cd)) in enumerate(petals, 1):
        if pn <= 0:
            raise ProbabilityError(f"p[{i}] = {Fraction(pn, pd)} must be positive")
        if not 0 < qn < qd:
            raise ProbabilityError(f"q[{i}] = {Fraction(qn, qd)} must lie strictly in (0, 1)")
        if yn == 0:
            raise DegenerateState(f"y[{i}] = 0: platform would not change the dynamics")
        if not 0 < qn * yd + yn * qd < qd * yd:
            stay = Fraction(qn * yd + yn * qd, qd * yd)
            raise ProbabilityError(f"q[{i}] + y[{i}] = {stay} must lie strictly in (0, 1)")
        if cn <= 0:
            raise NonpositiveCost(f"cost[{i}] = {Fraction(cn, cd)} must be positive")
    return FlowerInstance(pairs)


def build_flower_from_potentials(p, q, c_life, z, phi, d, cost) -> FlowerInstance:
    """The flower whose petals have shift z and potential phi, for the given
    p, q and c_life: derived_params run backward.  With lam = p / (1 - q)
    and w = lam + z, a petal's y = (1 - q) - p / w and c_platform =
    (phi*z + lam*c_life) / w.  The values are Fractions."""
    y, c_platform = [], []
    for pi, qi, cl, zi, fi in zip(p, q, c_life, z, phi):
        lam = pi / (1 - qi)
        w = lam + zi
        y.append((1 - qi) - pi / w)
        c_platform.append((fi * zi + lam * cl) / w)
    return build_flower_instance(p, q, y, c_life, c_platform, d, cost)


# DerivedParams' values: lam, w, z and phi per petal, then A and B.
DerivedPairs = NamedTuple(
    "DerivedPairs",
    [*((key, tuple[Pair, ...]) for key in ("lam", "w", "z", "phi")), ("A", Pair), ("B", Pair)],
)


@dataclass(frozen=True)
class DerivedParams:
    """Closed-form quantities that drive every solver.

    lam_i is the expected visit mass of petal i (relative to rest) without
    a platform, w_i with one, z_i = w_i - lam_i the shift.  phi_i is the
    potential of petal i: the utility level at which the agent is exactly
    indifferent about adopting there.  A and B are the baseline utility
    numerator and denominator over the platform-free chain.  The values
    are kept as Pairs; lam ... B are their Fraction views, built when
    something reads them.
    """

    pairs: DerivedPairs

    lam, w, z, phi = map(fraction_view, DerivedPairs._fields[:4])
    A = cached_property(lambda self: Fraction(*self.pairs.A))
    B = cached_property(lambda self: Fraction(*self.pairs.B))

    @property
    def n(self) -> int:
        return len(self.pairs.lam)

    @cached_property
    def image(self) -> IntegerImage:
        """The solvers' integer image, built on first use and kept."""
        pairs = self.pairs
        L, (A, B), z, phi = scale_to_integers((pairs.A, pairs.B), pairs.z, pairs.phi)
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
    """The DerivedParams of `inst`, from its Pairs.

    Writing xn / xd for a value x in lowest terms (cpn / cpd for c_platform,
    cln / cld for c_life), a = (1 - q) * qd and b = (1 - q - y) * qd * yd are
    positive integers, and

        lam = p / (1 - q)          = pn * qd / (pd * a)
        w   = p / (1 - q - y)      = pn * qd * yd / (pd * b)
        z   = w - lam              = pn * qd^2 * yn / (pd * a * b)
        phi = (w*c_pl - lam*c_li) / z
            = (a * yd * cpn * cld - b * cln * cpd) / (qd * yn * cpd * cld)

    Each value is reduced once, by one gcd; A and B are summed over one lcm.
    """
    lam, w, z, phi = [], [], [], []
    for (pn, pd), (qn, qd), (yn, yd), (cln, cld), (cpn, cpd) in zip(*inst.pairs[:5]):
        a = qd - qn
        b = a * yd - yn * qd
        mass = pn * qd
        lam.append(lowest_terms(mass, pd * a))
        w.append(lowest_terms(mass * yd, pd * b))
        z.append(lowest_terms(mass * qd * yn, pd * a * b))
        phi.append(lowest_terms(a * yd * cpn * cld - b * cln * cpd, qd * yn * cpd * cld))
    A = _exact_sum((ln * cn, ld * cd) for (ln, ld), (cn, cd) in zip(lam, inst.pairs.c_life))
    B = _exact_sum([(1, 1), *lam])
    return DerivedParams(DerivedPairs(tuple(lam), tuple(w), tuple(z), tuple(phi), A, B))


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
    is a Fraction or a Pair, so L is the same for either form of a value.
    DerivedParams.image puts A, B, z and phi over one such L, and
    scaled_params puts d*w and cost over another, called M there."""
    vectors = [list(map(as_pair, vec)) for vec in vectors]
    L = math.lcm(*(den for vec in vectors for _, den in vec))
    return (L, *(tuple(num * (L // den) for num, den in vec) for vec in vectors))


def product_pair(x, y) -> Pair:
    """x * y as a Pair; x and y are Fractions or Pairs."""
    (xn, xd), (yn, yd) = as_pair(x), as_pair(y)
    return lowest_terms(xn * yn, xd * yd)


def sum_pair(x: Pair, y: Pair) -> Pair:
    """x + y as a Pair, by one gcd."""
    (xn, xd), (yn, yd) = x, y
    return lowest_terms(xn * yd + yn * xd, xd * yd)


def scaled_params(inst: FlowerInstance, dp: DerivedParams) -> ScaledParams:
    """The ScaledParams of `inst`: M is the lcm of the denominators of d*w
    and cost, the products d*w formed from the Pairs, one gcd each."""
    d_w = tuple(map(product_pair, inst.pairs.d, dp.pairs.w))
    return ScaledParams(*scale_to_integers(d_w, inst.pairs.cost))


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
    mass on transient and unreachable states.  A chain of more than
    _CHAIN_STATES states raises TooLarge.
    """
    rows = chain.rows
    m = chain.size
    if m > _CHAIN_STATES:
        raise TooLarge(f"m = {m} states exceed the chain guard {_CHAIN_STATES}")
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
