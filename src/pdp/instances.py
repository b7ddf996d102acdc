"""Instance generators: random corpora, hardness constructions, and the
no-pure-Nash game fixture.  All generators are seed-deterministic."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .agent import TooLarge
from .core import (
    FlowerInstance,
    GeneralChain,
    build_flower_from_potentials,
    build_flower_instance,
    steady_state_general,
)
from .game import Candidate, GameInstance, build_game_instance
from .multiagent import MultiAgentInstance, build_multi_agent_instance


# The most designer choices gen_setcover_instance admits.
_SETCOVER_CHOICES = 2 * 10**5


class RangeError(ValueError):
    """Generator ranges are empty or inconsistent."""


_DEFAULT_RANGES = {
    "weight_max": 9,
    "q_steps": 8,
    "z_max": 6,
    "c_life_max": 4,
    "c_platform_max": 12,
    "d_max": 20,
    "cost_max": 30,
    "allow_negative_z": False,
}


def gen_random_flower(n: int, seed: int, ranges=None, delta: Fraction = Fraction(1)) -> FlowerInstance:
    """Random valid instance with every z an integer multiple of delta."""
    r = dict(_DEFAULT_RANGES)
    if ranges:
        unknown = set(ranges) - set(r)
        if unknown:
            raise RangeError(f"unknown range keys: {sorted(unknown)}")
        r.update(ranges)
    if n < 1 or r["z_max"] < 1 or r["weight_max"] < 1 or r["q_steps"] < 1 or delta <= 0:
        raise RangeError("ranges leave no valid instance")
    rng = random.Random(seed)
    weights = [rng.randint(1, r["weight_max"]) for _ in range(n)]
    total = sum(weights)
    p = [Fraction(wt, total) for wt in weights]
    q = [Fraction(rng.randint(1, r["q_steps"]), r["q_steps"] + 2) for _ in range(n)]
    y = []
    for i in range(n):
        lam = p[i] / (1 - q[i])
        z = None
        if r["allow_negative_z"] and rng.random() < Fraction(1, 2):
            limit = (lam - p[i]) / delta
            m_max = limit.numerator // limit.denominator
            if limit.denominator == 1:
                m_max -= 1
            m_max = min(m_max, r["z_max"])
            if m_max >= 1:
                z = -rng.randint(1, m_max) * delta
        if z is None:
            z = rng.randint(1, r["z_max"]) * delta
        w = lam + z
        y.append((1 - q[i]) - p[i] / w)
    c_life = [Fraction(rng.randint(0, r["c_life_max"]), 4) for _ in range(n)]
    c_platform = [Fraction(rng.randint(1, r["c_platform_max"]), 4) for _ in range(n)]
    d = [Fraction(rng.randint(0, r["d_max"])) for _ in range(n)]
    cost = [Fraction(rng.randint(1, r["cost_max"]), 10) for _ in range(n)]
    return build_flower_instance(p, q, y, c_life, c_platform, d, cost)


def gen_random_multi_agent(n: int, k: int, seed: int) -> MultiAgentInstance:
    """Random double-quantized instance: z multiples of delta = 1,
    potentials multiples of delta_prime = 1/4, shared per-state costs."""
    delta, delta_prime = Fraction(1), Fraction(1, 4)
    rng = random.Random(seed)
    cost = [Fraction(rng.randint(1, 5), 4) for _ in range(n)]
    agents = []
    for _ in range(k):
        weights = [rng.randint(1, 9) for _ in range(n)]
        total = sum(weights)
        p = [Fraction(wt, total) for wt in weights]
        q = [Fraction(rng.randint(1, 8), 10) for _ in range(n)]
        c_life = [Fraction(rng.randint(0, 2), 4) for _ in range(n)]
        # Each state's z is drawn just before its phi.
        z, phi = zip(*((rng.randint(1, 2) * delta, rng.randint(0, 12) * delta_prime) for _ in range(n)))
        d = [Fraction(rng.randint(0, 8)) for _ in range(n)]
        agents.append(build_flower_from_potentials(p, q, c_life, z, phi, d, cost))
    return build_multi_agent_instance(agents, delta, delta_prime)


class _YesOptimum:
    """The optimum a partition fixture attains on a yes-instance."""

    @property
    def yes_optimum(self) -> Fraction:
        return self.v_star - (len(self.b) // 2 + 1) * self.eta_prime


@dataclass(frozen=True)
class PartitionFixture(_YesOptimum):
    """Number-partition reduction: optimum hits the adjusted target value
    exactly when the input multiset splits into two equal halves.

    The construction's zero costs and adopt-on-indifference tie rule are
    replaced by a tiny positive cost eta_prime per platform and a bump
    eta on the special petal's potential.  Both margins are far below the
    integer gaps in the reduction, so the yes/no separation is exact:
    yes-instances attain v_star - (n+1)*eta_prime; no-instances stay
    below v_star - (2n+2)*eta_prime.
    """

    instance: FlowerInstance
    v_star: Fraction
    eta: Fraction
    eta_prime: Fraction
    b: tuple[int, ...]
    special: int

    def __iter__(self):
        yield self.instance
        yield self.v_star


def _partition_chain(a):
    """The multiset a as ints, checked; its n, H = n * sum(a) and rewards b
    (H + a_i, then n copies of H); and the shared chain geometry: 2n+1
    petals with lambda = n^2, z = 1."""
    a = tuple(int(v) for v in a)
    if not a or any(v <= 0 for v in a):
        raise RangeError("need a nonempty multiset of positive integers")
    n = len(a)
    H = n * sum(a)
    b = tuple(H + v for v in a) + (H,) * n
    count = 2 * n + 1
    p = [Fraction(1, count)] * count
    q = [1 - Fraction(1, count * n * n)] * count
    y = [Fraction(1, count * n * n * (n * n + 1))] * count
    B = 1 + count * n * n
    return n, H, b, count, p, q, y, B


def gen_partition_instance(a) -> PartitionFixture:
    n, H, b, count, p, q, y, B = _partition_chain(a)
    eta = Fraction(1, 10**6)
    eta_prime = Fraction(1, 10**9)
    phi0 = Fraction(sum(b), 2 * B)
    phi = [phi0 + bi for bi in b] + [phi0 + eta]
    shift = n * n + 1
    c_platform = [v / shift for v in phi]
    c_life = [Fraction(0)] * count
    d = [Fraction(bi) for bi in b] + [Fraction(4 * n * H)]
    cost = [eta_prime] * count
    inst = build_flower_instance(p, q, y, c_life, c_platform, d, cost)
    v_star = shift * (4 * n * H + Fraction(sum(b), 2)) / (B + n + 1)
    return PartitionFixture(inst, v_star, eta, eta_prime, b, count)


@dataclass(frozen=True)
class TwoAgentPartitionFixture(_YesOptimum):
    """Two mirrored agents; only balanced splits satisfy both at once."""

    mi: MultiAgentInstance
    v_star: Fraction
    no_bound: Fraction
    eta: Fraction
    eta_prime: Fraction
    b: tuple[int, ...]
    special: int


def gen_two_agent_partition(a) -> TwoAgentPartitionFixture:
    n, H, b, count, p, q, y, B = _partition_chain(a)
    b2 = tuple(2 * H - bi for bi in b)
    delta = Fraction(1)
    delta_prime = Fraction(1, 2 * B * 10**6)
    eta = 100 * delta_prime
    eta_prime = Fraction(1, 10**9)
    shift = n * n + 1
    c_life = [Fraction(0)] * count
    d = [Fraction(1)] * (2 * n) + [Fraction(3 * n)]
    cost = [eta_prime] * count
    agents = []
    for rewards in (b, b2):
        phi0 = Fraction(sum(rewards), 2 * B)
        phi = [phi0 + bi for bi in rewards] + [phi0 + eta]
        c_platform = [v / shift for v in phi]
        agents.append(build_flower_instance(p, q, y, c_life, c_platform, d, cost))
    mi = build_multi_agent_instance(agents, delta, delta_prime)
    v_star = Fraction(8 * n * shift, B + n + 1)
    no_bound = Fraction((8 * n - 2) * shift, B + n)
    return TwoAgentPartitionFixture(mi, v_star, no_bound, eta, eta_prime, b, count)


@dataclass(frozen=True)
class SetCoverInstance:
    """Covering reduction over a general chain.

    States: one per candidate set, then one per element, then a sink.
    The designer may build any subset of set-platforms (cost k each,
    reward rate k^2 + k while occupied) and route each element to at
    most one set containing it; the agent adopts everything offered.
    """

    universe: tuple
    families: tuple[frozenset, ...]
    k: int

    @property
    def m(self) -> int:
        return len(self.families)

    @property
    def n(self) -> int:
        return len(self.universe)

    @property
    def reward_rate(self) -> Fraction:
        return Fraction(self.k * self.k + self.k)

    def routing_options(self, j: int):
        """Sets the j-th element may be routed to (None = no platform)."""
        u = self.universe[j]
        return [None] + [i for i, f in enumerate(self.families) if u in f]

    def chain_for(self, built, routing) -> GeneralChain:
        m, n, k = self.m, self.n, self.k
        size = m + n + 1
        bad = m + n
        rows = []
        for i in range(m):
            row = [Fraction(0)] * size
            if i in built:
                stay = 1 - Fraction(1, k * k)
                row[i] = stay
                for j in range(n):
                    row[m + j] = Fraction(1, k * k * n)
            else:
                row[bad] = Fraction(1)
            rows.append(tuple(row))
        for j in range(n):
            row = [Fraction(0)] * size
            target = routing[j]
            if target is None:
                row[bad] = Fraction(1)
            else:
                row[target] = Fraction(1)
            rows.append(tuple(row))
        row = [Fraction(0)] * size
        row[bad] = 1 - Fraction(1, n * k**4)
        for j in range(n):
            row[m + j] = Fraction(1, n * n * k**4)
        rows.append(tuple(row))
        return GeneralChain(tuple(rows), start=m)

    def profit(self, built, routing) -> Fraction:
        pi = steady_state_general(self.chain_for(built, routing))
        revenue = sum((self.reward_rate * pi[i] for i in built), Fraction(0))
        return revenue - Fraction(self.k) * len(built)

    def optimum(self):
        """Exhaustive best (profit, built, routing) over designer choices."""
        best = None
        sets = list(range(self.m))
        for count in range(self.m + 1):
            for built in itertools.combinations(sets, count):
                built = frozenset(built)
                for routing in itertools.product(
                    *(self.routing_options(j) for j in range(self.n))
                ):
                    value = self.profit(built, routing)
                    if best is None or value > best[0]:
                        best = (value, built, routing)
        return best

    def min_cover_size(self):
        for count in range(self.m + 1):
            for combo in itertools.combinations(self.families, count):
                covered = set().union(*combo) if combo else set()
                if set(self.universe) <= covered:
                    return count
        return None


def gen_setcover_instance(U, F, k: int) -> SetCoverInstance:
    universe = tuple(U)
    families = tuple(frozenset(f) for f in F)
    if not universe:
        raise RangeError("need a nonempty universe")
    if len(frozenset(universe)) < len(universe):
        raise RangeError("universe elements must be distinct")
    if not families:
        raise RangeError("need a nonempty family")
    outside = next((f for f in families if not f <= frozenset(universe)), None)
    if outside is not None:
        raise RangeError(f"family {sorted(outside)} has elements outside the universe")
    if k < 1:
        raise RangeError("need k >= 1")
    combos = (1 << len(families)) * math.prod(
        1 + sum(1 for f in families if u in f) for u in universe
    )
    if combos > _SETCOVER_CHOICES:
        raise TooLarge(f"{combos} designer choices exceed the guard {_SETCOVER_CHOICES}")
    return SetCoverInstance(universe, families, k)


def gen_no_nash_game() -> GameInstance:
    """Two designers, three states, one agent: no pure Nash equilibrium."""
    third = Fraction(1, 3)
    chassis = build_flower_instance(
        p=(third, third, third),
        q=(Fraction(2, 3),) * 3,
        y=(Fraction(1, 6),) * 3,
        c_life=(Fraction(0),) * 3,
        c_platform=(Fraction(0),) * 3,
        d=(Fraction(0),) * 3,
        cost=(Fraction(1),) * 3,
    )
    eps = Fraction(1, 1000)
    one = Fraction(1)

    def cand(state, phi, d):
        return Candidate(state, (one,), (Fraction(phi),), (Fraction(d),), eps)

    designer1 = (cand(1, 50, 100), cand(2, 0, 0), cand(3, 2000, 50))
    designer2 = (cand(1, 0, 0), cand(2, 50, 100), cand(3, 1000, 2000))
    return build_game_instance(
        (chassis,), (designer1, designer2), Fraction(1), Fraction(50)
    )
