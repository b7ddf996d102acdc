"""Strategic play between several designers sharing one agent population.

Each designer owns one candidate platform per state and chooses which to
build; rivals' built platforms act as external competition.  Each
designer sees the game through one view, a `MultiAgentInstance` of
`ViewAgent`s: per chassis agent, the chassis's lambda, A and B with the
designer's candidates as its platforms (w = lambda + z), and their d and
costs, all as Pairs.  No flower is built for a view.  Best responses run
through the competitive solver; dynamics and the pure-Nash search
operate over full strategy profiles.  Within one search, a `SearchMemo`
keeps every profit, as `competitive_profit_pair`'s (num, den), and every
best response already computed, one competitive instance per designer
and rival profile, and one `multiagent.CurvePool` per designer over
every rival candidate, which builds those instances' curves.  The search
compares profits by cross-multiplying and drops the memo when it
returns.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .core import (
    DerivedPairs,
    DerivedParams,
    FlowerInstance,
    Pair,
    TooLarge,
    all_subsets,
    as_pair,
    fraction_view,
    sum_pair,
)
from .designer import DesignSet
from .multiagent import (
    CompetitiveInstance,
    CurvePool,
    ExternalPlatform,
    MultiAgentInstance,
    check_agent_set,
    check_grid,
    competitive_profit_pair,
    competitive_solve,
)

# The most strategy profiles pure_nash_search enumerates.
_NASH_PROFILES = 10**6


@dataclass(frozen=True)
class Candidate:
    """One designer's buildable platform at one state."""

    state: int
    z: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]
    d: tuple[Fraction, ...]
    cost: Fraction


# A view agent's vectors, indexed by state: the candidates' d for the agent
# and their costs.
ViewPairs = NamedTuple("ViewPairs", [("d", tuple[Pair, ...]), ("cost", tuple[Pair, ...])])


@dataclass(frozen=True)
class ViewAgent:
    """One chassis agent as a designer's view sees it: params holds the
    agent's derived values with the designer's candidates as its
    platforms.  It has what the competitive layer reads of an agent
    (params, n, pairs.d, pairs.cost and cost) and no y or c_platform."""

    pairs: ViewPairs
    params: DerivedParams

    cost = fraction_view("cost")

    @property
    def n(self) -> int:
        return len(self.pairs.d)


@dataclass(frozen=True)
class GameInstance:
    """Shared agent chassis plus one candidate per designer and state."""

    chassis: tuple[FlowerInstance, ...]
    designers: tuple[tuple[Candidate, ...], ...]
    delta: Fraction
    delta_prime: Fraction

    @property
    def n(self) -> int:
        return self.chassis[0].n

    @property
    def num_designers(self) -> int:
        return len(self.designers)

    @cached_property
    def views(self) -> tuple[MultiAgentInstance, ...]:
        """Each designer's view (see _designer_view), built once per game."""
        return tuple(_designer_view(self, d) for d in range(self.num_designers))


def build_game_instance(chassis, designers, delta, delta_prime) -> GameInstance:
    """The game, checked.  A candidate's fault names its designer as a
    document does, designers[d] (0-based), and its state."""
    chassis = check_agent_set(chassis, delta, delta_prime)
    designers = tuple(tuple(sorted(cands, key=lambda c: c.state)) for cands in designers)
    n = chassis[0].n
    for d, cands in enumerate(designers):
        states = Counter(c.state for c in cands)
        for s in sorted({*range(1, n + 1), *states}):
            if not 1 <= s <= n:
                raise ValueError(f"designers[{d}]: state {s}: not a state of 1..{n}")
            if states[s] != 1:
                raise ValueError(f"designers[{d}]: state {s}: needs one candidate, has {states[s]}")
        for c in cands:
            at = f"designers[{d}]: state {c.state}"
            if c.cost <= 0:
                raise ValueError(f"{at}: candidate cost must be positive")
            if not len(c.z) == len(c.phi) == len(c.d) == len(chassis):
                raise ValueError(f"{at}: candidate needs per-agent z, phi and d")
            # Before the view (z = -lambda divides by zero there), naming designer and state.
            for i, (z, phi) in enumerate(zip(c.z, c.phi), 1):
                check_grid(z, phi, delta, delta_prime, "{}: agent {}", at, i)
    g = GameInstance(chassis, designers, delta, delta_prime)
    g.views  # built with the game: every game command reads them
    return g


Profile = tuple  # one frozenset of states per designer


def _designer_view(g: GameInstance, designer: int) -> MultiAgentInstance:
    """Designer's candidates as one ViewAgent per chassis agent.

    The chassis fixes lambda, A and B, which every designer shares; the
    candidate's z and phi are the agent's own, and w = lambda + z.  These
    are the Pairs derived_params gives the flower whose platforms have
    that z and phi (core.build_flower_from_potentials).
    """
    cands = g.designers[designer]
    cost = tuple(as_pair(c.cost) for c in cands)
    agents = []
    for i, base in enumerate(g.chassis):
        own = base.params.pairs
        z = tuple(as_pair(c.z[i]) for c in cands)
        phi = tuple(as_pair(c.phi[i]) for c in cands)
        w = tuple(map(sum_pair, own.lam, z))
        params = DerivedParams(DerivedPairs(own.lam, w, z, phi, own.A, own.B))
        agents.append(ViewAgent(ViewPairs(tuple(as_pair(c.d[i]) for c in cands), cost), params))
    # build_game_instance has made build_multi_agent_instance's checks.
    return MultiAgentInstance(tuple(agents), g.delta, g.delta_prime)


def competitive_instance(
    g: GameInstance, designer: int, profile: Profile, pool: CurvePool | None = None
) -> CompetitiveInstance:
    """The designer's competitive instance against the rivals' builds in
    profile, each external with id (rival, state).  Its curves come from
    pool, a CurvePool over rival candidates that include those builds, or
    else from its externals alone.  build_competitive_instance's checks are
    skipped: build_game_instance has checked each external, a candidate."""
    mi = g.views[designer]
    externals = []
    for other, built in enumerate(profile):
        if other == designer:
            continue
        for s in sorted(built):
            c = g.designers[other][s - 1]
            externals.append(ExternalPlatform((other, s), s, c.z, c.phi))
    return CompetitiveInstance(mi, tuple(externals), pool)


def _rivals(designer: int, profile: Profile) -> Profile:
    return profile[:designer] + profile[designer + 1 :]


class SearchMemo:
    """Answers computed within one search over one game.

    Profits are keyed by (designer, profile) and best responses by
    (designer, rivals' builds), since a best response ignores the
    designer's own entry.  Competitive instances are kept per (designer,
    rivals), their curves built by one CurvePool per designer over every
    rival candidate.  A profit is kept as competitive_profit_pair's (num,
    den), den > 0.  Misses call `competitive_profit_pair` and
    `best_response` by their module names.
    """

    def __init__(self, g: GameInstance):
        self.g = g
        self.instances: dict = {}
        self.profits: dict = {}
        self.responses: dict = {}
        self.pools: dict = {}

    def instance(self, designer: int, profile: Profile) -> CompetitiveInstance:
        key = (designer, _rivals(designer, profile))
        ci = self.instances.get(key)
        if ci is None:
            pool = self.pools.get(designer)
            if pool is None:
                everyone = (frozenset(range(1, self.g.n + 1)),) * self.g.num_designers
                rivals = competitive_instance(self.g, designer, everyone).externals
                pool = self.pools[designer] = CurvePool(self.g.views[designer], rivals)
            ci = self.instances[key] = competitive_instance(self.g, designer, profile, pool)
        return ci

    def profit(self, designer: int, profile: Profile) -> tuple[int, int]:
        key = (designer, profile)
        if key not in self.profits:
            ci = self.instance(designer, profile)
            self.profits[key] = competitive_profit_pair(ci, profile[designer])
        return self.profits[key]

    def response(self, designer: int, profile: Profile) -> DesignSet:
        key = (designer, _rivals(designer, profile))
        if key not in self.responses:
            self.responses[key] = best_response(self.g, designer, profile, self)
        return self.responses[key]


def profile_profit(g: GameInstance, designer: int, profile: Profile) -> Fraction:
    """Designer's exact profit under a full strategy profile."""
    return Fraction(*SearchMemo(g).profit(designer, profile))


def best_response(
    g: GameInstance, designer: int, others: Profile, memo: SearchMemo | None = None
) -> DesignSet:
    """Profit-maximizing set for one designer with rivals' builds fixed.
    A search passes its memo, which supplies the competitive instance."""
    ci = (memo or SearchMemo(g)).instance(designer, others)
    return competitive_solve(ci)


@dataclass(frozen=True)
class DynamicsOutcome:
    """Result of round-robin best-response play.

    kind is "nash", "cycle", or "budget".  trace holds the profile after
    every completed round, starting with the initial profile.
    """

    kind: str
    profile: Profile | None
    cycle: tuple[Profile, ...]
    period: int | None
    trace: tuple[Profile, ...]


def best_response_dynamics(g: GameInstance, initial: Profile, max_rounds: int = 100) -> DynamicsOutcome:
    memo = SearchMemo(g)
    current = tuple(frozenset(s) for s in initial)
    trace = [current]
    seen = {current: 0}
    for _ in range(max_rounds):
        moved = False
        for d in range(g.num_designers):
            br = memo.response(d, current)
            if br.states != current[d]:
                current = current[:d] + (br.states,) + current[d + 1 :]
                moved = True
        trace.append(current)
        if not moved:
            return DynamicsOutcome("nash", current, (), None, tuple(trace))
        if current in seen:
            start = seen[current]
            cycle = tuple(trace[start:-1])
            return DynamicsOutcome("cycle", None, cycle, len(cycle), tuple(trace))
        seen[current] = len(trace) - 1
    return DynamicsOutcome("budget", None, (), None, tuple(trace))


def pure_nash_search(g: GameInstance):
    """First profile (lexicographic) where nobody can improve, or None.
    Profits are compared as (num, den) pairs by cross-multiplying, as
    both denominators are positive."""
    n = g.n
    total = (1 << n) ** g.num_designers
    if total > _NASH_PROFILES:
        raise TooLarge(f"{total} profiles exceed the guard {_NASH_PROFILES}")
    subsets = sorted(all_subsets(n), key=lambda s: tuple(sorted(s)))
    memo = SearchMemo(g)
    for profile in itertools.product(subsets, repeat=g.num_designers):
        is_nash = True
        for d in range(g.num_designers):
            num, den = memo.profit(d, profile)
            for alt in subsets:
                if alt == profile[d]:
                    continue
                deviated = profile[:d] + (alt,) + profile[d + 1 :]
                alt_num, alt_den = memo.profit(d, deviated)
                if alt_num * den > num * alt_den:
                    is_nash = False
                    break
            if not is_nash:
                break
        if is_nash:
            return profile
    return None
