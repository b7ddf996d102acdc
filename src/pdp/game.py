"""Strategic play between several designers sharing one agent population.

Each designer owns one candidate platform per state and chooses which to
build; rivals' built platforms act as external competition.  Best
responses run through the competitive solver; dynamics and the pure-Nash
search operate over full strategy profiles.  Within one search, a
`SearchMemo` keeps every profit and best response already computed, one
competitive instance per designer and rival profile, and one
`multiagent.CurvePool` per designer over every rival candidate, which
builds those instances' curves.  The search drops it when it returns.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .agent import TooLarge
from .core import FlowerInstance, all_subsets, build_flower_from_potentials
from .designer import DesignSet, QuantizationError
from .multiagent import (
    _LEVEL_CEILING,
    CompetitiveInstance,
    CurvePool,
    ExternalPlatform,
    MultiAgentInstance,
    check_quantization_steps,
    competitive_profit,
    competitive_solve,
    grid_fault,
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
    check_quantization_steps(delta, delta_prime)
    chassis = tuple(chassis)
    if not chassis:
        raise ValueError("need at least one agent")
    designers = tuple(tuple(sorted(cands, key=lambda c: c.state)) for cands in designers)
    n = chassis[0].n
    if any(a.n != n for a in chassis):
        raise ValueError("all agents must share the state set")
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
                if (fault := grid_fault(z, phi, delta, delta_prime)) is not None:
                    raise QuantizationError((
                        f"{at}: agent {i}: z = {z} is not a positive multiple of {delta}",
                        f"{at}: agent {i}: phi = {phi} is not a nonnegative multiple of {delta_prime}",
                        f"{at}: agent {i}: quantization level exceeds {_LEVEL_CEILING}",
                    )[fault])
    g = GameInstance(chassis, designers, delta, delta_prime)
    g.views  # built with the game: every game command reads them
    return g


Profile = tuple  # one frozenset of states per designer


def _designer_view(g: GameInstance, designer: int) -> MultiAgentInstance:
    """Designer's candidates recast as per-agent flower instances.

    The chassis fixes p and q (hence lambda and B); the candidate's z
    picks y, and its potential picks the platform reward.
    """
    cands = g.designers[designer]
    cost = [c.cost for c in cands]
    agents = []
    for i, base in enumerate(g.chassis):
        z = [c.z[i] for c in cands]
        phi = [c.phi[i] for c in cands]
        d = [c.d[i] for c in cands]
        agents.append(build_flower_from_potentials(base.p, base.q, base.c_life, z, phi, d, cost))
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
    rival candidate.  Misses call `profile_profit` and `best_response` by
    their module names.
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

    def profit(self, designer: int, profile: Profile) -> Fraction:
        key = (designer, profile)
        if key not in self.profits:
            self.profits[key] = profile_profit(self.g, designer, profile, self)
        return self.profits[key]

    def response(self, designer: int, profile: Profile) -> DesignSet:
        key = (designer, _rivals(designer, profile))
        if key not in self.responses:
            self.responses[key] = best_response(self.g, designer, profile, self)
        return self.responses[key]


def profile_profit(
    g: GameInstance, designer: int, profile: Profile, memo: SearchMemo | None = None
) -> Fraction:
    """Designer's exact profit under a full strategy profile.  A search
    passes its memo, which supplies the competitive instance."""
    ci = (memo or SearchMemo(g)).instance(designer, profile)
    return competitive_profit(ci, profile[designer])


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


def _subsets_lex(n: int) -> list[frozenset[int]]:
    return sorted(all_subsets(n), key=lambda s: tuple(sorted(s)))


def pure_nash_search(g: GameInstance):
    """First profile (lexicographic) where nobody can improve, or None."""
    n = g.n
    total = (1 << n) ** g.num_designers
    if total > _NASH_PROFILES:
        raise TooLarge(f"{total} profiles exceed the guard {_NASH_PROFILES}")
    subsets = _subsets_lex(n)
    memo = SearchMemo(g)
    for profile in itertools.product(subsets, repeat=g.num_designers):
        is_nash = True
        for d in range(g.num_designers):
            current = memo.profit(d, profile)
            for alt in subsets:
                if alt == profile[d]:
                    continue
                deviated = profile[:d] + (alt,) + profile[d + 1 :]
                if memo.profit(d, deviated) > current:
                    is_nash = False
                    break
            if not is_nash:
                break
        if is_nash:
            return profile
    return None
