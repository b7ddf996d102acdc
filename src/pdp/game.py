"""Strategic play between several designers sharing one agent population.

Each designer owns one candidate platform per state and chooses which to
build; rivals' built platforms act as external competition.  Best
responses run through the competitive solver; dynamics and the pure-Nash
search operate over full strategy profiles.  Within one search, a
`SearchMemo` keeps every profit and best response already computed, and
one competitive instance (with its Pareto curves) per designer and rival
profile; the search drops it when it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .agent import TooLarge
from .core import FlowerInstance, all_subsets, build_flower_instance
from .designer import DesignSet
from .multiagent import (
    CompetitiveInstance,
    ExternalPlatform,
    MultiAgentInstance,
    build_competitive_instance,
    build_multi_agent_instance,
    check_quantization_steps,
    competitive_profit,
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
    # Checked here too: a game without designers never builds a view.
    check_quantization_steps(delta, delta_prime)
    chassis = tuple(chassis)
    designers = tuple(tuple(sorted(cands, key=lambda c: c.state)) for cands in designers)
    n = chassis[0].n
    for cands in designers:
        if tuple(c.state for c in cands) != tuple(range(1, n + 1)):
            raise ValueError("each designer needs exactly one candidate per state")
        for c in cands:
            if c.cost <= 0:
                raise ValueError("candidate costs must be positive")
            if len(c.z) != len(chassis) or len(c.phi) != len(chassis):
                raise ValueError("candidate needs per-agent z and phi")
            # z = -lambda would divide by zero in the designer's view.
            if any(z <= 0 for z in c.z):
                raise ValueError(f"candidate at state {c.state} needs every z positive")
    g = GameInstance(chassis, designers, delta, delta_prime)
    g.views  # validates quantization eagerly
    return g


Profile = tuple  # one frozenset of states per designer


def _designer_view(g: GameInstance, designer: int) -> MultiAgentInstance:
    """Designer's candidates recast as per-agent flower instances.

    The chassis fixes p and q (hence lambda and B); the candidate's z
    picks y, and its potential picks the platform reward.
    """
    agents = []
    for i, base in enumerate(g.chassis):
        dp = base.params
        p, q = base.p, base.q
        y = []
        c_platform = []
        for c in g.designers[designer]:
            j = c.state - 1
            w = dp.lam[j] + c.z[i]
            y.append((1 - q[j]) - p[j] / w)
            c_platform.append((c.phi[i] * c.z[i] + dp.lam[j] * base.c_life[j]) / w)
        agents.append(
            build_flower_instance(
                p,
                q,
                y,
                base.c_life,
                c_platform,
                tuple(c.d[i] for c in g.designers[designer]),
                tuple(c.cost for c in g.designers[designer]),
            )
        )
    return build_multi_agent_instance(agents, g.delta, g.delta_prime)


def _competitive_instance(g: GameInstance, designer: int, profile: Profile) -> CompetitiveInstance:
    mi = g.views[designer]
    externals = []
    for other, built in enumerate(profile):
        if other == designer:
            continue
        for s in sorted(built):
            c = g.designers[other][s - 1]
            externals.append(ExternalPlatform((other, s), s, c.z, c.phi))
    return build_competitive_instance(mi, externals)


def _rivals(designer: int, profile: Profile) -> Profile:
    return profile[:designer] + profile[designer + 1 :]


class SearchMemo:
    """Answers computed within one search over one game.

    Profits are keyed by (designer, profile) and best responses by
    (designer, rivals' builds), since a best response ignores the
    designer's own entry.  Competitive instances are kept per (designer,
    rivals), so their Pareto curves are pruned once.  Misses call
    `profile_profit` and `best_response` by their module names.
    """

    def __init__(self, g: GameInstance):
        self.g = g
        self.instances: dict = {}
        self.profits: dict = {}
        self.responses: dict = {}

    def instance(self, designer: int, profile: Profile) -> CompetitiveInstance:
        key = (designer, _rivals(designer, profile))
        ci = self.instances.get(key)
        if ci is None:
            ci = self.instances[key] = _competitive_instance(self.g, designer, profile)
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
