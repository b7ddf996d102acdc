"""Designer optimization against several agents, optionally with
pre-existing external platforms owned by competitors.

Both solvers guess, per agent, a utility window [theta_next, theta) and a
denominator D, then run a hashed subset DP whose slots record the exact
numerator/denominator shifts each candidate set induces.  A slot is kept
only when it is consistent with the guess, which makes the slot value
equal the true profit.

One core, `competitive_solve`, runs that DP.  The multi-agent problem
is the competitive one with no rival platforms, so `multi_agent_solve`
builds that competitive instance and hands it to `competitive_solve`.
Each agent's Pareto curves, over the rival platforms alone and with the
designer's candidate inserted at every state, take one form: a
`CurveImage`, integer entries in the greedy's order (psi descending).
One `CurvePool` over a fixed pool of rival platforms builds them: it
puts each agent's values and points over one scale, prunes each state's
curves on those integer points (`competitive_run`, the integer hull
`multiplatform.state_run`), so no `Fraction` is made to build them, and
keeps each state's run for every set of rivals that has it.  A lone
instance pools its own externals; a game search, every rival candidate.
Per agent, `agent_guesses` walks the entries once and yields a guess
above every psi, then one per distinct psi, each window bounded by the
entries' own psi.  Each guess reads off the candidates the agent picks,
its utility numerator and denominator without them (a_hat, b_hat), and
the shift each pick adds (sigma, tau); with no rival platforms a_hat =
A, b_hat = B, sigma = z*phi, tau = z.  `competitive_profit_pair` runs
`multiplatform.greedy_walk`, the greedy `solve-multiplatform-agent` runs
and `verify` checks against its oracle, over the same entries, and gives
the profit as an integer (num, den), which a game search compares as it
is; `competitive_profit` is its Fraction.
Everything that depends on the guess alone (the shift pairs the picks
reach and which of them are consistent) is worked out once per agent
and guess, in one pass over the pairs.  Slot keys and slot values are
integers: a slot key holds each agent's exact (sigma, tau) sums at the
scale L of its curves, for each D the value coefficients share one
integer denominator, and consistency is an integer window on the sum
of sigma.  The pool reads each agent's values as Pairs, and so an
agent may be a game's view (`game.ViewAgent`) as well as a flower.
Besides the external platforms' own `Fraction` z and phi, the solve
makes one `Fraction`: the returned profit.

delta and delta_prime only validate documents: the builders check every
z and phi against them (`grid_fault`, `_LEVEL_CEILING`), and no table
is kept in their units.  The slot keys depend on the theta guesses
alone; only the values depend on D.  So `competitive_solve` drops each
agent's guesses that keep no shift pair inside their windows
(`AgentGuess.kept`) before it combines them, and it bounds its work by
one budget, `_DP_WORK`, counted as its tables grow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import multiplatform
from .agent import TooLarge, adopted_response
from .core import DerivedParams, FlowerInstance, as_pair, product_pair, scale_to_integers
from .designer import DesignSet, QuantizationError
from .multiplatform import CurveEntry, Platform, merge_runs, state_run


# The largest quantization level z/delta or phi/delta_prime an instance may have.
_LEVEL_CEILING = 10**12
# The most units of work one threshold DP may do: one per theta combination,
# and each agent guess's shift-pair set, key set and valued table's size
# after each state that grows it.  A unit takes about 1 us of CPU on a 2-core
# x86-64 machine, so this is about 1 s (see README.md, guards).
_DP_WORK = 10**6


@dataclass(frozen=True)
class MultiAgentInstance:
    """Several agents over one state set; the designer pays shared costs.

    Every z_ij must be a positive integer multiple of delta and every
    potential phi_i(j) a nonnegative integer multiple of delta_prime.  An
    agent is a FlowerInstance, or in a game's designer view a
    game.ViewAgent, which has only what the solvers read of an agent:
    params, n, pairs.d, pairs.cost and cost.
    """

    agents: tuple[FlowerInstance, ...]
    delta: Fraction
    delta_prime: Fraction

    @property
    def n(self) -> int:
        return self.agents[0].n

    @property
    def k(self) -> int:
        return len(self.agents)

    @property
    def cost(self) -> tuple[Fraction, ...]:
        return self.agents[0].cost

    @property
    def params(self) -> tuple[DerivedParams, ...]:
        """Each agent's derived parameters, kept on the agent."""
        return tuple(a.params for a in self.agents)

    @cached_property
    def integer_cost(self) -> tuple[int, tuple[int, ...]]:
        """(scale, costs times scale), built on first use and kept."""
        return scale_to_integers(self.agents[0].pairs.cost)


def check_quantization_steps(delta: Fraction, delta_prime: Fraction) -> None:
    """Both quantization steps must be positive; the builders divide by them."""
    for name, value in (("delta", delta), ("delta_prime", delta_prime)):
        if value <= 0:
            raise QuantizationError(f"{name} = {value} must be positive")


def grid_fault(z, phi, delta, delta_prime) -> int | None:
    """0 if z is not a positive multiple of delta, 1 if phi is not a nonnegative
    multiple of delta_prime, 2 if a level passes _LEVEL_CEILING, else None."""
    (zn, zd), (fn, fd), (dn, dd), (dpn, dpd) = map(as_pair, (z, phi, delta, delta_prime))
    l, l_rest = divmod(zn * dd, zd * dn)
    if l_rest or l <= 0:
        return 0
    lp, lp_rest = divmod(fn * dpd, fd * dpn)
    if lp_rest or lp < 0:
        return 1
    return 2 if max(l, lp) > _LEVEL_CEILING else None


def build_multi_agent_instance(
    agents, delta: Fraction, delta_prime: Fraction
) -> MultiAgentInstance:
    check_quantization_steps(delta, delta_prime)
    agents = tuple(agents)
    if not agents:
        raise ValueError("need at least one agent")
    n = agents[0].n
    for a in agents:
        if a.n != n:
            raise ValueError("all agents must share the state set")
        if a.pairs.cost != agents[0].pairs.cost:
            raise ValueError("platform costs must be shared across agents")
    mi = MultiAgentInstance(agents, delta, delta_prime)
    for i, dp in enumerate(mi.params, 1):
        for j, (z, phi) in enumerate(zip(dp.pairs.z, dp.pairs.phi), 1):
            if (fault := grid_fault(z, phi, delta, delta_prime)) is not None:
                raise QuantizationError((
                    f"agent {i}: z[{j}] = {dp.z[j - 1]} is not a positive multiple of {delta}",
                    f"agent {i}: phi[{j}] = {dp.phi[j - 1]} is not a nonnegative multiple of {delta_prime}",
                    f"agent {i}, state {j}: quantization level exceeds {_LEVEL_CEILING}",
                )[fault])
    return mi


@dataclass(frozen=True)
class AgentGuess:
    """One agent under one threshold guess, over integers at the scale L
    of the agent's CurveImage, with everything the DP needs from it.

    member[j] says whether the agent picks the designer's candidate at
    state j+1.  a_hat and b_hat are the agent's utility numerator and
    denominator without those picks, and picking state j+1 adds sigma[j]
    to the numerator and tau[j] to the denominator (both 0 for a state
    not picked).  dw[j] is d_j*w_j*L.  kept maps each (sum sigma, sum tau)
    shift pair the agent reaches over its picks whose utility lies in the
    window to its D = b_hat + sum tau.
    """

    member: tuple[bool, ...]
    sigma: tuple[int, ...]
    tau: tuple[int, ...]
    dw: tuple[int, ...]
    kept: dict[tuple[int, int], int]


def agent_guesses(im: CurveImage, work: _Work):
    """Each AgentGuess of one agent, read off its CurveImage in one walk
    over im.entries: first the guess above every psi, then one per
    distinct psi, descending.  The guess yielded where a run of equal psi
    begins has the window [that psi, the previous run's psi), with no
    upper bound for the first; the last one's floor is -1.  So the
    windows cover every utility >= -1.  Bounds are (psi, psi_den) pairs.
    The set of shift pairs a guess's picks reach is built once and
    counted on work as it grows; a pair's window is worked out the first
    time its denominator shift comes up.

    The walk keeps the last entry per (curve set, state) as it goes: at a
    guess, the point the agent selects on that curve at every utility in
    the window.  This needs psi to fall strictly along each curve, and
    equal psi to lie next to each other, as merge_runs lists them.  On
    the rival curves that entry is the agent's fallback; the agent picks
    the designer's candidate at a state when the entry kept on its
    inserted curve is that candidate, which replaces the fallback there.
    """
    last: dict[tuple[bool, int], CurveEntry] = {}
    top = None  # the window's upper bound; None: none
    n = len(im.dw)

    def guess(floor):
        fall = {s: e for (inserted, s), e in last.items() if not inserted}
        a_hat = im.A + sum(f.zphi for f in fall.values())
        b_hat = im.B + sum(f.z for f in fall.values())
        member = [False] * n
        sigma, tau = [0] * n, [0] * n
        for (inserted, s), e in last.items():
            if inserted and e.own:
                f = fall.get(s)
                member[s - 1] = True
                sigma[s - 1] = e.zphi - (f.zphi if f else 0)
                tau[s - 1] = e.z - (f.z if f else 0)
        pairs = {(0, 0)}
        for a, b in zip(sigma, tau):
            if a or b:
                pairs |= {(x + a, y + b) for x, y in pairs}
                work.add(len(pairs))
        # With shifts (a, b) the utility is (a_hat + a) / D, D = b_hat + b,
        # which is >= t = t_num / t_den (t_den > 0) iff a >= (t_num*D -
        # t_den*a_hat) / t_den: lo is that bound's ceiling at the floor,
        # and hi one less than it at the top (None: no upper bound).
        n_num, n_den = floor
        windows = {}  # denominator shift -> (D, lo, hi)
        kept = {}
        for a, b in pairs:
            if b not in windows:
                D = b_hat + b
                lo = -((n_den * a_hat - n_num * D) // n_den)
                hi = None
                if top is not None:
                    t_num, t_den = top
                    hi = -((t_den * a_hat - t_num * D) // t_den) - 1
                windows[b] = D, lo, hi
            D, lo, hi = windows[b]
            if lo <= a and (hi is None or a <= hi):
                kept[a, b] = D
        return AgentGuess(tuple(member), tuple(sigma), tuple(tau), im.dw, kept)

    for e in im.entries:
        if top is None or e.psi * top[1] != top[0] * e.psi_den:
            yield guess((e.psi, e.psi_den))
            top = e.psi, e.psi_den
        last[e.inserted, e.state] = e
    yield guess((-1, 1))


def slot_coefficients(guesses, denominators, cost, cost_scale: int) -> tuple[tuple[int, ...], int]:
    """Per-state marginal values under one (theta, D) guess, as integer
    numerators over one positive denominator M; denominators holds each
    agent's D (times the scale L of its curves).

    The value of state j is -cost_j plus d_ij*w_ij / D_i for every agent
    i that picks it; cost holds the costs times cost_scale.
    """
    P = math.prod(denominators)
    others = [cost_scale * P // Di for Di in denominators]
    coeffs = []
    for j, c in enumerate(cost):
        value = -c * P
        for g, other in zip(guesses, others):
            if g.member[j]:
                value += g.dw[j] * other
        coeffs.append(value)
    return tuple(coeffs), cost_scale * P


class _Work:
    """One threshold DP's units of work, checked against _DP_WORK as they grow."""

    units = 0

    def add(self, units: int) -> None:
        self.units += units
        if self.units > _DP_WORK:
            raise TooLarge(f"the threshold DP needs more than {_DP_WORK} units of work")


def competitive_solve(ci: CompetitiveInstance) -> DesignSet:
    """Exact optimum when agents also see competitor-owned platforms: the
    best consistent slot over every (theta, D) guess.

    Each agent's theta guesses are those agent_guesses reads off its
    curves.  A slot is consistent when each agent's own shift pair is in
    the kept pairs of that agent's guess, so a guess that keeps none is
    in no consistent combination and is dropped before the theta guesses
    are combined.  Per remaining combination a key-only pass finds the
    reachable joint keys; those whose every agent pair is kept fix the
    agents' D worth a valued DP, and the slots worth reading in it.  Ties
    break toward the lexicographically smallest state tuple.  Past
    _DP_WORK units of work the DP raises TooLarge.  The returned profit
    is the one Fraction the solve makes.
    """
    mi = ci.mi
    k = mi.k
    cost_scale, cost = mi.integer_cost
    work = _Work()
    kept = [[g for g in agent_guesses(im, work) if g.kept] for im in ci.curves]

    best = None  # (value numerator, its denominator, states)
    for combo in itertools.product(*kept):
        work.add(1)
        pairs = [g.kept for g in combo]
        shifts = [
            tuple(g.sigma[j] for g in combo) + tuple(g.tau[j] for g in combo)
            for j in range(mi.n)
        ]
        moves = [any(shift) for shift in shifts]
        # Key-only pass: the valued table below holds exactly the keys
        # reachable over the moving states, so a D no consistent key
        # matches cannot yield a candidate and is skipped.
        keys = {(0,) * (2 * k)}
        for shift, move in zip(shifts, moves):
            if move:
                keys |= {tuple(map(int.__add__, key, shift)) for key in keys}
                work.add(len(keys))
        targets = {}  # denominator shifts -> (the agents' D, consistent keys)
        for key in keys:
            Ds = tuple(map(dict.get, pairs, zip(key, key[k:])))
            if None not in Ds:
                targets.setdefault(key[k:], (Ds, []))[1].append(key)
        for Ds, consistent in targets.values():
            coeffs, M = slot_coefficients(combo, Ds, cost, cost_scale)
            table = {(0,) * (2 * k): (0, ())}
            for t, (shift, c) in enumerate(zip(shifts, coeffs), 1):
                if not moves[t - 1] and c <= 0:
                    continue  # the slot stays put and the value cannot rise
                for key, (val, states) in list(table.items()):
                    new_key = tuple(map(int.__add__, key, shift))
                    cand = (val + c, states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
                work.add(len(table))
            for key in consistent:
                val, states = table[key]
                if best is None:
                    best = (val, M, states)
                    continue
                cmp = val * best[1] - best[0] * M
                if cmp > 0 or (cmp == 0 and states < best[2]):
                    best = (val, M, states)
    # Each agent's windows cover every utility >= -1, so the guess whose
    # windows hold the agents' responses to the empty offer keeps that
    # offer as a consistent slot.
    if best is None:
        raise RuntimeError("the threshold DP found no consistent (theta, D) guess")
    return DesignSet(frozenset(best[2]), Fraction(best[0], best[1]))


def multi_agent_profit(mi: MultiAgentInstance, S) -> Fraction:
    """Ground-truth profit of offering S: each agent responds greedily."""
    S = frozenset(S)
    profit = -sum((mi.cost[j - 1] for j in S), Fraction(0))
    for a, dp in zip(mi.agents, mi.params):
        adopted = adopted_response(a, S)
        den = dp.B + sum((dp.z[j - 1] for j in adopted), Fraction(0))
        profit += sum((a.d[j - 1] * dp.w[j - 1] for j in adopted), Fraction(0)) / den
    return profit


def multi_agent_solve(mi: MultiAgentInstance) -> DesignSet:
    """Exact optimum of the shared-cost multi-agent design problem: the
    competitive problem with no rival platforms."""
    return competitive_solve(CompetitiveInstance(mi, ()))


@dataclass(frozen=True)
class ExternalPlatform:
    """A competitor-owned platform: per-agent occupancy shift and potential."""

    id: object
    state: int
    z: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]
    owner: object = "external"


class CurveImage(NamedTuple):
    """One agent's Pareto curves over one common denominator L: those of
    the rival platforms alone and those with the designer's candidate
    inserted at every state.

    A, B and dw (d_j * w_j per state) are the rational values times L,
    as are each entry's z and z*phi, so a selection's utility is
    (A + sum zphi) / (B + sum z) and the designer's revenue from it is
    (sum dw) / (B + sum z).  entries holds both curve sets' entries, every
    state's competitive_run merged by multiplatform.merge_runs.
    """

    L: int
    A: int
    B: int
    dw: tuple[int, ...]
    entries: tuple[CurveEntry, ...]


def competitive_run(state: int, rivals, own) -> list[CurveEntry]:
    """One state's run of an agent's curves: over the points of the rival
    platforms built at the state, and with the designer's candidate own
    inserted.  It depends on nothing else."""
    return state_run(state, (rivals, [*rivals, own]))


def external_platforms(externals, i: int) -> list[Platform]:
    """The external platforms as agent i (0-based) sees them."""
    return [Platform(pl.id, pl.state, pl.z[i], pl.phi[i]) for pl in externals]


class CurvePool:
    """Each agent's curves against any subset of a fixed pool of external
    platforms, told apart by id.  Per agent one scale_to_integers call
    puts A, B, d*w and the z and z*phi of every pool platform and
    own candidate (id ("own", j) at state j) over one L.  A state's curves
    depend only on the platforms there, so each state's are one
    competitive_run, kept per (agent, state, pool platforms there)."""

    def __init__(self, mi: MultiAgentInstance, pool):
        self.n = mi.n
        self.index = {pl.id: x for x, pl in enumerate(pool)}
        if len(self.index) < len(pool):  # as build_competitive_instance checks
            raise ValueError("two external platforms share an id")
        self.scaled = []  # per agent: (L, A, B, dw), pool points, own points
        self.runs: dict = {}
        for i, (a, dp) in enumerate(zip(mi.agents, mi.params)):
            ext = external_platforms(pool, i)
            platforms = ext + [
                Platform(("own", j), j, z, phi, own=True)
                for j, (z, phi) in enumerate(zip(dp.pairs.z, dp.pairs.phi), 1)
            ]
            L, (A, B), dw, z, zphi = scale_to_integers(
                (dp.pairs.A, dp.pairs.B),
                map(product_pair, a.pairs.d, dp.pairs.w),
                [pl.z for pl in platforms],
                [product_pair(pl.z, pl.phi) for pl in platforms],
            )
            points = [(zi, zp, str(pl.id), pl.own) for pl, zi, zp in zip(platforms, z, zphi)]
            self.scaled.append(((L, A, B, dw), points[: len(ext)], points[len(ext) :]))

    def images(self, externals) -> tuple[CurveImage, ...]:
        """Each agent's CurveImage against externals, platforms of the pool:
        the kept runs of the states, merged by multiplatform.merge_runs."""
        at = [[] for _ in range(self.n)]
        for pl in externals:
            at[pl.state - 1].append(self.index[pl.id])
        out = []
        for i, (head, pooled, own) in enumerate(self.scaled):
            runs = []
            for s, xs in enumerate(map(tuple, at), 1):
                run = self.runs.get((i, s, xs))
                if run is None:
                    rivals = [pooled[x] for x in xs]
                    run = self.runs[i, s, xs] = competitive_run(s, rivals, own[s - 1])
                runs.append(run)
            out.append(CurveImage(*head, merge_runs(runs)))
        return tuple(out)


@dataclass(frozen=True)
class CompetitiveInstance:
    """A multi-agent instance against external platforms.  Its curves come
    from pool when given (a game search's), else from a pool of its own."""

    mi: MultiAgentInstance
    externals: tuple[ExternalPlatform, ...]
    pool: CurvePool | None = field(default=None, compare=False, repr=False)

    @cached_property
    def curves(self) -> tuple[CurveImage, ...]:
        """Each agent's CurveImage, built once per instance."""
        return (self.pool or CurvePool(self.mi, self.externals)).images(self.externals)


def build_competitive_instance(mi: MultiAgentInstance, externals) -> CompetitiveInstance:
    externals = tuple(externals)
    k = mi.k
    seen = set()
    for pl in externals:
        # Curves, selections and local_optimality_check tell platforms apart by id.
        if pl.id in seen:
            raise ValueError(f"external platform id {pl.id!r} is used twice")
        seen.add(pl.id)
        if not 1 <= pl.state <= mi.n:
            raise ValueError(f"external platform {pl.id!r} has bad state {pl.state}")
        if len(pl.z) != k or len(pl.phi) != k:
            raise ValueError(f"external platform {pl.id!r} needs {k} per-agent values")
        for i, (z, phi) in enumerate(zip(pl.z, pl.phi), 1):
            if (fault := grid_fault(z, phi, mi.delta, mi.delta_prime)) is not None:
                raise QuantizationError((
                    f"external {pl.id!r}: z for agent {i} is not a positive multiple of delta",
                    f"external {pl.id!r}: phi for agent {i} is not a nonnegative multiple of delta'",
                    f"external {pl.id!r}, agent {i}: quantization level exceeds {_LEVEL_CEILING}",
                )[fault])
    return CompetitiveInstance(mi, externals)


def competitive_profit(ci: CompetitiveInstance, S) -> Fraction:
    """Ground truth: each agent picks over externals plus the offered
    candidates by the greedy walk; the designer earns only from its own
    adopted platforms, sum dw over the agent's final denominator.  The
    profit of competitive_profit_pair, the only Fraction made."""
    return Fraction(*competitive_profit_pair(ci, S))


def competitive_profit_pair(ci: CompetitiveInstance, S) -> tuple[int, int]:
    """competitive_profit as (num, den), den > 0 and not reduced, from the
    integer costs and curve images alone."""
    S = frozenset(S)
    cost_scale, cost = ci.mi.integer_cost
    num, den = -sum(cost[j - 1] for j in S), cost_scale
    for im in ci.curves:
        # Read off the module, so a wrapper set there (a tracer's, a test's)
        # sees these walks and solve-multiplatform-agent's alike.
        selected, _, D = multiplatform.greedy_walk(im.entries, im.A, im.B, S)
        rev = sum(im.dw[s - 1] for s, e in selected.items() if e.own)
        if rev:
            num, den = num * D + rev * den, den * D
    return num, den

