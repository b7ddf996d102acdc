"""Designer optimization against several agents, optionally with
pre-existing external platforms owned by competitors.

Both solvers guess, per agent, a utility window [theta_next, theta) and a
denominator D, then run a hashed subset DP whose slots record the exact
numerator/denominator shifts each candidate set induces.  A slot is kept
only when it is consistent with the guess, which makes the slot value
equal the true profit.

One core, `_threshold_dp`, runs that DP.  The multi-agent problem is the
competitive one with no rival platforms, so `multi_agent_solve` checks its
(theta, D) budget and hands the instance to `competitive_solve`.  Each
agent's Pareto curves have one integer image (`CurveImage`), built with
the competitive instance's curves.  Per agent and threshold guess,
`agent_guess` reads off that image the candidates the agent picks, its
utility numerator and denominator without them (a_hat, b_hat), and the
shift each pick adds (sigma, tau); with no rival platforms a_hat = A,
b_hat = B, sigma = z*phi, tau = z.  `competitive_profit` walks the same
image.
Everything that depends on the guess alone (slot steps, reachable D,
consistency bounds) is worked out once per agent and guess.  Slot keys
and slot values are integers: for each D the value coefficients share
one integer denominator, and consistency is an integer window on the
numerator counter, so a `Fraction` is made only for the returned profit.

The slot keys depend on the theta guesses alone; only the values depend
on D.  So per combination of theta guesses a key-only pass first builds
the set of reachable keys, which is exactly the key set of every valued
table, and groups their numerator counters by denominator counters.  A
key's denominator counters fix the one D option it can match, and the
valued DP runs only on the options with a key inside their windows:
any other option could not yield a consistent slot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .agent import TooLarge, adopted_response
from .core import DerivedParams, FlowerInstance, as_pair, product_pair, scale_to_integers
from .designer import DesignSet, QuantizationError
from .multiplatform import ParetoCurve, Platform, prune_redundant


# The largest quantization level z/delta or phi/delta_prime an instance may have.
_LEVEL_CEILING = 10**12
# The most guesses multi_agent_solve and competitive_solve may walk.
_GRID_BUDGET = 10**6


@dataclass(frozen=True)
class MultiAgentInstance:
    """Several agents over one state set; the designer pays shared costs.

    Every z_ij must be a positive integer multiple of delta and every
    potential phi_i(j) a nonnegative integer multiple of delta_prime.
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
    (dn, dd), (dpn, dpd) = as_pair(delta), as_pair(delta_prime)
    for i, dp in enumerate(mi.params, 1):
        for j, ((zn, zd), (fn, fd)) in enumerate(zip(dp.pairs.z, dp.pairs.phi), 1):
            l, l_rest = divmod(zn * dd, zd * dn)
            lp, lp_rest = divmod(fn * dpd, fd * dpn)
            if l_rest or l <= 0:
                raise QuantizationError(
                    f"agent {i}: z[{j}] = {dp.z[j - 1]} is not a positive multiple of {delta}"
                )
            if lp_rest or lp < 0:
                raise QuantizationError(
                    f"agent {i}: phi[{j}] = {dp.phi[j - 1]} is not a nonnegative multiple of {delta_prime}"
                )
            if max(l, lp) > _LEVEL_CEILING:
                raise QuantizationError(
                    f"agent {i}, state {j}: quantization level exceeds {_LEVEL_CEILING}"
                )
    return mi


INF = None  # theta value meaning "adopt nothing"


def theta_grid(values) -> tuple:
    """An agent's threshold guesses: INF, then the distinct values descending."""
    return (INF, *sorted(set(values), reverse=True))


def _windows(grid):
    """(theta, theta_next) per guess, so the guesses' windows
    [theta_next, theta) cover every utility >= -1."""
    return zip(grid, (*grid[1:], Fraction(-1)))


@dataclass(frozen=True)
class AgentGuess:
    """One agent under one threshold guess, over integers, with everything
    the DP needs from it.

    member[j] says whether the agent picks the designer's candidate at
    state j+1.  a_hat and b_hat are the agent's utility numerator and
    denominator without those picks, and picking state j+1 adds sigma[j]
    to the numerator and tau[j] to the denominator.  a_steps[j] and
    b_steps[j] are the slot-key shifts sigma / (delta*delta') and
    tau / delta (0 for a state not picked); bad lists the picked states
    whose shifts are not whole.  dw[j] is d_j*w_j*L and options holds,
    per reachable denominator D = b_hat + level*delta in increasing
    order, (level, D*L, lo, hi): a slot with these counters is
    consistent iff its denominator counter equals level and lo <= its
    numerator counter <= hi (hi None: no upper bound).  L is the scale of
    the agent's CurveImage.
    """

    member: tuple[bool, ...]
    a_steps: tuple[int, ...]
    b_steps: tuple[int, ...]
    bad: tuple[int, ...]
    dw: tuple[int, ...]
    options: tuple[tuple[int, int, int, int | None], ...]


def agent_guess(ac: AgentCurves, theta, theta_next, dd: Fraction) -> AgentGuess:
    """The AgentGuess of one agent under the window [theta_next, theta),
    read off the agent's CurveImage; dd is delta*delta_prime.

    The agent's fallback is its selection on the rival curves alone; it
    picks the designer's candidate at a state when the candidate is the
    selected point of that state's inserted curve, which replaces the
    fallback there.  Each psi >= theta test reads psi_num * theta_den >=
    theta_num * psi_den, as both denominators are positive.
    """
    im = ac.image
    n_num, n_den = theta_next.numerator, theta_next.denominator
    fall = {}
    if theta is not INF:
        t_num, t_den = theta.numerator, theta.denominator
        for s, curve in im.base.items():
            pick = None
            for e in curve:
                if e.psi * t_den >= t_num * e.psi_den:
                    pick = e
            fall[s] = pick
    a_hat = im.A + sum(f.zphi for f in fall.values() if f)
    b_hat = im.B + sum(f.z for f in fall.values() if f)
    n = len(im.dw)
    dd_num, dd_den = dd.numerator, dd.denominator
    scale = im.L * dd_num
    member = [False] * n
    a_steps, b_steps, bad = [0] * n, [0] * n, []
    if theta is not INF:
        for s, curve in im.with_own.items():
            for idx, e in enumerate(curve):
                if not (e.own and e.psi * t_den >= t_num * e.psi_den):
                    continue
                if idx + 1 < len(curve) and curve[idx + 1].psi * n_den > n_num * curve[idx + 1].psi_den:
                    continue
                f = fall.get(s)
                # sigma / dd and tau / delta, both taken at scale L.
                a, a_rest = divmod((e.zphi - (f.zphi if f else 0)) * dd_den, scale)
                b, b_rest = divmod(e.z - (f.z if f else 0), im.delta)
                if a_rest or b_rest:
                    bad.append(s)
                member[s - 1] = True
                a_steps[s - 1], b_steps[s - 1] = a, b
    scaled = (tuple(member), tuple(a_steps), tuple(b_steps), tuple(bad), im.dw)
    if bad:
        return AgentGuess(*scaled, ())
    levels = {0}
    for b, picked in zip(b_steps, member):
        if picked:
            levels |= {s + b for s in levels}
    # With numerator counter c the utility is (a_hat + c*dd*L) / D over L,
    # which is >= t = t_num / t_den iff c >= (t_num*D - t_den*a_hat) * dd_den
    # / (t_den * L * dd_num): lo is that bound's ceiling at theta_next, and
    # hi one less than it at theta.
    options = []
    for level in sorted(levels):
        D = b_hat + level * im.delta
        lo = -((n_den * a_hat - n_num * D) * dd_den // (n_den * scale))
        hi = None
        if theta is not INF:
            hi = -((t_den * a_hat - t_num * D) * dd_den // (t_den * scale)) - 1
        options.append((level, D, lo, hi))
    return AgentGuess(*scaled, tuple(options))


def slot_coefficients(guesses, option, cost, cost_scale: int) -> tuple[tuple[int, ...], int]:
    """Per-state marginal values under one (theta, D) guess, as integer
    numerators over one positive denominator M.

    The value of state j is -cost_j plus d_ij*w_ij / D_i for every agent
    i that picks it; cost holds the costs times cost_scale.
    """
    denominators = [o[1] for o in option]
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


def _in_windows(numerators, option) -> bool:
    """Whether each agent's numerator counter lies in its option's window."""
    return all(
        lo <= a and (hi is None or a <= hi) for a, (_, _, lo, hi) in zip(numerators, option)
    )


def _threshold_dp(ci: CompetitiveInstance, grids) -> DesignSet:
    """Best consistent slot over every (theta, D) guess.

    grids[i] is agent i's theta grid (see theta_grid).  Ties break toward
    the lexicographically smallest state tuple.
    """
    mi = ci.mi
    k = mi.k
    dd = mi.delta * mi.delta_prime
    cost_scale, cost = mi.integer_cost
    guesses = [
        [agent_guess(ac, theta, theta_next, dd) for theta, theta_next in _windows(grid)]
        for grid, ac in zip(grids, ci.curves)
    ]

    best = None  # (value numerator, its denominator, states)
    for combo in itertools.product(*guesses):
        bad = min(((t, i) for i, g in enumerate(combo) for t in g.bad), default=None)
        if bad is not None:
            raise QuantizationError(
                f"agent {bad[1] + 1}, state {bad[0]}: the slot shifts are not whole"
                " multiples of delta * delta_prime and delta"
            )
        steps = [
            tuple(g.a_steps[j] for g in combo) + tuple(g.b_steps[j] for g in combo)
            for j in range(mi.n)
        ]
        moves = [any(step) for step in steps]
        # Key-only pass: the valued table below holds exactly the keys
        # reachable over the moving states, so an option none of them is
        # consistent with cannot yield a candidate and is skipped.
        keys = {(0,) * (2 * k)}
        for step, move in zip(steps, moves):
            if move:
                keys |= {tuple(map(int.__add__, key, step)) for key in keys}
        numerators = {}
        for key in keys:
            numerators.setdefault(key[k:], []).append(key[:k])
        by_level = [{o[0]: o for o in g.options} for g in combo]
        for levels, nums in numerators.items():
            option = tuple(opts[level] for opts, level in zip(by_level, levels))
            if not any(_in_windows(a, option) for a in nums):
                continue
            coeffs, M = slot_coefficients(combo, option, cost, cost_scale)
            table = {(0,) * (2 * k): (0, ())}
            for t, (step, c) in enumerate(zip(steps, coeffs), 1):
                if not moves[t - 1] and c <= 0:
                    continue  # the slot stays put and the value cannot rise
                for key, (val, states) in list(table.items()):
                    new_key = tuple(map(int.__add__, key, step))
                    cand = (val + c, states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            for key, (val, states) in table.items():
                if key[k:] == levels and _in_windows(key, option):
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
    dps = mi.params
    grids = [theta_grid(dp.phi) for dp in dps]
    # The budget counts every guess of theta and of D = B + l*delta with
    # l up to n * (largest z level), reachable or not.
    total = math.prod(len(g) for g in grids) * math.prod(
        mi.n * max(int(z / mi.delta) for z in dp.z) + 1 for dp in dps
    )
    if total > _GRID_BUDGET:
        raise TooLarge(f"(theta, D) grid size {total} exceeds budget {_GRID_BUDGET}")
    return competitive_solve(CompetitiveInstance(mi, ()))


@dataclass(frozen=True)
class ExternalPlatform:
    """A competitor-owned platform: per-agent occupancy shift and potential."""

    id: object
    state: int
    z: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]
    owner: object = "external"


class CurveEntry(NamedTuple):
    """One point of a Pareto curve, in a CurveImage: the slope into it as
    psi / psi_den, its index idx on the curve of its state, z and z*phi
    times L, whether it is the designer's own candidate, and whether it
    comes from the curves with that candidate inserted."""

    psi: int
    psi_den: int
    state: int
    idx: int
    z: int
    zphi: int
    own: bool
    inserted: bool


class CurveImage(NamedTuple):
    """One agent's AgentCurves over one common denominator L.

    A, B, delta and dw (d_j * w_j per state) are the rational values times
    L, as are each entry's z and z*phi, so a selection's utility is
    (A + sum zphi) / (B + sum z) and the designer's revenue from it is
    (sum dw) / (B + sum z).  base and with_own hold each state's entries
    in curve order; entries holds both curve sets' entries in the greedy's
    order: psi descending, then state, then str(id).
    """

    L: int
    A: int
    B: int
    delta: int
    dw: tuple[int, ...]
    base: dict[int, tuple[CurveEntry, ...]]
    with_own: dict[int, tuple[CurveEntry, ...]]
    entries: tuple[CurveEntry, ...]


def curve_image(dp: DerivedParams, d, delta: Fraction, base, with_own) -> CurveImage:
    """The CurveImage of one agent's curves; d holds its rewards d_j."""
    points = [
        (psi, state, idx, pl, inserted)
        for inserted, curves in enumerate((base, with_own))
        for state, curve in curves.items()
        for idx, (pl, psi) in enumerate(zip(curve.platforms, curve.psi))
    ]
    L, (A, B, delta_L), dw, z, zphi = scale_to_integers(
        (dp.pairs.A, dp.pairs.B, delta),
        tuple(map(product_pair, d, dp.pairs.w)),
        [pl.z for _, _, _, pl, _ in points],
        [product_pair(pl.z, pl.phi) for _, _, _, pl, _ in points],
    )
    entries = [
        CurveEntry(psi.numerator, psi.denominator, state, idx, zi, zp, pl.own, bool(inserted))
        for (psi, state, idx, pl, inserted), zi, zp in zip(points, z, zphi)
    ]
    by_curve = ({}, {})
    for e in entries:
        by_curve[e.inserted].setdefault(e.state, []).append(e)
    # Both sorts are stable (reverse=True included), so this is the order of
    # the key (-psi, state, str(id)), and equal keys (one str(id) twice on a
    # curve) keep curve order, as in multi_greedy_solve.
    order = sorted(range(len(points)), key=lambda t: (points[t][1], str(points[t][3].id)))
    order.sort(key=lambda t: points[t][0], reverse=True)
    return CurveImage(
        L, A, B, delta_L, dw,
        *({s: tuple(es) for s, es in curves.items()} for curves in by_curve),
        tuple(entries[t] for t in order),
    )


@dataclass(frozen=True)
class AgentCurves:
    """One agent's side of a competitive instance: its derived parameters,
    the Pareto curves of the externals alone, the curves with the
    designer's candidate inserted at every state, and their integer image,
    which agent_guess and competitive_profit read."""

    dp: DerivedParams
    base: dict[int, ParetoCurve]
    with_own: dict[int, ParetoCurve]
    image: CurveImage


@dataclass(frozen=True)
class CompetitiveInstance:
    mi: MultiAgentInstance
    externals: tuple[ExternalPlatform, ...]

    def external_platforms(self, i: int) -> list[Platform]:
        """The external platforms as agent i (0-based) sees them."""
        return [Platform(pl.id, pl.state, pl.z[i], pl.phi[i]) for pl in self.externals]

    @cached_property
    def curves(self) -> tuple[AgentCurves, ...]:
        """Per-agent curves and their integer images, built once per
        instance.  A state's curve depends only on the platforms at that
        state, so the curves over the externals plus an offered set S are
        base outside S and with_own inside it."""
        out = []
        for i, (a, dp) in enumerate(zip(self.mi.agents, self.mi.params)):
            ext = self.external_platforms(i)
            own = [
                Platform(("own", j), j, dp.z[j - 1], dp.phi[j - 1], own=True)
                for j in range(1, self.mi.n + 1)
            ]
            base = prune_redundant(ext) if ext else {}
            with_own = prune_redundant(ext + own)
            image = curve_image(dp, a.pairs.d, self.mi.delta, base, with_own)
            out.append(AgentCurves(dp, base, with_own, image))
        return tuple(out)


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
        for i in range(k):
            l = pl.z[i] / mi.delta
            lp = pl.phi[i] / mi.delta_prime
            if pl.z[i] <= 0 or l.denominator != 1:
                raise QuantizationError(
                    f"external {pl.id!r}: z for agent {i + 1} is not a positive multiple of delta"
                )
            if lp.denominator != 1 or lp < 0:
                raise QuantizationError(
                    f"external {pl.id!r}: phi for agent {i + 1} is not a nonnegative multiple of delta'"
                )
    return CompetitiveInstance(mi, externals)


def _own_revenue(im: CurveImage, S: frozenset) -> tuple[int, int]:
    """The designer's revenue from one agent offered S, as (sum dw, its
    denominator B + sum z), both over L.

    The agent's exact response is the greedy of multi_greedy_solve over
    the with_own curves at the states of S and the base curves elsewhere.
    Its walk over the merged entries skips the other curve set at each
    state; a state never shows entries of both, so the walk sees the
    greedy's sorted entries in its order.  It stops once psi <= num / den,
    read as psi * den <= num * psi_den.
    """
    num, den = im.A, im.B
    selected: dict[int, CurveEntry] = {}
    for e in im.entries:
        if e.inserted != (e.state in S):
            continue
        if e.psi * den <= num * e.psi_den:
            break
        prev = selected.get(e.state)
        if prev is not None:
            if e.idx != prev.idx + 1:
                raise RuntimeError(
                    f"state {e.state}: curve entry {e.idx} follows entry {prev.idx}, not its predecessor"
                )
            num -= prev.zphi
            den -= prev.z
        selected[e.state] = e
        num += e.zphi
        den += e.z
    return sum(im.dw[s - 1] for s, e in selected.items() if e.own), den


def competitive_profit(ci: CompetitiveInstance, S) -> Fraction:
    """Ground truth: each agent picks over externals plus the offered
    candidates; the designer earns only from its own adopted platforms.
    Runs on the integer costs and curve images; the profit is the only
    Fraction."""
    S = frozenset(S)
    cost_scale, cost = ci.mi.integer_cost
    num, den = -sum(cost[j - 1] for j in S), cost_scale
    for ac in ci.curves:
        rev, D = _own_revenue(ac.image, S)
        if rev:
            num, den = num * D + rev * den, den * D
    return Fraction(num, den)


def competitive_solve(ci: CompetitiveInstance) -> DesignSet:
    """Exact optimum when agents also see competitor-owned platforms."""
    curves = ci.curves
    grids = [
        theta_grid(
            psi
            for curve in itertools.chain(ac.base.values(), ac.with_own.values())
            for psi in curve.psi
        )
        for ac in curves
    ]
    total = math.prod(len(g) for g in grids)
    if total > _GRID_BUDGET:
        raise TooLarge(f"theta grid size {total} exceeds budget {_GRID_BUDGET}")
    return _threshold_dp(ci, grids)
