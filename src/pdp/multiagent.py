"""Designer optimization against several agents, optionally with
pre-existing external platforms owned by competitors.

Both solvers guess, per agent, a utility window [theta_next, theta) and a
denominator D, then run a hashed subset DP whose slots record the exact
numerator/denominator shifts each candidate set induces.  A slot is kept
only when it is consistent with the guess, which makes the slot value
equal the true profit.

One core, `_threshold_dp`, runs that DP for both solvers.  A solver hands
it, per agent and threshold guess, the candidates the agent picks, the
utility numerator and denominator without them (a_hat, b_hat), and the
shift each pick adds (sigma, tau); the multi-agent case is a_hat = A,
b_hat = B, sigma = z*phi, tau = z.  Everything that depends on the guess
alone (slot steps, reachable D, consistency bounds) is worked out once
per agent and guess.  Slot keys and slot values are integers: for each D
the value coefficients share one integer denominator, and consistency
is an integer window on the numerator counter, so a `Fraction` is made
only for the returned profit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .agent import adopted_response
from .core import DerivedParams, FlowerInstance, derived_params, scale_to_integers
from .designer import DesignSet, QuantizationError
from .multiplatform import ParetoCurve, Platform, multi_greedy_solve, prune_redundant


class GuardExceeded(ValueError):
    """The (theta, D) grid is larger than the configured budget."""


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

    @cached_property
    def params(self) -> tuple[DerivedParams, ...]:
        """Each agent's derived parameters, computed once per instance."""
        return tuple(derived_params(a) for a in self.agents)


def check_quantization_steps(delta: Fraction, delta_prime: Fraction) -> None:
    """Both quantization steps must be positive; the builders divide by them."""
    for name, value in (("delta", delta), ("delta_prime", delta_prime)):
        if value <= 0:
            raise QuantizationError(f"{name} = {value} must be positive")


def build_multi_agent_instance(
    agents, delta: Fraction, delta_prime: Fraction, m_ceiling: int = 10**6
) -> MultiAgentInstance:
    check_quantization_steps(delta, delta_prime)
    agents = tuple(agents)
    if not agents:
        raise ValueError("need at least one agent")
    n = agents[0].n
    for a in agents:
        if a.n != n:
            raise ValueError("all agents must share the state set")
        if a.cost != agents[0].cost:
            raise ValueError("platform costs must be shared across agents")
    mi = MultiAgentInstance(agents, delta, delta_prime)
    for i, dp in enumerate(mi.params, 1):
        for j in range(1, n + 1):
            l = dp.z[j - 1] / delta
            lp = dp.phi[j - 1] / delta_prime
            if l.denominator != 1 or l <= 0:
                raise QuantizationError(
                    f"agent {i}: z[{j}] = {dp.z[j - 1]} is not a positive multiple of {delta}"
                )
            if lp.denominator != 1 or lp < 0:
                raise QuantizationError(
                    f"agent {i}: phi[{j}] = {dp.phi[j - 1]} is not a nonnegative multiple of {delta_prime}"
                )
            if max(int(l), int(lp)) > m_ceiling:
                raise QuantizationError(
                    f"agent {i}, state {j}: quantization level exceeds {m_ceiling}"
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


def _ceil(x: Fraction) -> int:
    return -(-x.numerator // x.denominator)


@dataclass(frozen=True)
class AgentView:
    """One agent under one threshold guess, as a solver describes it.

    member[j] says whether the agent picks the designer's candidate at
    state j+1; a_hat and b_hat are the agent's utility numerator and
    denominator without those picks; picking state j+1 adds sigma[j] to
    the numerator and tau[j] to the denominator.
    """

    member: tuple[bool, ...]
    a_hat: Fraction
    b_hat: Fraction
    sigma: tuple[Fraction, ...]
    tau: tuple[Fraction, ...]


@dataclass(frozen=True)
class AgentGuess:
    """An AgentView over integers, with everything the DP needs from it.

    a_steps[j] and b_steps[j] are the slot-key shifts of picking state
    j+1 (sigma / (delta*delta') and tau / delta; 0 for a state not
    picked); bad lists the picked states whose shifts are not whole.
    dw[j] is d_j*w_j*L and options holds, per reachable denominator
    D = b_hat + level*delta in increasing order, (level, D*L, lo, hi):
    a slot with these counters is consistent iff its denominator counter
    equals level and lo <= its numerator counter <= hi (hi None: no
    upper bound).  L is one integer scale for dw and every D.
    """

    member: tuple[bool, ...]
    a_steps: tuple[int, ...]
    b_steps: tuple[int, ...]
    bad: tuple[int, ...]
    dw: tuple[int, ...]
    options: tuple[tuple[int, int, int, int | None], ...]


def agent_guess(view: AgentView, dw, theta, theta_next, delta: Fraction, dd: Fraction) -> AgentGuess:
    """The AgentGuess of `view` under the window [theta_next, theta); dw
    holds the agent's d_j*w_j and dd is delta*delta_prime."""
    a_steps, b_steps, bad = [], [], []
    for j, picked in enumerate(view.member):
        a = view.sigma[j] / dd if picked else Fraction(0)
        b = view.tau[j] / delta if picked else Fraction(0)
        if a.denominator != 1 or b.denominator != 1:
            bad.append(j + 1)
        a_steps.append(int(a))
        b_steps.append(int(b))
    _, (b_hat_L, delta_L), dw = scale_to_integers((view.b_hat, delta), dw)
    scaled = (view.member, tuple(a_steps), tuple(b_steps), tuple(bad), dw)
    if bad:
        return AgentGuess(*scaled, ())
    levels = {0}
    for b, picked in zip(b_steps, view.member):
        if picked:
            levels |= {s + b for s in levels}
    options = []
    for level in sorted(levels):
        D = view.b_hat + level * delta
        lo = _ceil((theta_next * D - view.a_hat) / dd)
        hi = None if theta is INF else _ceil((theta * D - view.a_hat) / dd) - 1
        options.append((level, b_hat_L + level * delta_L, lo, hi))
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


def _threshold_dp(mi: MultiAgentInstance, grids, view) -> DesignSet:
    """Best consistent slot over every (theta, D) guess.

    grids[i] is agent i's theta grid (see theta_grid) and view(i, theta,
    theta_next) its AgentView under a guess.  Ties break toward the
    lexicographically smallest state tuple.
    """
    k = mi.k
    dd = mi.delta * mi.delta_prime
    cost_scale, cost = scale_to_integers(mi.cost)
    guesses = []
    for i, (grid, a, dp) in enumerate(zip(grids, mi.agents, mi.params)):
        dw = [d * w for d, w in zip(a.d, dp.w)]
        guesses.append(
            [
                agent_guess(view(i, theta, theta_next), dw, theta, theta_next, mi.delta, dd)
                for theta, theta_next in _windows(grid)
            ]
        )

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
        for option in itertools.product(*(g.options for g in combo)):
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
            levels = tuple(o[0] for o in option)
            for key, (val, states) in table.items():
                if key[k:] != levels:
                    continue
                if all(
                    lo <= a and (hi is None or a <= hi)
                    for a, (_, _, lo, hi) in zip(key, option)
                ):
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


def multi_agent_solve(mi: MultiAgentInstance, budget: int = 10**6) -> DesignSet:
    """Exact optimum of the shared-cost multi-agent design problem."""
    dps = mi.params
    grids = [theta_grid(dp.phi) for dp in dps]
    # The budget counts every guess of theta and of D = B + l*delta with
    # l up to n * (largest z level), reachable or not.
    total = math.prod(len(g) for g in grids) * math.prod(
        mi.n * max(int(z / mi.delta) for z in dp.z) + 1 for dp in dps
    )
    if total > budget:
        raise GuardExceeded(f"(theta, D) grid size {total} exceeds budget {budget}")
    shifts = [(tuple(z * phi for z, phi in zip(dp.z, dp.phi)), dp.z) for dp in dps]

    def view(i, theta, theta_next):
        dp = dps[i]
        member = tuple(theta is not INF and phi >= theta for phi in dp.phi)
        return AgentView(member, dp.A, dp.B, *shifts[i])

    return _threshold_dp(mi, grids, view)


@dataclass(frozen=True)
class ExternalPlatform:
    """A competitor-owned platform: per-agent occupancy shift and potential."""

    id: object
    state: int
    z: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]
    owner: object = "external"


_OWN = "own"


@dataclass(frozen=True)
class AgentCurves:
    """One agent's side of a competitive instance: its derived parameters,
    the Pareto curves of the externals alone, and the curves with the
    designer's candidate inserted at every state."""

    dp: DerivedParams
    base: dict[int, ParetoCurve]
    with_own: dict[int, ParetoCurve]


@dataclass(frozen=True)
class CompetitiveInstance:
    mi: MultiAgentInstance
    externals: tuple[ExternalPlatform, ...]

    @cached_property
    def curves(self) -> tuple[AgentCurves, ...]:
        """Per-agent curves, pruned once per instance.  A state's curve
        depends only on the platforms at that state, so the curves over
        the externals plus an offered set S are base outside S and
        with_own inside it."""
        out = []
        for i, dp in enumerate(self.mi.params):
            ext = [
                Platform(pl.id, pl.state, pl.z[i], pl.phi[i], pl.owner) for pl in self.externals
            ]
            own = [
                Platform((_OWN, j), j, dp.z[j - 1], dp.phi[j - 1], _OWN)
                for j in range(1, self.mi.n + 1)
            ]
            base = prune_redundant(ext) if ext else {}
            out.append(AgentCurves(dp, base, prune_redundant(ext + own)))
        return tuple(out)


def build_competitive_instance(mi: MultiAgentInstance, externals) -> CompetitiveInstance:
    externals = tuple(externals)
    k = mi.k
    for pl in externals:
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


def competitive_profit(ci: CompetitiveInstance, S) -> Fraction:
    """Ground truth: each agent picks over externals plus the offered
    candidates; the designer earns only from its own adopted platforms."""
    S = frozenset(S)
    mi = ci.mi
    profit = -sum((mi.cost[j - 1] for j in S), Fraction(0))
    for a, ac in zip(mi.agents, ci.curves):
        curves = {s: ac.with_own[s] for s in S}
        curves.update((s, curve) for s, curve in ac.base.items() if s not in S)
        if not curves:
            continue
        sel = multi_greedy_solve(curves, ac.dp.A, ac.dp.B)
        den = ac.dp.B + sum((pl.z for pl in sel.platforms), Fraction(0))
        own_rev = sum(
            (a.d[pl.state - 1] * ac.dp.w[pl.state - 1] for pl in sel.platforms if pl.owner == _OWN),
            Fraction(0),
        )
        profit += own_rev / den
    return profit


def _competitive_view(ac: AgentCurves, n: int, theta, theta_next) -> AgentView:
    """The fallback selection on the external curves, the own candidates
    picked on the inserted curves, and the shifts each pick makes."""
    fall = {}
    for s, curve in ac.base.items():
        pick = None
        for idx, pl in enumerate(curve.platforms):
            if theta is not INF and curve.psi[idx] >= theta:
                pick = pl
        fall[s] = pick
    a_hat = ac.dp.A + sum((pl.z * pl.phi for pl in fall.values() if pl), Fraction(0))
    b_hat = ac.dp.B + sum((pl.z for pl in fall.values() if pl), Fraction(0))
    member = [False] * n
    sigma = [Fraction(0)] * n
    tau = [Fraction(0)] * n
    for s, curve in ac.with_own.items():
        for idx, pl in enumerate(curve.platforms):
            if pl.owner != _OWN:
                continue
            selected = (
                theta is not INF
                and curve.psi[idx] >= theta
                and (idx + 1 == len(curve.platforms) or curve.slopes[idx] <= theta_next)
            )
            if selected:
                f = fall.get(s)
                j = pl.state
                member[j - 1] = True
                sigma[j - 1] = pl.z * pl.phi - (f.z * f.phi if f else 0)
                tau[j - 1] = pl.z - (f.z if f else 0)
    return AgentView(tuple(member), a_hat, b_hat, tuple(sigma), tuple(tau))


def competitive_solve(ci: CompetitiveInstance, budget: int = 10**6) -> DesignSet:
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
    if total > budget:
        raise GuardExceeded(f"theta grid size {total} exceeds budget {budget}")

    def view(i, theta, theta_next):
        return _competitive_view(curves[i], ci.mi.n, theta, theta_next)

    return _threshold_dp(ci.mi, grids, view)
