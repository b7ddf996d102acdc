"""Designer optimization against several agents, optionally with
pre-existing external platforms owned by competitors.

Both solvers guess, per agent, a utility window (theta', theta] and a
denominator D, then run a hashed subset DP whose slots record the exact
numerator/denominator shifts each candidate set induces.  A slot is kept
only when it is consistent with the guess, which makes the slot value
equal the true profit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .agent import adopted_response
from .core import FlowerInstance, derived_params
from .designer import DesignSet, QuantizationError
from .multiplatform import Platform, multi_greedy_solve, prune_redundant


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
    for i, a in enumerate(agents, 1):
        dp = derived_params(a)
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
    return MultiAgentInstance(agents, delta, delta_prime)


INF = None  # theta value meaning "adopt nothing"


@dataclass(frozen=True)
class CandidateGrids:
    """Per-agent guess grids for the threshold DP.

    The denominator grid is materialized (its size is driven by the z
    quantization levels only); the numerator grid {A_i + l*delta*delta'}
    can be astronomically large under fine potential quantization, so
    only its level bound is stored.
    """

    phi_grid: tuple[tuple[Fraction | None, ...], ...]
    d_grid: tuple[tuple[Fraction, ...], ...]
    n_levels: tuple[int, ...]


def candidate_grids(mi: MultiAgentInstance) -> CandidateGrids:
    phi_grids = []
    d_grids = []
    n_levels = []
    n = mi.n
    for a in mi.agents:
        dp = derived_params(a)
        phis = sorted(set(dp.phi), reverse=True)
        phi_grids.append((INF, *phis))
        z_levels = [int(z / mi.delta) for z in dp.z]
        p_levels = [int(phi / mi.delta_prime) for phi in dp.phi]
        d_grids.append(tuple(dp.B + l * mi.delta for l in range(n * max(z_levels) + 1)))
        n_levels.append(sum(l * lp for l, lp in zip(z_levels, p_levels)))
    return CandidateGrids(tuple(phi_grids), tuple(d_grids), tuple(n_levels))


def _successor(grid, theta):
    """Next smaller guess: INF steps to the largest potential; the
    smallest potential steps to -1."""
    values = [v for v in grid if v is not INF]
    if theta is INF:
        return values[0]
    if theta == values[-1]:
        return Fraction(-1)
    return values[values.index(theta) + 1]


def value_coefficients(mi: MultiAgentInstance, theta, D) -> tuple[Fraction, ...]:
    """Per-state marginal value under guessed thresholds and denominators."""
    n = mi.n
    coeffs = []
    dps = [derived_params(a) for a in mi.agents]
    for j in range(1, n + 1):
        c = -mi.cost[j - 1]
        for i, (a, dp) in enumerate(zip(mi.agents, dps)):
            if theta[i] is not INF and dp.phi[j - 1] >= theta[i]:
                c += a.d[j - 1] * dp.w[j - 1] / D[i]
        coeffs.append(c)
    return tuple(coeffs)


def multi_agent_profit(mi: MultiAgentInstance, S) -> Fraction:
    """Ground-truth profit of offering S: each agent responds greedily."""
    S = frozenset(S)
    profit = -sum((mi.cost[j - 1] for j in S), Fraction(0))
    for a in mi.agents:
        dp = derived_params(a)
        adopted = adopted_response(a, S)
        den = dp.B + sum((dp.z[j - 1] for j in adopted), Fraction(0))
        profit += sum((a.d[j - 1] * dp.w[j - 1] for j in adopted), Fraction(0)) / den
    return profit


def multi_agent_solve(mi: MultiAgentInstance, budget: int = 10**6) -> DesignSet:
    """Exact optimum of the shared-cost multi-agent design problem."""
    n = mi.n
    k = mi.k
    dps = [derived_params(a) for a in mi.agents]
    grids = candidate_grids(mi)
    total = math.prod(len(g) for g in grids.phi_grid) * math.prod(
        len(g) for g in grids.d_grid
    )
    if total > budget:
        raise GuardExceeded(f"(theta, D) grid size {total} exceeds budget {budget}")

    levels = [[int(dp.z[j] / mi.delta) for j in range(n)] for dp in dps]
    plevels = [[int(dp.phi[j] / mi.delta_prime) for j in range(n)] for dp in dps]

    best: tuple[Fraction, tuple[int, ...]] | None = None
    for theta in itertools.product(*grids.phi_grid):
        theta_next = [_successor(grids.phi_grid[i], theta[i]) for i in range(k)]
        member = [
            [theta[i] is not INF and dps[i].phi[j] >= theta[i] for j in range(n)]
            for i in range(k)
        ]
        # Only denominators reachable as B_i + (subset sum over Q_i) are
        # worth guessing; others can never produce a consistent slot.
        reachable = []
        for i in range(k):
            sums = {0}
            for j in range(n):
                if member[i][j]:
                    sums |= {s + levels[i][j] for s in sums}
            reachable.append({dps[i].B + s * mi.delta for s in sums})
        d_options = [
            [d for d in grids.d_grid[i] if d in reachable[i]] for i in range(k)
        ]
        for D in itertools.product(*d_options):
            coeffs = value_coefficients(mi, theta, D)
            table: dict[tuple[int, ...], tuple[Fraction, tuple[int, ...]]] = {
                (0,) * (2 * k): (Fraction(0), ())
            }
            for t in range(1, n + 1):
                for key, (val, states) in list(table.items()):
                    new_key = list(key)
                    for i in range(k):
                        if member[i][t - 1]:
                            new_key[i] += levels[i][t - 1] * plevels[i][t - 1]
                            new_key[k + i] += levels[i][t - 1]
                    new_key = tuple(new_key)
                    new_val = val + coeffs[t - 1]
                    cand = (new_val, states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            for key, (val, states) in table.items():
                ok = True
                for i in range(k):
                    a_i = key[i]
                    b_i = key[k + i]
                    if D[i] != dps[i].B + b_i * mi.delta:
                        ok = False
                        break
                    u = (dps[i].A + a_i * mi.delta * mi.delta_prime) / D[i]
                    if not u >= theta_next[i]:
                        ok = False
                        break
                    if theta[i] is not INF and not theta[i] > u:
                        ok = False
                        break
                if ok and (best is None or val > best[0] or (val == best[0] and states < best[1])):
                    best = (val, states)
    return _best_design(best)


def _best_design(best: tuple[Fraction, tuple[int, ...]] | None) -> DesignSet:
    # Each agent's windows [theta_next, theta) cover every utility >= -1,
    # so the guess whose windows hold the agents' responses to the empty
    # offer keeps that offer as a consistent slot.
    if best is None:
        raise RuntimeError("the threshold DP found no consistent (theta, D) guess")
    return DesignSet(frozenset(best[1]), best[0])


@dataclass(frozen=True)
class ExternalPlatform:
    """A competitor-owned platform: per-agent occupancy shift and potential."""

    id: object
    state: int
    z: tuple[Fraction, ...]
    phi: tuple[Fraction, ...]
    owner: object = "external"


@dataclass(frozen=True)
class CompetitiveInstance:
    mi: MultiAgentInstance
    externals: tuple[ExternalPlatform, ...]


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


_OWN = "own"


def _agent_curves(ci: CompetitiveInstance, i: int):
    """Pareto curves for agent i: externals only, and with the designer's
    candidate inserted, per state."""
    mi = ci.mi
    dp = derived_params(mi.agents[i])
    ext = [
        Platform(pl.id, pl.state, pl.z[i], pl.phi[i], pl.owner) for pl in ci.externals
    ]
    own = [
        Platform((_OWN, j), j, dp.z[j - 1], dp.phi[j - 1], _OWN)
        for j in range(1, mi.n + 1)
    ]
    base = prune_redundant(ext) if ext else {}
    with_own = prune_redundant(ext + own)
    return base, with_own


def competitive_profit(ci: CompetitiveInstance, S) -> Fraction:
    """Ground truth: each agent picks over externals plus the offered
    candidates; the designer earns only from its own adopted platforms."""
    S = frozenset(S)
    mi = ci.mi
    profit = -sum((mi.cost[j - 1] for j in S), Fraction(0))
    for i, a in enumerate(mi.agents):
        dp = derived_params(a)
        pool = [
            Platform(pl.id, pl.state, pl.z[i], pl.phi[i], pl.owner)
            for pl in ci.externals
        ]
        pool += [
            Platform((_OWN, j), j, dp.z[j - 1], dp.phi[j - 1], _OWN) for j in S
        ]
        if not pool:
            continue
        sel = multi_greedy_solve(prune_redundant(pool), dp.A, dp.B)
        den = dp.B + sum((pl.z for pl in sel.platforms), Fraction(0))
        own_rev = sum(
            (a.d[pl.state - 1] * dp.w[pl.state - 1] for pl in sel.platforms if pl.owner == _OWN),
            Fraction(0),
        )
        profit += own_rev / den
    return profit


def competitive_solve(ci: CompetitiveInstance, budget: int = 10**6) -> DesignSet:
    """Exact optimum when agents also see competitor-owned platforms."""
    mi = ci.mi
    n = mi.n
    k = mi.k
    dps = [derived_params(a) for a in mi.agents]
    dd = mi.delta * mi.delta_prime

    curves = [_agent_curves(ci, i) for i in range(k)]

    phi_grids = []
    for i in range(k):
        base, with_own = curves[i]
        vals = set()
        for curve in list(base.values()) + list(with_own.values()):
            vals.update(curve.psi)
        phi_grids.append((INF, *sorted(vals, reverse=True)))

    total = math.prod(len(g) for g in phi_grids)
    if total > budget:
        raise GuardExceeded(f"theta grid size {total} exceeds budget {budget}")

    best: tuple[Fraction, tuple[int, ...]] | None = None
    for theta in itertools.product(*phi_grids):
        theta_next = [_successor(phi_grids[i], theta[i]) for i in range(k)]
        # Per agent: fallback selection on the external curves, the set Q
        # of own candidates picked on the inserted curves, and the sigma/
        # tau bookkeeping shifts.
        a_hat = []
        b_hat = []
        member = []
        sigma = []
        tau = []
        for i in range(k):
            base, with_own = curves[i]
            fall = {}
            for s, curve in base.items():
                pick = None
                for idx, pl in enumerate(curve.platforms):
                    if theta[i] is not INF and curve.psi[idx] >= theta[i]:
                        pick = pl
                fall[s] = pick
            a_hat.append(
                dps[i].A
                + sum((pl.z * pl.phi for pl in fall.values() if pl), Fraction(0))
            )
            b_hat.append(
                dps[i].B + sum((pl.z for pl in fall.values() if pl), Fraction(0))
            )
            mem = [False] * n
            sig = [Fraction(0)] * n
            ta = [Fraction(0)] * n
            for s, curve in with_own.items():
                for idx, pl in enumerate(curve.platforms):
                    if pl.owner != _OWN:
                        continue
                    selected = (
                        theta[i] is not INF
                        and curve.psi[idx] >= theta[i]
                        and (
                            idx + 1 == len(curve.platforms)
                            or curve.slopes[idx] <= theta_next[i]
                        )
                    )
                    if selected:
                        f = fall.get(s)
                        fz = f.z if f else Fraction(0)
                        fphi = f.phi if f else Fraction(0)
                        j = pl.state
                        mem[j - 1] = True
                        sig[j - 1] = pl.z * pl.phi - fz * fphi
                        ta[j - 1] = pl.z - fz
            member.append(mem)
            sigma.append(sig)
            tau.append(ta)

        d_options = []
        for i in range(k):
            sums = {Fraction(0)}
            for j in range(n):
                if member[i][j]:
                    sums |= {s + tau[i][j] for s in sums}
            d_options.append(sorted({b_hat[i] + s for s in sums}))

        for D in itertools.product(*d_options):
            coeffs = []
            for j in range(1, n + 1):
                c = -mi.cost[j - 1]
                for i in range(k):
                    if member[i][j - 1]:
                        c += mi.agents[i].d[j - 1] * dps[i].w[j - 1] / D[i]
                coeffs.append(c)
            table: dict[tuple[int, ...], tuple[Fraction, tuple[int, ...]]] = {
                (0,) * (2 * k): (Fraction(0), ())
            }
            for t in range(1, n + 1):
                for key, (val, states) in list(table.items()):
                    new_key = list(key)
                    for i in range(k):
                        if member[i][t - 1]:
                            a_step = sigma[i][t - 1] / dd
                            b_step = tau[i][t - 1] / mi.delta
                            if a_step.denominator != 1 or b_step.denominator != 1:
                                raise QuantizationError(
                                    f"agent {i + 1}, state {t}: the slot shifts are not whole"
                                    " multiples of delta * delta_prime and delta"
                                )
                            new_key[i] += int(a_step)
                            new_key[k + i] += int(b_step)
                    new_key = tuple(new_key)
                    cand = (val + coeffs[t - 1], states + (t,))
                    old = table.get(new_key)
                    if old is None or cand[0] > old[0] or (
                        cand[0] == old[0] and cand[1] < old[1]
                    ):
                        table[new_key] = cand
            for key, (val, states) in table.items():
                ok = True
                for i in range(k):
                    a_i = key[i]
                    b_i = key[k + i]
                    if D[i] != b_hat[i] + b_i * mi.delta:
                        ok = False
                        break
                    u = (a_hat[i] + a_i * dd) / D[i]
                    if not u >= theta_next[i]:
                        ok = False
                        break
                    if theta[i] is not INF and not theta[i] > u:
                        ok = False
                        break
                if ok and (best is None or val > best[0] or (val == best[0] and states < best[1])):
                    best = (val, states)
    return _best_design(best)
