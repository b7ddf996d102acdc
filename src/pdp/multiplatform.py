"""The agent's problem with several candidate platforms per state.

Redundant platforms are pruned down to a per-state Pareto curve: the
upper concave hull, from the origin, of the points (z, z*phi), up to its
highest point.  Of platforms with equal z only the highest phi is kept,
the smallest str(id) on equal phi and the first given on equal str(id).
The greedy then walks all curves by descending psi, swapping along each
curve, and stops when psi falls to the current utility.

Both are written once, over integers.  `_hull` is the one monotone chain
(Andrew 1979), with cross-multiplied slopes; `hull_points` puts platforms
over one scale as integer points, `state_run` lists one state's curve
points in the greedy's order, `merge_runs` merges the states' runs, and
`greedy_walk` walks them.  `select_platforms` reads the `ParetoCurve`s
and the greedy's selection off one `curve_entries` call (each half is
`prune_redundant` and `multi_greedy_solve`).  The competitive layer
(multiagent.py, and game.py, which keeps each state's run for a whole
search) walks each agent's curves with and without the designer's
candidates, for every profit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .core import SignError, TooLarge, product_pair, scale_to_integers

# The most selections multi_oracle enumerates.
_ORACLE_SELECTIONS = 10**6


class FeasibilityError(ValueError):
    """A platform selection picks two platforms for one state."""


@dataclass(frozen=True)
class Platform:
    """One candidate platform.  own marks the designer's own candidate,
    which no document can set."""

    id: object
    state: int
    z: Fraction
    phi: Fraction
    own: bool = False


@dataclass(frozen=True)
class ParetoCurve:
    """Surviving platforms of one state, ordered by increasing z.

    The points (z, z*phi) of the platforms are the vertices of the upper
    concave hull of the origin and every platform's point, up to the
    hull's highest point.  psi[i] is the slope into platform i: psi[0] is
    the first platform's phi (the slope from the origin), and for i > 0
    psi[i] is the slope (z*phi step over z step) from platform i - 1 to i.
    """

    state: int
    platforms: tuple[Platform, ...]
    psi: tuple[Fraction, ...]


@dataclass(frozen=True)
class SelectionResult:
    """At most one platform per state, with the utility achieved."""

    platforms: tuple[Platform, ...]
    utility: Fraction


class CurveEntry(NamedTuple):
    """One point of a Pareto curve, as state_run lists it: the slope into
    it as psi / psi_den (psi_den > 0, not reduced), its index idx on the
    curve of its state, z and z*phi times the common denominator L, the
    Platform _hull kept there, and whether it comes from the second curve
    set (the curves with the designer's candidate inserted)."""

    psi: int
    psi_den: int
    state: int
    idx: int
    z: int
    zphi: int
    platform: Platform
    inserted: bool


def _hull(points):
    """The Pareto curve of integer points (z, z*phi, str(id), platform) of
    one state, z > 0, by one monotone-chain pass: its points in curve
    order, and the slope into each as a pair (z*phi step, z step), from the
    origin for the first.  Of points with equal z it keeps the highest
    z*phi, then the smallest str(id), then the first given: the one place
    that decides which platform a curve point stands for.  It drops a point
    on or below the segment between its neighbours, and ends before the
    first slope <= 0.  Slopes are compared by cross-multiplying, as every z
    step is positive."""
    hull: list[tuple] = []
    psi: list[tuple[int, int]] = []
    for p in sorted(points, key=lambda p: (p[0], -p[1], p[2])):
        z, zphi = p[0], p[1]
        if hull and z == hull[-1][0]:
            continue
        # hull[-1] goes when it lies on or below the segment from its
        # predecessor (the origin for hull[0]) to p.
        while hull:
            num, den = zphi - hull[-1][1], z - hull[-1][0]
            if psi[-1][0] * den > num * psi[-1][1]:
                break
            hull.pop()
            psi.pop()
        psi.append((num, den) if hull else (zphi, z))
        hull.append(p)
    # The curve stops at the hull's highest point.
    while len(psi) > 1 and psi[-1][0] <= 0:
        hull.pop()
        psi.pop()
    return hull, psi


def _by_psi(entries: list[CurveEntry]) -> list[CurveEntry]:
    """entries sorted by psi descending; equal psi keep their order.  Two
    distinct slopes whose denominators are at most m differ by at least
    1 / m^2, so psi * m^2, rounded down, orders them as psi does and gives
    equal slopes equal keys."""
    m2 = max((e.psi_den for e in entries), default=0) ** 2
    entries.sort(key=lambda e: e.psi * m2 // e.psi_den, reverse=True)
    return entries


def state_run(state: int, point_sets) -> list[CurveEntry]:
    """The run of one state: the Pareto curve of each set of integer points
    (z*L, z*phi*L, str(id), platform) at the state, as CurveEntrys, those
    of every set after the first marked inserted, in the greedy's order:
    psi descending, then str(id), then the earlier set.  Each curve is
    _hull's: of equal z the highest z*phi, then the smallest str(id), then
    the first given, and each entry carries the platform of the point kept.
    Along each curve psi falls strictly, so each curve's entries appear in
    curve order."""
    tagged = []
    for inserted, points in enumerate(point_sets):
        hull, psi = _hull(points)
        for idx, ((z, zphi, sid, pl), (num, den)) in enumerate(zip(hull, psi)):
            tagged.append((sid, CurveEntry(num, den, state, idx, z, zphi, pl, inserted > 0)))
    tagged.sort(key=itemgetter(0))
    return _by_psi([e for _, e in tagged])


def merge_runs(runs) -> tuple[CurveEntry, ...]:
    """The entries of the runs, given in state order, in the greedy's
    order: psi descending, then state, then each run's own order."""
    return tuple(_by_psi([e for run in runs for e in run]))


def hull_points(platforms, *vectors):
    """(L, *scaled, points): the vectors, then every platform's z and z*phi,
    over one common denominator L, as scale_to_integers returns them, and
    each platform's point (z*L, z*phi*L, str(id), platform), the form
    state_run takes.  A z and a phi may be Fractions or Pairs."""
    L, *scaled, z, zphi = scale_to_integers(
        *vectors, [pl.z for pl in platforms], [product_pair(pl.z, pl.phi) for pl in platforms]
    )
    return (L, *scaled, [(zi, zp, str(pl.id), pl) for pl, zi, zp in zip(platforms, z, zphi)])


def curve_entries(platforms, *vectors):
    """(L, *scaled, entries, curves) for platforms of z > 0: the vectors and
    L as hull_points returns them; each state's Pareto curve (_hull), as
    the entries state_run and merge_runs list in the greedy's order; and the
    same curves as ParetoCurves, by state, each curve's platforms read off
    its entries."""
    platforms = tuple(platforms)
    for pl in platforms:
        if pl.z <= 0:
            raise SignError(f"platform {pl.id!r} has z = {pl.z} <= 0")
    L, *scaled, points = hull_points(platforms, *vectors)
    by_state: dict[int, list[tuple]] = {}
    for pl, point in zip(platforms, points):
        by_state.setdefault(pl.state, []).append(point)
    runs = {state: state_run(state, (points,)) for state, points in sorted(by_state.items())}
    curves = {}
    for state, run in runs.items():  # in curve order: a run of one curve
        pls = tuple(e.platform for e in run)
        curves[state] = ParetoCurve(state, pls, tuple(Fraction(e.psi, e.psi_den) for e in run))
    return (L, *scaled, merge_runs(runs.values()), curves)


def prune_redundant(platforms) -> dict[int, ParetoCurve]:
    """Reduce each state's platforms to its Pareto curve, as curve_entries
    prunes them; SignError if a z is <= 0.  No selection problem over the
    survivors has a lower optimal utility than over all platforms."""
    return curve_entries(platforms)[-1]


def select_platforms(platforms, A: Fraction, B: Fraction) -> tuple[dict, SelectionResult]:
    """The Pareto curves of the platforms (prune_redundant's) and the optimal
    feasible selection over them from the utility A / B (B > 0): the greedy
    walk over one curve set, offered nothing.  Both come from one
    curve_entries call."""
    _, (a, b), entries, curves = curve_entries(platforms, (A, B))
    selected, num, den = greedy_walk(entries, a, b, frozenset())
    chosen = tuple(e.platform for _, e in sorted(selected.items()))
    return curves, SelectionResult(chosen, Fraction(num, den))


def greedy_walk(entries, num: int, den: int, S) -> tuple[dict[int, CurveEntry], int, int]:
    """The agent's greedy response to the offer S from the utility num / den
    (den > 0), over entries in the order merge_runs lists: the selected entry
    per state, and the utility's final numerator and denominator.

    At the states of S the walk reads the inserted entries, elsewhere the
    others; a state never shows entries of both, so the walk sees one
    curve per state, in the greedy's order.  A state's first entry is
    added outright, and a later one replaces the previous (a swap along
    the curve), which must be its predecessor on the curve.  The walk
    stops at the first psi <= num / den, read as psi * den <= num * psi_den.
    """
    selected: dict[int, CurveEntry] = {}
    for e in entries:
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
    return selected, num, den


def multi_greedy_solve(curves: dict[int, ParetoCurve], A: Fraction, B: Fraction) -> SelectionResult:
    """Optimal feasible selection over pruned curves, from the utility A / B
    (B > 0), as select_platforms makes it; pruning leaves the curves as
    they are."""
    return select_platforms([pl for curve in curves.values() for pl in curve.platforms], A, B)[1]


def selection_utility(selection, A: Fraction, B: Fraction) -> Fraction:
    num = A + sum((pl.z * pl.phi for pl in selection), Fraction(0))
    den = B + sum((pl.z for pl in selection), Fraction(0))
    return num / den


def local_optimality_check(curves: dict[int, ParetoCurve], S, A: Fraction, B: Fraction) -> bool:
    """Swap-criterion test: is the feasible selection S optimal?

    S holds platform ids.  True iff every unselected state has all phi at
    or below u(S), and every selected platform's incoming slope (phi if
    first on its curve) is >= u(S) while its outgoing slope is <= u(S).
    """
    locate = {}
    for state, curve in curves.items():
        for idx, pl in enumerate(curve.platforms):
            locate[pl.id] = (state, idx, pl)
    chosen: dict[int, tuple[int, Platform]] = {}
    for pid in S:
        if pid not in locate:
            raise FeasibilityError(f"platform {pid!r} is not on any curve")
        state, idx, pl = locate[pid]
        if state in chosen:
            raise FeasibilityError(f"two platforms selected at state {state}")
        chosen[state] = (idx, pl)

    u = selection_utility([pl for _, pl in chosen.values()], A, B)
    for state, curve in curves.items():
        if state not in chosen:
            if any(pl.phi > u for pl in curve.platforms):
                return False
            continue
        idx, pl = chosen[state]
        incoming = curve.psi[idx]
        if incoming < u:
            return False
        if idx + 1 < len(curve.platforms) and curve.psi[idx + 1] > u:
            return False
    return True


def multi_oracle(platforms, A: Fraction, B: Fraction) -> SelectionResult:
    """Exhaustive maximizer over all selections of <= 1 platform per state.

    Ties break toward the smallest total z, then lexicographic ids.
    """
    by_state: dict[int, list[Platform]] = {}
    for pl in platforms:
        by_state.setdefault(pl.state, []).append(pl)
    combos = math.prod(1 + len(g) for g in by_state.values()) if by_state else 1
    if combos > _ORACLE_SELECTIONS:
        raise TooLarge(f"{combos} selections exceed the guard {_ORACLE_SELECTIONS}")

    flat = [
        (g, pl)
        for g, state in enumerate(sorted(by_state))
        for pl in sorted(by_state[state], key=lambda p: str(p.id))
    ]
    _, (base_num, base_den), zphis, zs = scale_to_integers(
        (A, B), [pl.z * pl.phi for _, pl in flat], [pl.z for _, pl in flat]
    )
    options = [[(0, 0, 0, None)] for _ in by_state]
    for (g, pl), zphi, z in zip(flat, zphis, zs):
        options[g].append((zphi, z, z, pl))

    def ids(combo):
        return tuple(sorted(str(c[3].id) for c in combo if c[3] is not None))

    best = None  # (num, den, total_z, combo)
    for combo in itertools.product(*options):
        num = base_num + sum(c[0] for c in combo)
        den = base_den + sum(c[1] for c in combo)
        total_z = sum(c[2] for c in combo)
        if best is not None:
            cmp = num * best[1] - best[0] * den
            if cmp < 0 or (cmp == 0 and total_z > best[2]):
                continue
            # The id tuples are formed only on a tie in utility and total z.
            if cmp == 0 and total_z == best[2] and ids(combo) >= ids(best[3]):
                continue
        best = (num, den, total_z, combo)
    chosen = tuple(sorted((c[3] for c in best[3] if c[3] is not None), key=lambda p: p.state))
    return SelectionResult(chosen, Fraction(best[0], best[1]))
