"""The agent's problem with several candidate platforms per state.

Redundant platforms are pruned down to a per-state Pareto curve (the
upper concave hull from the origin of the points (z, z*phi)); the greedy
then walks all curves by descending psi, swapping along each curve, and
stops when psi falls to the current utility.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .agent import SignError, TooLarge
from .core import scale_to_integers

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
    psi[i] is rho between platforms i - 1 and i.
    """

    state: int
    platforms: tuple[Platform, ...]
    psi: tuple[Fraction, ...]


def _rho(a: Platform, b: Platform) -> Fraction:
    return (b.z * b.phi - a.z * a.phi) / (b.z - a.z)


def prune_redundant(platforms) -> dict[int, ParetoCurve]:
    """Reduce each state's platforms to its Pareto curve.

    One monotone-chain pass (Andrew 1979) per state over the points
    (z, z*phi) by increasing z, anchored at the origin.  Of platforms
    with equal z only the highest phi is a candidate: the smallest
    str(id) on equal phi, the first given on equal str(id).  A point on
    or below the segment between its neighbours is dropped, and the
    curve ends before its first segment of slope <= 0.  No selection
    problem over the survivors has a lower optimal utility than over
    all platforms.
    """
    by_state: dict[int, list[Platform]] = {}
    for pl in platforms:
        if pl.z <= 0:
            raise SignError(f"platform {pl.id!r} has z = {pl.z} <= 0")
        by_state.setdefault(pl.state, []).append(pl)

    curves = {}
    for state, group in sorted(by_state.items()):
        # psi[i] is the slope into hull[i]: from the origin for hull[0].
        hull: list[Platform] = []
        psi: list[Fraction] = []
        for pl in sorted(group, key=lambda p: (p.z, -p.phi, str(p.id))):
            if hull and pl.z == hull[-1].z:
                continue
            # hull[-1] goes when it lies on or below the segment from its
            # predecessor (the origin for hull[0]) to pl.
            while hull and psi[-1] <= (rho := _rho(hull[-1], pl)):
                hull.pop()
                psi.pop()
            psi.append(rho if hull else pl.phi)
            hull.append(pl)
        # The curve stops at the hull's highest point.
        while len(psi) > 1 and psi[-1] <= 0:
            hull.pop()
            psi.pop()
        curves[state] = ParetoCurve(state, tuple(hull), tuple(psi))
    return curves


@dataclass(frozen=True)
class SelectionResult:
    """At most one platform per state, with the utility achieved."""

    platforms: tuple[Platform, ...]
    utility: Fraction


def multi_greedy_solve(curves: dict[int, ParetoCurve], A: Fraction, B: Fraction) -> SelectionResult:
    """Optimal feasible selection over pruned curves.

    Walks all curve entries by descending psi; a state's first entry is
    added outright, later entries replace the previous one (a swap along
    the curve); stops as soon as psi(j) <= u(S).
    """
    entries = []
    for state, curve in curves.items():
        for idx, pl in enumerate(curve.platforms):
            if pl.z <= 0:
                raise SignError(f"platform {pl.id!r} has z = {pl.z} <= 0")
            entries.append((curve.psi[idx], state, idx, pl))
    entries.sort(key=lambda e: (-e[0], e[1], str(e[3].id)))

    num = A
    den = B
    selected: dict[int, tuple[int, Platform]] = {}
    for psi, state, idx, pl in entries:
        if psi <= num / den:
            break
        if state in selected:
            prev_idx, prev = selected[state]
            if idx != prev_idx + 1:
                raise RuntimeError(
                    f"state {state}: curve entry {idx} follows entry {prev_idx}, not its predecessor"
                )
            num -= prev.z * prev.phi
            den -= prev.z
        selected[state] = (idx, pl)
        num += pl.z * pl.phi
        den += pl.z
    chosen = tuple(pl for _, (_, pl) in sorted(selected.items()))
    return SelectionResult(chosen, num / den)


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
