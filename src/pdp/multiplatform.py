"""The agent's problem with several candidate platforms per state.

Redundant platforms are pruned down to a per-state Pareto curve (the
upper convex envelope of the points (z, z*phi)); the greedy then walks
all curves by descending psi, swapping along each curve, and stops when
psi falls to the current utility.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .agent import SignError, TooLarge
from .core import scale_to_integers


class FeasibilityError(ValueError):
    """A platform selection picks two platforms for one state."""


@dataclass(frozen=True)
class Platform:
    id: object
    state: int
    z: Fraction
    phi: Fraction
    owner: object = "external"


@dataclass(frozen=True)
class ParetoCurve:
    """Surviving platforms of one state, ordered by increasing z.

    slopes[i] is rho between platforms i and i+1.  psi[0] is the first
    platform's phi; psi[i] for i > 0 is the incoming slope.
    equal_phi_flags records removals that leaned on the equal-phi edge
    case of the first dominance condition (removed id, kept id).
    """

    state: int
    platforms: tuple[Platform, ...]
    slopes: tuple[Fraction, ...]
    psi: tuple[Fraction, ...]
    equal_phi_flags: tuple[tuple[object, object], ...] = ()


def _rho(a: Platform, b: Platform) -> Fraction:
    return (b.z * b.phi - a.z * a.phi) / (b.z - a.z)


def prune_redundant(platforms) -> dict[int, ParetoCurve]:
    """Reduce each state's platforms to its Pareto curve.

    Removes platforms that are weakly dominated (smaller-or-equal z and
    phi; or larger z but no more z*phi), merges identical (z, phi) pairs
    keeping the smallest id, and drops platforms on or below a segment
    between two others.  Dominance removals never change the optimal
    utility of any selection problem over the survivors.
    """
    by_state: dict[int, list[Platform]] = {}
    for pl in platforms:
        if pl.z <= 0:
            raise SignError(f"platform {pl.id!r} has z = {pl.z} <= 0")
        by_state.setdefault(pl.state, []).append(pl)

    curves = {}
    for state, group in sorted(by_state.items()):
        flags = []
        merged: dict[tuple[Fraction, Fraction], Platform] = {}
        for pl in sorted(group, key=lambda p: str(p.id)):
            key = (pl.z, pl.phi)
            if key not in merged or str(pl.id) < str(merged[key].id):
                merged[key] = pl
        alive = sorted(merged.values(), key=lambda p: (p.z, -p.phi))

        changed = True
        while changed:
            changed = False
            for j in alive:
                for other in alive:
                    if other is j:
                        continue
                    cond1 = (
                        j.z <= other.z
                        and j.phi <= other.phi
                        and (j.z < other.z or j.phi < other.phi)
                    )
                    cond2 = j.z > other.z and j.z * j.phi <= other.z * other.phi
                    if cond1 or cond2:
                        if cond1 and j.phi == other.phi:
                            flags.append((j.id, other.id))
                        alive.remove(j)
                        changed = True
                        break
                if changed:
                    break

        alive.sort(key=lambda p: p.z)
        stack: list[Platform] = []
        for pl in alive:
            while len(stack) >= 2 and _rho(stack[-2], stack[-1]) <= _rho(stack[-1], pl):
                stack.pop()
            stack.append(pl)

        slopes = tuple(_rho(stack[i], stack[i + 1]) for i in range(len(stack) - 1))
        psi = (stack[0].phi,) + slopes
        curves[state] = ParetoCurve(state, tuple(stack), slopes, psi, tuple(flags))
    return curves


@dataclass(frozen=True)
class SelectionResult:
    """At most one platform per state, with the utility achieved."""

    platforms: tuple[Platform, ...]
    utility: Fraction

    @property
    def ids(self) -> frozenset:
        return frozenset(pl.id for pl in self.platforms)


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
        if idx + 1 < len(curve.platforms) and curve.slopes[idx] > u:
            return False
    return True


def multi_oracle(platforms, A: Fraction, B: Fraction, guard: int = 10**6) -> SelectionResult:
    """Exhaustive maximizer over all selections of <= 1 platform per state.

    Ties break toward the smallest total z, then lexicographic ids.
    """
    by_state: dict[int, list[Platform]] = {}
    for pl in platforms:
        by_state.setdefault(pl.state, []).append(pl)
    combos = math.prod(1 + len(g) for g in by_state.values()) if by_state else 1
    if combos > guard:
        raise TooLarge(f"{combos} selections exceed the guard {guard}")

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

    best = None
    for combo in itertools.product(*options):
        num = base_num + sum(c[0] for c in combo)
        den = base_den + sum(c[1] for c in combo)
        total_z = sum(c[2] for c in combo)
        ids = tuple(sorted((str(c[3].id) for c in combo if c[3] is not None)))
        key = (num, den, total_z, ids)
        if best is None:
            best = (key, combo)
            continue
        cmp = num * best[0][1] - best[0][0] * den
        if cmp > 0 or (cmp == 0 and (total_z, ids) < (best[0][2], best[0][3])):
            best = (key, combo)
    chosen = tuple(sorted((c[3] for c in best[1] if c[3] is not None), key=lambda p: p.state))
    return SelectionResult(chosen, Fraction(best[0][0], best[0][1]))
