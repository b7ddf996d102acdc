import random
from fractions import Fraction as F

import pytest

from pdp import multiplatform
from pdp.agent import SignError, TooLarge
from pdp.multiplatform import (
    FeasibilityError,
    ParetoCurve,
    Platform,
    _rho,
    local_optimality_check,
    multi_greedy_solve,
    multi_oracle,
    prune_redundant,
    selection_utility,
)


def _ref_prune_redundant(platforms) -> dict[int, ParetoCurve]:
    """Reference pruning: merge identical (z, phi) to the smallest id,
    remove weakly dominated platforms one at a time (smaller-or-equal z and
    phi; or larger z but no more z*phi), then drop points on or below a
    segment between two others."""
    by_state: dict[int, list[Platform]] = {}
    for pl in platforms:
        if pl.z <= 0:
            raise SignError(f"platform {pl.id!r} has z = {pl.z} <= 0")
        by_state.setdefault(pl.state, []).append(pl)

    curves = {}
    for state, group in sorted(by_state.items()):
        merged: dict[tuple[F, F], Platform] = {}
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

        psi = (stack[0].phi,) + tuple(_rho(a, b) for a, b in zip(stack, stack[1:]))
        curves[state] = ParetoCurve(state, tuple(stack), psi)
    return curves


def canonical_pair():
    return [Platform("a", 1, F(1), F(5)), Platform("b", 1, F(2), F(4))]


def random_platforms(seed, n=4, max_per_state=4):
    rng = random.Random(seed)
    platforms = []
    pid = 0
    for state in range(1, rng.randint(1, n) + 1):
        for _ in range(rng.randint(1, max_per_state)):
            z = F(rng.randint(1, 6), rng.choice([1, 2]))
            phi = F(rng.randint(0, 24), rng.choice([1, 2, 4]))
            platforms.append(Platform(f"p{pid:02d}", state, z, phi))
            pid += 1
    A = F(rng.randint(0, 8), 2)
    B = F(rng.randint(2, 9))
    return platforms, A, B


def test_canonical_pair_both_survive():
    curves = prune_redundant(canonical_pair())
    assert [pl.id for pl in curves[1].platforms] == ["a", "b"]
    assert curves[1].psi == (F(5), F(3))


def test_condition1_removal_with_equal_phi_flagged():
    curves = prune_redundant(
        [Platform("a", 1, F(1), F(5)), Platform("b", 1, F(2), F(5))]
    )
    assert [pl.id for pl in curves[1].platforms] == ["b"]


def test_condition2_removal():
    # Larger z but no more z*phi is never worth swapping to.
    curves = prune_redundant(
        [Platform("a", 1, F(1), F(5)), Platform("b", 1, F(5), F(1))]
    )
    assert [pl.id for pl in curves[1].platforms] == ["a"]


def test_condition3_removes_point_below_segment():
    curves = prune_redundant(
        [
            Platform("a", 1, F(1), F(6)),
            Platform("b", 1, F(2), F(4)),
            Platform("c", 1, F(3), F(4)),
        ]
    )
    assert [pl.id for pl in curves[1].platforms] == ["a", "c"]


def test_identical_platforms_merge_to_smallest_id():
    curves = prune_redundant(
        [Platform("b", 1, F(1), F(5)), Platform("a", 1, F(1), F(5))]
    )
    assert [pl.id for pl in curves[1].platforms] == ["a"]


def _prune_case(rng):
    """Up to 12 platforms on up to 3 states, from small grids so that equal
    z, repeated (z, phi) pairs and collinear runs are common; phi may be
    negative, and ids mix strings, tuples and integers (with repeats)."""
    ids = [lambda i: f"p{i}", lambda i: ("ext", i % 3), lambda i: i % 4]
    platforms = []
    for i in range(rng.randint(1, 12)):
        if platforms and rng.random() < 0.2:
            other = rng.choice(platforms)
            z, phi = other.z, other.phi
        elif len(platforms) >= 2 and rng.random() < 0.2:
            # Extend the line through two earlier points (z, z*phi).
            a, b = rng.sample(platforms, 2)
            if a.z == b.z:
                continue
            z = a.z + (b.z - a.z) * rng.randint(2, 3)
            if z <= 0:
                continue
            phi = (a.z * a.phi + _rho(a, b) * (z - a.z)) / z
        else:
            z = F(rng.randint(1, 6), rng.choice([1, 2]))
            phi = F(rng.randint(-6, 12), rng.choice([1, 2]))
        platforms.append(Platform(rng.choice(ids)(i), rng.randint(1, 3), z, phi))
    return platforms


def test_prune_matches_reference():
    rng = random.Random(20260)
    for _ in range(3000):
        platforms = _prune_case(rng)
        got = prune_redundant(platforms)
        want = _ref_prune_redundant(platforms)
        assert got.keys() == want.keys()
        for state, curve in want.items():
            assert [(pl.id, pl.z, pl.phi) for pl in got[state].platforms] == [
                (pl.id, pl.z, pl.phi) for pl in curve.platforms
            ]
            assert got[state].psi == curve.psi


def test_prune_rejects_nonpositive_z():
    with pytest.raises(SignError):
        prune_redundant([Platform("a", 1, F(-1), F(5))])


def test_curve_invariants_on_random_corpus():
    for seed in range(60):
        platforms, _, _ = random_platforms(seed)
        for curve in prune_redundant(platforms).values():
            zs = [pl.z for pl in curve.platforms]
            phis = [pl.phi for pl in curve.platforms]
            zphis = [pl.z * pl.phi for pl in curve.platforms]
            assert zs == sorted(zs) and len(set(zs)) == len(zs)
            assert phis == sorted(phis, reverse=True) and len(set(phis)) == len(phis)
            assert zphis == sorted(zphis) and len(set(zphis)) == len(zphis)
            slopes = curve.psi[1:]
            assert list(slopes) == sorted(slopes, reverse=True)
            assert len(set(slopes)) == len(slopes)
            assert all(s > 0 for s in slopes)
            for idx, pl in enumerate(curve.platforms):
                assert curve.psi[idx] <= pl.phi
            assert list(curve.psi) == sorted(curve.psi, reverse=True)


def test_greedy_reference_example():
    curves = prune_redundant(canonical_pair())
    sel = multi_greedy_solve(curves, F(10), F(10))
    assert [pl.id for pl in sel.platforms] == ["b"]
    assert sel.utility == F(3, 2)


def test_greedy_matches_oracle_on_random_corpus():
    for seed in range(60):
        platforms, A, B = random_platforms(seed)
        sel = multi_greedy_solve(prune_redundant(platforms), A, B)
        assert sel.utility == multi_oracle(platforms, A, B).utility


def test_pruning_preserves_oracle_optimum():
    for seed in range(40):
        platforms, A, B = random_platforms(1000 + seed)
        pruned = [
            pl for curve in prune_redundant(platforms).values() for pl in curve.platforms
        ]
        assert multi_oracle(platforms, A, B).utility == multi_oracle(pruned, A, B).utility


def test_local_optimality_of_greedy_output():
    for seed in range(40):
        platforms, A, B = random_platforms(2000 + seed)
        curves = prune_redundant(platforms)
        sel = multi_greedy_solve(curves, A, B)
        assert local_optimality_check(curves, [pl.id for pl in sel.platforms], A, B)


def test_local_optimality_rejects_suboptimal_choice():
    curves = prune_redundant(canonical_pair())
    assert not local_optimality_check(curves, ["a"], F(10), F(10))
    assert local_optimality_check(curves, ["b"], F(10), F(10))


def test_local_optimality_empty_when_all_phi_low():
    curves = prune_redundant([Platform("a", 1, F(1), F(1, 4))])
    assert local_optimality_check(curves, [], F(10), F(10))


def test_local_optimality_rejects_double_selection():
    curves = prune_redundant(canonical_pair())
    with pytest.raises(FeasibilityError):
        local_optimality_check(curves, ["a", "b"], F(10), F(10))


def test_swap_lemma_interpolation():
    # Swapping along a curve lands the utility between the old utility
    # and the segment slope.
    for seed in range(40):
        platforms, A, B = random_platforms(3000 + seed)
        curves = prune_redundant(platforms)
        for curve in curves.values():
            for idx in range(len(curve.platforms) - 1):
                a = curve.platforms[idx]
                b = curve.platforms[idx + 1]
                u_before = selection_utility([a], A, B)
                u_after = selection_utility([b], A, B)
                rho = curve.psi[idx + 1]
                assert min(u_before, rho) <= u_after <= max(u_before, rho)


def test_oracle_no_platforms():
    sel = multi_oracle([], F(3), F(6))
    assert sel.platforms == ()
    assert sel.utility == F(1, 2)


def test_oracle_tie_breaks():
    # Every selection with a platform at state 1 reaches the optimal
    # utility 2, and "d" leaves it there: the smallest total z wins, then
    # the smallest ids.
    platforms = [
        Platform("b", 1, F(1), F(4)),
        Platform("c", 1, F(2), F(3)),
        Platform("a", 1, F(1), F(4)),
        Platform("d", 2, F(1), F(2)),
    ]
    sel = multi_oracle(platforms, F(0), F(1))
    assert [pl.id for pl in sel.platforms] == ["a"]
    assert sel.utility == 2


def test_oracle_guard(monkeypatch):
    platforms, A, B = random_platforms(7)
    monkeypatch.setattr(multiplatform, "_ORACLE_SELECTIONS", 1)
    with pytest.raises(TooLarge):
        multi_oracle(platforms, A, B)
