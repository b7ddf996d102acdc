"""Property-based invariants over generated rationals and instances."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from pdp.agent import agent_oracle, greedy_solve, greedy_solve_signed
from pdp.core import agent_utility, derived_params
from pdp.instances import gen_random_flower
from pdp.multiplatform import Platform, prune_redundant

rationals = st.fractions(max_denominator=50)
positive_rationals = st.fractions(min_value=F(1, 50), max_value=50, max_denominator=50)


@given(x=rationals, r=rationals, y=positive_rationals, s=positive_rationals)
def test_mediant_lies_between(x, r, y, s):
    left = x / y
    right = r / s
    mediant = (x + r) / (y + s)
    if left == right:
        assert mediant == left
    else:
        lo, hi = sorted((left, right))
        assert lo < mediant < hi


@given(seed=st.integers(0, 10**6), n=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_greedy_is_optimal(seed, n):
    dp = derived_params(gen_random_flower(n, seed=seed))
    result, _ = greedy_solve(dp)
    assert result.utility == agent_oracle(dp).utility


@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_signed_solver_is_optimal(seed, n):
    dp = derived_params(
        gen_random_flower(n, seed=seed, ranges={"allow_negative_z": True})
    )
    assert greedy_solve_signed(dp).utility == agent_oracle(dp).utility


@given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_adoption_never_hurts_the_agent(seed, n):
    dp = derived_params(gen_random_flower(n, seed=seed))
    base = agent_utility(dp, set())
    result, _ = greedy_solve(dp)
    assert result.utility >= base


@given(
    data=st.lists(
        st.tuples(
            st.integers(1, 3),
            st.fractions(min_value=F(1, 4), max_value=8, max_denominator=4),
            st.fractions(min_value=-10, max_value=20, max_denominator=4),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=80, deadline=None)
def test_pruned_curves_are_strictly_convex(data):
    platforms = [
        Platform(f"p{i:02d}", state, z, phi) for i, (state, z, phi) in enumerate(data)
    ]
    for curve in prune_redundant(platforms).values():
        zs = [pl.z for pl in curve.platforms]
        zphis = [pl.z * pl.phi for pl in curve.platforms]
        assert zs == sorted(zs) and len(set(zs)) == len(zs)
        assert zphis == sorted(zphis) and len(set(zphis)) == len(zphis)
        assert list(curve.psi[1:]) == sorted(set(curve.psi[1:]), reverse=True)
