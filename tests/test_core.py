import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdp
from pdp import agent, core
from pdp.core import (
    DegenerateState,
    FlowerPairs,
    IntegerImage,
    NonpositiveCost,
    ProbabilityError,
    ReducibleChain,
    SubsetError,
    TooLarge,
    _closed_classes,
    _reachable,
    agent_utility,
    all_subsets,
    build_flower_from_pairs,
    build_flower_from_potentials,
    build_flower_instance,
    build_general_chain,
    derived_params,
    designer_profit,
    flower_as_general_chain,
    rat,
    scale_to_integers,
    stationary_distribution_flower,
    steady_state_general,
)
from pdp.cli import SchemaError, parse_instance, serialize_instance
from pdp.instances import gen_random_flower
from pdp.multiagent import build_multi_agent_instance


def test_derived_params_reference_values(example):
    dp = derived_params(example)
    assert dp.lam == (F(1), F(1))
    assert dp.w == (F(2), F(2))
    assert dp.z == (F(1), F(1))
    assert dp.phi == (F(2), F(4))
    assert dp.A == 0
    assert dp.B == 3


# Reference: derived_params over Fractions, from before it ran on the
# integer numerators and denominators.
def _ref_derived_params(inst):
    n = inst.n
    lam = tuple(inst.p[i] / (1 - inst.q[i]) for i in range(n))
    w = tuple(inst.p[i] / (1 - inst.q[i] - inst.y[i]) for i in range(n))
    z = tuple(w[i] - lam[i] for i in range(n))
    phi = tuple(
        (w[i] * inst.c_platform[i] - lam[i] * inst.c_life[i]) / z[i] for i in range(n)
    )
    A = sum((lam[i] * inst.c_life[i] for i in range(n)), F(0))
    B = 1 + sum(lam)
    return lam, w, z, phi, A, B


# Reference: build_flower_instance and derived_params as they were before a
# flower kept its values as (num, den) pairs: the values are Fractions, and
# validation and derivation read their numerators and denominators.  The
# builder returns the seven Fraction vectors, derived_params its six values.
def _fraction_exact_sum(terms):
    terms = list(terms)
    L = math.lcm(*(den for _, den in terms))
    return F(sum(num * (L // den) for num, den in terms), L)


def _fraction_build_flower_instance(p, q, y, c_life, c_platform, d, cost):
    vectors = [
        tuple(v if type(v) is F else rat(v) for v in vec)
        for vec in (p, q, y, c_life, c_platform, d, cost)
    ]
    p, q, y, c_life, c_platform, d, cost = vectors
    n = len(p)
    if n == 0:
        raise ProbabilityError("need at least one petal")
    for vec, name in zip(vectors, ("p", "q", "y", "c_life", "c_platform", "d", "cost")):
        if len(vec) != n:
            raise ProbabilityError(f"{name} has length {len(vec)}, expected {n}")
    total = _fraction_exact_sum((v.numerator, v.denominator) for v in p)
    if total != 1:
        raise ProbabilityError(f"rest-state jump probabilities sum to {total}, not 1")
    for i in range(n):
        qn, qd = q[i].numerator, q[i].denominator
        yn, yd = y[i].numerator, y[i].denominator
        if p[i].numerator <= 0:
            raise ProbabilityError(f"p[{i + 1}] = {p[i]} must be positive")
        if not 0 < qn < qd:
            raise ProbabilityError(f"q[{i + 1}] = {q[i]} must lie strictly in (0, 1)")
        if yn == 0:
            raise DegenerateState(f"y[{i + 1}] = 0: platform would not change the dynamics")
        if not 0 < qn * yd + yn * qd < qd * yd:
            raise ProbabilityError(
                f"q[{i + 1}] + y[{i + 1}] = {q[i] + y[i]} must lie strictly in (0, 1)"
            )
        if cost[i].numerator <= 0:
            raise NonpositiveCost(f"cost[{i + 1}] = {cost[i]} must be positive")
    return vectors


def _fraction_derived_params(vectors):
    lam, w, z, phi = [], [], [], []
    for p, q, y, c_li, c_pl in zip(*vectors[:5]):
        pn, pd = p.numerator, p.denominator
        qn, qd = q.numerator, q.denominator
        yn, yd = y.numerator, y.denominator
        a = qd - qn
        b = a * yd - yn * qd
        mass = pn * qd
        lam.append(F(mass, pd * a))
        w.append(F(mass * yd, pd * b))
        z.append(F(mass * qd * yn, pd * a * b))
        phi.append(
            F(
                a * yd * c_pl.numerator * c_li.denominator - b * c_li.numerator * c_pl.denominator,
                qd * yn * c_pl.denominator * c_li.denominator,
            )
        )
    c_life = vectors[3]
    A = _fraction_exact_sum(
        (v.numerator * c.numerator, v.denominator * c.denominator) for v, c in zip(lam, c_life)
    )
    B = _fraction_exact_sum([(1, 1), *((v.numerator, v.denominator) for v in lam)])
    return tuple(lam), tuple(w), tuple(z), tuple(phi), A, B


def _fraction_image(lam, w, z, phi, A, B):
    L, (A, B), z, phi = scale_to_integers((A, B), z, phi)
    return IntegerImage(L, A, B, z, phi, tuple(zi * pi for zi, pi in zip(z, phi)))


def test_derived_params_match_fraction_reference(reference_flowers):
    # Every field, A, B and the image equal the Fraction references', from
    # a fresh instance whose views have not been read yet.
    for flower in reference_flowers:
        vectors = [getattr(flower, key) for key in FlowerPairs._fields]
        inst = build_flower_instance(*vectors)
        ref = _fraction_build_flower_instance(*vectors)
        dp = derived_params(inst)
        ref_dp = _fraction_derived_params(ref)
        assert dp.image == _fraction_image(*ref_dp)
        assert [getattr(inst, key) for key in FlowerPairs._fields] == ref
        fields = (dp.lam, dp.w, dp.z, dp.phi, dp.A, dp.B)
        assert fields == ref_dp == _ref_derived_params(inst)
        assert all(type(v) is F for v in (*inst.p, *inst.cost, *dp.phi, dp.A, dp.B))


_FAILURES = [
    ("p", [F(1, 2), F(1, 3)], ProbabilityError, "rest-state jump probabilities sum to 5/6, not 1"),
    ("p", [F(3, 2), F(-1, 2)], ProbabilityError, "p[2] = -1/2 must be positive"),
    ("q", [F(1, 2), F(1)], ProbabilityError, "q[2] = 1 must lie strictly in (0, 1)"),
    ("q", [F(0), F(1, 2)], ProbabilityError, "q[1] = 0 must lie strictly in (0, 1)"),
    ("y", [F(1, 4), F(0)], DegenerateState, "y[2] = 0: platform would not change the dynamics"),
    ("y", [F(1, 4), F(1, 2)], ProbabilityError, "q[2] + y[2] = 1 must lie strictly in (0, 1)"),
    ("y", [F(-3, 4), F(1, 4)], ProbabilityError, "q[1] + y[1] = -1/4 must lie strictly in (0, 1)"),
    ("cost", [F(1, 10), F(0)], NonpositiveCost, "cost[2] = 0 must be positive"),
    ("cost", [F(-2, 20), F(1, 10)], NonpositiveCost, "cost[1] = -1/10 must be positive"),
    ("d", [F(10)], ProbabilityError, "d has length 1, expected 2"),
]


@pytest.mark.parametrize("key, values, error, message", _FAILURES)
def test_failures_keep_their_messages(key, values, error, message):
    # Each failure class, from library Fractions and from a document, has
    # the message the Fraction reference gives.  A document's list of the
    # wrong length is caught by the reader, before the builder.
    kwargs = dict(_base_kwargs(), **{key: values})
    for build in (build_flower_instance, _fraction_build_flower_instance):
        with pytest.raises(error) as info:
            build(**kwargs)
        assert str(info.value) == message
    doc = dict(serialize_instance(build_flower_instance(**_base_kwargs())))
    doc[key] = [str(v) for v in values]
    with pytest.raises(SchemaError) as info:
        parse_instance(doc)
    if len(values) == 2:
        assert str(info.value) == f"$: {message}"
    else:
        assert str(info.value) == f"{key}: expected a list of 2 rationals"


def test_flower_needs_a_petal():
    with pytest.raises(ProbabilityError) as info:
        build_flower_from_pairs(FlowerPairs(*[()] * len(FlowerPairs._fields)))
    assert str(info.value) == "need at least one petal"


def test_flower_from_potentials_gives_back_z_and_phi():
    # derived_params of the built flower returns the z and phi it was built
    # from, with z on either side of 0 and phi of either sign.
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        weights = [rng.randint(1, 9) for _ in range(n)]
        p = [F(wt, sum(weights)) for wt in weights]
        q = [F(rng.randint(1, 8), 10) for _ in range(n)]
        c_life = [F(rng.randint(0, 8), 4) for _ in range(n)]
        # A negative z above p - lam keeps q + y = 1 - p / (lam + z) above 0.
        z = [
            F(rng.randint(1, 12), rng.randint(1, 4))
            if rng.random() < 0.5
            else (pi - pi / (1 - qi)) * F(rng.randint(1, 9), 10)
            for pi, qi in zip(p, q)
        ]
        phi = [F(rng.randint(-8, 24), rng.randint(1, 4)) for _ in range(n)]
        inst = build_flower_from_potentials(p, q, c_life, z, phi, [F(1)] * n, [F(1)] * n)
        assert inst.params.z == tuple(z) and inst.params.phi == tuple(phi)


def test_integer_image_scales_derived_params():
    dp = derived_params(gen_random_flower(9, seed=3, ranges={"allow_negative_z": True}))
    image = dp.image
    assert image is dp.image
    L = image.L
    assert (F(image.A, L), F(image.B, L)) == (dp.A, dp.B)
    assert tuple(F(v, L) for v in image.z) == dp.z
    assert tuple(F(v, L) for v in image.phi) == dp.phi
    assert tuple(F(v, L * L) for v in image.zphi) == tuple(z * phi for z, phi in zip(dp.z, dp.phi))


def test_agent_utility_reference_values(example):
    dp = derived_params(example)
    assert agent_utility(dp, set()) == 0
    assert agent_utility(dp, {2}) == 1
    assert agent_utility(dp, {1, 2}) == F(6, 5)


def test_stationary_distribution_reference_values(example):
    assert stationary_distribution_flower(example, set()) == (F(1, 3), F(1, 3), F(1, 3))
    assert stationary_distribution_flower(example, {1, 2}) == (F(1, 5), F(2, 5), F(2, 5))


def test_stationary_distribution_sums_to_one():
    inst = gen_random_flower(5, seed=11)
    for S in all_subsets(5):
        assert sum(stationary_distribution_flower(inst, S)) == 1


def test_scale_to_integers_uses_one_common_denominator():
    L, (a, b), c, empty = scale_to_integers((F(1, 2), F(-2, 3)), [F(5, 4), F(7)], ())
    assert (L, a, b, c, empty) == (12, 6, -8, (15, 84), ())
    assert scale_to_integers() == (1,)


def test_all_subsets_lists_each_subset_once():
    subsets = list(all_subsets(4))
    assert len(subsets) == len(set(subsets)) == 16
    assert subsets[:4] == [frozenset(), {1}, {2}, {1, 2}]


def test_designer_profit_reference_values(example):
    assert designer_profit(example, {1}, {1}) == F(49, 10)
    assert designer_profit(example, {1, 2}, {1, 2}) == F(21, 5)
    assert designer_profit(example, {2}, {2}) == F(2, 5)


def test_designer_profit_rejects_bad_subsets(example):
    with pytest.raises(SubsetError):
        designer_profit(example, {1}, {1, 2})
    with pytest.raises(SubsetError):
        designer_profit(example, {3}, set())
    with pytest.raises(SubsetError):
        agent_utility(derived_params(example), {0})


def _base_kwargs():
    return dict(
        p=[F(1, 2), F(1, 2)],
        q=[F(1, 2), F(1, 2)],
        y=[F(1, 4), F(1, 4)],
        c_life=[F(0), F(0)],
        c_platform=[F(1), F(2)],
        d=[F(10), F(1)],
        cost=[F(1, 10), F(1, 10)],
    )


def test_validation_errors():
    bad = _base_kwargs()
    bad["p"] = [F(1, 2), F(1, 3)]
    with pytest.raises(ProbabilityError):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["q"] = [F(1, 2), F(1)]
    with pytest.raises(ProbabilityError):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["y"] = [F(1, 4), F(3, 4)]
    with pytest.raises(ProbabilityError):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["y"] = [F(1, 4), F(0)]
    with pytest.raises(DegenerateState):
        build_flower_instance(**bad)

    bad = _base_kwargs()
    bad["cost"] = [F(1, 10), F(0)]
    with pytest.raises(NonpositiveCost):
        build_flower_instance(**bad)


@pytest.mark.parametrize(
    "key, values, error, message",
    [
        ("p", [F(1), F(0)], ProbabilityError, "p[2] = 0 must be positive"),
        ("p", [F(3, 2), F(-1, 2)], ProbabilityError, "p[2] = -1/2 must be positive"),
        ("q", [F(1, 2), F(1)], ProbabilityError, "q[2] = 1 must lie strictly in (0, 1)"),
        ("q", [F(1, 2), F(0)], ProbabilityError, "q[2] = 0 must lie strictly in (0, 1)"),
        ("y", [F(1, 4), F(1, 2)], ProbabilityError, "q[2] + y[2] = 1 must lie strictly in (0, 1)"),
        ("y", [F(1, 4), F(-1, 2)], ProbabilityError, "q[2] + y[2] = 0 must lie strictly in (0, 1)"),
        ("y", [F(1, 4), F(0)], DegenerateState, "y[2] = 0: platform would not change the dynamics"),
        ("cost", [F(1, 10), F(-1, 10)], NonpositiveCost, "cost[2] = -1/10 must be positive"),
    ],
)
def test_validation_rejects_each_boundary(key, values, error, message):
    # Validation runs on integer numerators and denominators; each bound
    # is strict and each message names the rational value.
    kwargs = _base_kwargs()
    kwargs[key] = values
    with pytest.raises(error) as info:
        build_flower_instance(**kwargs)
    assert str(info.value) == message


def test_sum_of_p_is_checked_exactly():
    # Petal weights over several denominators that sum to 1 only exactly.
    kwargs = _base_kwargs()
    for key in ("q", "y", "c_life", "c_platform", "d", "cost"):
        kwargs[key] = kwargs[key][:1] * 3
    kwargs["p"] = [F(1, 3), F(1, 6), F(1, 2)]
    assert build_flower_instance(**kwargs).p == (F(1, 3), F(1, 6), F(1, 2))
    kwargs["p"] = [F(1, 3), F(1, 6), F(1, 2) + F(1, 10**30)]
    with pytest.raises(ProbabilityError, match=r"sum to 1000000000000000000000000000001/1000000000000000000000000000000, not 1"):
        build_flower_instance(**kwargs)


def test_rat_rejects_bool_and_float():
    assert rat(3) == 3 and rat("3/4") == F(3, 4) and rat(F(1, 2)) == F(1, 2)
    assert rat((2, 20)) == F(1, 10) and rat((-1, -2)) == F(1, 2)
    for bad in (True, False, 0.5):
        with pytest.raises(TypeError, match=f"^expected an exact rational, got {bad!r}$"):
            rat(bad)
    with pytest.raises(ZeroDivisionError):
        rat((1, 0))
    kwargs = _base_kwargs()
    kwargs["d"] = [True, F(1)]
    with pytest.raises(TypeError):
        build_flower_instance(**kwargs)
    with pytest.raises(TypeError):
        build_general_chain([[True]])


def test_build_flower_instance_checks_only_non_fractions():
    # A Fraction's pair is read off it and a pair is reduced; ints and
    # strings are read by rat, and a bool or a float anywhere raises rat's
    # TypeError.
    kwargs = _base_kwargs()
    inst = build_flower_instance(**kwargs)
    assert inst.pairs.cost == tuple((v.numerator, v.denominator) for v in kwargs["cost"])
    mixed = dict(kwargs, p=["1/2", (2, 4)], d=[10, "1"], c_life=[0, 0])
    assert build_flower_instance(**mixed) == inst
    for key in kwargs:
        for bad in (True, 0.5):
            with pytest.raises(TypeError, match=f"^expected an exact rational, got {bad!r}$"):
                build_flower_instance(**dict(kwargs, **{key: [kwargs[key][0], bad]}))


def test_build_flower_instance_reduces_pairs():
    # A (num, den) tuple is read as Fraction(num, den): it is stored in
    # lowest terms with a positive denominator, and a zero denominator
    # fails at build time.
    kwargs = _base_kwargs()
    shared = build_flower_instance(**dict(kwargs, cost=[(2, 20), F(1, 10)]))
    assert shared.pairs.cost == ((1, 10), (1, 10))
    mi = build_multi_agent_instance([build_flower_instance(**kwargs), shared], F(1), F(1, 4))
    assert mi.agents[1].pairs.cost == mi.agents[0].pairs.cost
    assert build_flower_instance(**dict(kwargs, q=[(-1, -2), F(1, 2)])).pairs.q == ((1, 2), (1, 2))
    with pytest.raises(ZeroDivisionError):
        build_flower_instance(**dict(kwargs, d=[(1, 0), F(1)]))


@settings(max_examples=200, deadline=None)
@given(
    st.fractions(min_value=-100, max_value=100),
    st.integers(-9, 9).filter(bool),
    st.sampled_from(FlowerPairs._fields),
    st.integers(0, 1),
)
def test_every_spelling_builds_one_flower(value, k, key, petal):
    # A Fraction, an int (when the value is whole), an "n/d" string and a
    # (k*n, k*d) tuple for any k != 0, negative k included, build equal
    # flowers with equal pairs.
    kwargs = _base_kwargs()
    if key == "p":  # p[petal] in (0, 1/2]; the other petal keeps the sum 1
        value = F(1, 2) / (1 + abs(value))
        kwargs["p"][1 - petal] = 1 - value
    elif key in ("q", "y"):  # q or y in (0, 1/4], so q + y stays in (0, 1)
        value = F(1, 4) / (1 + abs(value))
    elif key == "cost":
        value = abs(value) + 1
    kwargs[key][petal] = value
    reference = build_flower_instance(**kwargs)
    spellings = [str(value), (k * value.numerator, k * value.denominator)]
    if value.denominator == 1:
        spellings.append(value.numerator)
    for spelling in spellings:
        vec = list(kwargs[key])
        vec[petal] = spelling
        inst = build_flower_instance(**dict(kwargs, **{key: vec}))
        assert inst == reference and inst.pairs == reference.pairs


def test_objective_equals_stationary_reward(example):
    dp = derived_params(example)
    for S in all_subsets(example.n):
        pi = stationary_distribution_flower(example, S)
        reward = sum(
            pi[i] * (example.c_platform[i - 1] if i in S else example.c_life[i - 1])
            for i in range(1, example.n + 1)
        )
        assert agent_utility(dp, S) == reward


def test_general_chain_matches_flower_stationary():
    for seed in range(5):
        inst = gen_random_flower(4, seed=seed)
        for S in all_subsets(4):
            chain = flower_as_general_chain(inst, S)
            assert steady_state_general(chain) == stationary_distribution_flower(inst, S)


def test_general_chain_validation():
    with pytest.raises(ProbabilityError):
        build_general_chain([[F(1, 2), F(1, 3)], [F(0), F(1)]])
    with pytest.raises(ProbabilityError):
        build_general_chain([[F(3, 2), F(-1, 2)], [F(0), F(1)]])
    with pytest.raises(SubsetError):
        build_general_chain([[F(1)]], start=2)


def test_steady_state_rejects_two_closed_classes():
    # Two absorbing states reachable from the start.
    chain = build_general_chain(
        [
            [F(0), F(1, 2), F(1, 2)],
            [F(0), F(1), F(0)],
            [F(0), F(0), F(1)],
        ]
    )
    with pytest.raises(ReducibleChain):
        steady_state_general(chain)


def test_steady_state_transient_start_gets_zero_mass():
    chain = build_general_chain(
        [
            [F(0), F(1), F(0)],
            [F(0), F(1, 2), F(1, 2)],
            [F(0), F(1, 2), F(1, 2)],
        ]
    )
    pi = steady_state_general(chain)
    assert pi == (F(0), F(1, 2), F(1, 2))


def test_steady_state_ignores_unreachable_states():
    chain = build_general_chain(
        [
            [F(1), F(0)],
            [F(1, 2), F(1, 2)],
        ],
        start=0,
    )
    assert steady_state_general(chain) == (F(1), F(0))


def test_steady_state_guard(monkeypatch):
    # Past _CHAIN_STATES states the elimination is refused, reachable or
    # not; at the guard it runs.  agent re-exports the one TooLarge.
    assert agent.TooLarge is TooLarge
    chain = build_general_chain([[F(1), F(0)], [F(1, 2), F(1, 2)]])
    monkeypatch.setattr(core, "_CHAIN_STATES", 1)
    with pytest.raises(TooLarge, match="m = 2 states exceed the chain guard 1"):
        steady_state_general(chain)
    monkeypatch.setattr(core, "_CHAIN_STATES", 2)
    assert steady_state_general(chain) == (F(1), F(0))


def _ref_closed_classes(rows, nodes):
    """Reference: strongly connected components (iterative Tarjan) of the
    positive-transition graph that have no edge leaving them, restricted to
    the given node set."""
    nodes = sorted(nodes)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    def strongconnect(v):
        # Iterative Tarjan to avoid recursion limits on larger chains.
        work = [(v, iter([u for u in nodes if rows[v][u] > 0]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter([t for t in nodes if rows[u][t] > 0])))
                    advanced = True
                    break
                if u in on_stack:
                    low[node] = min(low[node], index[u])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while True:
                        u = stack.pop()
                        on_stack.discard(u)
                        comp.add(u)
                        if u == node:
                            break
                    sccs.append(comp)

    for v in nodes:
        if v not in index:
            strongconnect(v)

    closed = []
    for comp in sccs:
        if all(rows[v][u] == 0 for v in comp for u in nodes if u not in comp):
            closed.append(comp)
    return closed


def test_closed_classes_match_tarjan_reference():
    rng = random.Random(4242)
    for _ in range(2500):
        m = rng.randint(1, 8)
        density = rng.choice([0.15, 0.3, 0.5])
        rows = [[int(rng.random() < density) for _ in range(m)] for _ in range(m)]
        for s, row in enumerate(rows):
            if not any(row):
                row[rng.choice([s, rng.randrange(m)])] = 1
        for nodes in (set(range(m)), _reachable(rows, rng.randrange(m))):
            got = {frozenset(c) for c in _closed_classes(rows, nodes)}
            want = {frozenset(c) for c in _ref_closed_classes(rows, nodes)}
            assert got == want


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants raise instead.
    # Nor does the package keep a process-wide cache: derived data lives on
    # the instance it comes from, so neither `functools.lru_cache` nor
    # `functools.cache` is imported or named.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files
    caches = {"lru_cache", "cache"}

    def names_cache(node):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            return any(alias.name in caches for alias in node.names)
        return (
            isinstance(node, ast.Attribute)
            and node.attr in caches
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )

    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"
        lines = [node.lineno for node in ast.walk(tree) if names_cache(node)]
        assert not lines, f"{path.name}: process-wide cache on lines {lines}"


def test_package_writes_no_attribute_behind_its_object():
    # An object's attributes are set by its own class: no module writes one
    # through vars(obj)[...] (or a dict method on vars(obj)), obj.__dict__
    # or object.__setattr__, which would get round a frozen dataclass.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files
    writes = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}

    def is_vars(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars"

    def back_door(node):
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, (ast.Store, ast.Del)) and is_vars(node.value)
        if not isinstance(node, ast.Attribute):
            return False
        if node.attr == "__dict__" or (is_vars(node.value) and node.attr in writes):
            return True
        obj = node.value
        return node.attr == "__setattr__" and isinstance(obj, ast.Name) and obj.id == "object"

    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if back_door(node)]
        assert not lines, f"{path.name}: attribute written behind its object on lines {lines}"


def test_package_has_no_unused_imports():
    # Every name a module imports is read in that module; the names that
    # `__init__.py` lists in `__all__` are its re-exports.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def test_package_imports_no_private_names():
    # A name one module imports from another is public: a leading
    # underscore marks what only its own module reads.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        private = sorted(
            (node.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_")
        )
        assert not private, f"{path.name}: private names imported (line, name) {private}"


def test_package_imports_each_name_from_its_module():
    # `from .module import Name` names the module whose top level defines
    # Name, not one that imports it in turn: TooLarge and SignError, say,
    # come from core, though agent re-exports them.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(pdp.__file__).parent.glob("*.py"))
    }
    assert trees

    def defined(tree):
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        return names

    defines = {stem: defined(tree) for stem, tree in trees.items()}
    for stem, tree in trees.items():
        borrowed = sorted(
            (node.lineno, node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
            if alias.name not in defines[node.module]
        )
        assert not borrowed, f"{stem}.py: names not defined where imported from {borrowed}"


def test_package_calls_float_only_for_decimal_output():
    # Solver paths never use floats: the package's one float() call is
    # cli._exact's, the decimal written beside an exact result.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files

    def float_calls(tree):
        return {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
        }

    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "cli.py":
            (exact,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_exact")
            allowed = float_calls(exact)
            assert allowed
        lines = sorted(float_calls(tree) - allowed)
        assert not lines, f"{path.name}: float() on lines {lines}"


def test_package_tests_for_float_only_in_rat():
    # core.rat is the package's one reader of an exact value: it is the one
    # place that tells a float from an exact rational, so no second reader
    # with its own isinstance(..., float) test grows up beside it.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files

    def names_float(node):
        return any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(node))

    def float_tests(tree):
        return {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(map(names_float, node.args[1:]))
        }

    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = set()
        if path.name == "core.py":
            (reader,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "rat")
            allowed = float_tests(reader)
            assert allowed
        lines = sorted(float_tests(tree) - allowed)
        assert not lines, f"{path.name}: isinstance(..., float) on lines {lines}"


def test_package_bounds_are_constants():
    # An enumeration guard, a grid budget or a ceiling is a fixed bound of
    # the algorithm, kept as a module constant that a test can patch, never
    # a parameter that a caller can change.
    files = sorted(Path(pdp.__file__).parent.glob("*.py"))
    assert files

    def is_bound(name):
        return name in ("guard", "budget") or name.endswith("_ceiling")

    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [
            (getattr(node, "name", "lambda"), arg.arg)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
            if is_bound(arg.arg)
        ]
        assert not found, f"{path.name}: bound parameters {found}"
