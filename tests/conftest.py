import signal
from fractions import Fraction as F

import pytest

from pdp.core import build_flower_instance
from pdp.instances import gen_random_flower


# Seconds a test may run before it fails.  The slowest tests take about 13 s
# on a 2-core x86-64 machine; the limit turns a search that never ends into a
# failure instead of a hung suite.
TEST_SECONDS = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        pytest.fail(f"ran past the {TEST_SECONDS} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_example():
    """Two-petal reference instance used across the suite."""
    return build_flower_instance(
        p=[F(1, 2), F(1, 2)],
        q=[F(1, 2), F(1, 2)],
        y=[F(1, 4), F(1, 4)],
        c_life=[F(0), F(0)],
        c_platform=[F(1), F(2)],
        d=[F(10), F(1)],
        cost=[F(1, 10), F(1, 10)],
    )


@pytest.fixture
def example():
    return make_example()


# Identical petals apart from a few reward and cost levels, so that
# potentials and utilities repeat and the tie-break decides.
NARROW = {"z_max": 1, "weight_max": 1, "q_steps": 1, "c_life_max": 0,
          "c_platform_max": 4, "d_max": 4, "cost_max": 3}
MIXED = {"allow_negative_z": True}
FLOWER_KINDS = (None, NARROW, MIXED, {**NARROW, **MIXED})


@pytest.fixture(scope="session")
def reference_flowers():
    """1,000 seeded flowers, n = 1..200, cycling through FLOWER_KINDS.

    The integer solvers and derived_params are checked against their
    Fraction references on these."""
    return [
        gen_random_flower(1 + idx % 200, seed=18000 + idx, ranges=FLOWER_KINDS[idx % 4])
        for idx in range(1000)
    ]
