import signal
from fractions import Fraction as F

import pytest

from pdp.core import build_flower_instance


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

