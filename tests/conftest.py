from fractions import Fraction as F

import pytest

from pdp.core import build_flower_instance


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

