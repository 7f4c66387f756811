import pathlib
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from msrmp import parse_model
from msrmp.model import MitigationScale

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

RUNNING = FIXTURES / "running-example.json"
SMALL = FIXTURES / "example-small.json"


@pytest.fixture(scope="session")
def running_model():
    """Five threats, 25 controls, two stakeholders, fixed assignment."""
    return parse_model(RUNNING.read_bytes())


@pytest.fixture(scope="session")
def small_model():
    """Three threats, five controls, two stakeholders, no assignment."""
    return parse_model(SMALL.read_bytes())


# a mitigation scale other than the default: 0 and 1-3 more levels, ascending
scales = st.lists(
    st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
                     Fraction(2, 3), Fraction(3, 4), Fraction(1)]),
    min_size=1, max_size=3, unique=True,
).map(lambda more: (Fraction(0), *sorted(more)))


def with_scale(m, levels):
    """The model m on the mitigation levels given, same impact scale."""
    return m._replace(scale=MitigationScale(levels, m.scale.impact_scale_max))
