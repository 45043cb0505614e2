import math
import random

import pytest
from hypothesis import given, strategies as st

from qshell.qmath import DeformationParameter, q_bracket

REAL_038 = DeformationParameter(0.038)


@pytest.mark.parametrize(
    "d",
    [
        REAL_038,
        DeformationParameter(0.0),
        DeformationParameter(-0.12),
    ],
    # d1 and d3 were the cases of the deleted phase deformation
    ids=["d0", "d2", "d4"],
)
def test_bracket_fixed_points(d):
    assert q_bracket(0, d) == 0.0
    assert q_bracket(1, d) == pytest.approx(1.0, rel=1e-14)


def test_bracket_two_is_two_cosh_tau():
    # independent identity: [2] = q + 1/q = 2 cosh(tau)
    assert q_bracket(2, REAL_038) == pytest.approx(2 * math.cosh(0.038), rel=1e-14)
    assert q_bracket(2, REAL_038) == pytest.approx(2.001444173769697, rel=1e-12)


def test_bracket_three_is_one_plus_two_cosh_2tau():
    # independent identity: [3] = q^2 + 1 + q^-2 = 1 + 2 cosh(2 tau)
    assert q_bracket(3, REAL_038) == pytest.approx(1 + 2 * math.cosh(0.076), rel=1e-14)
    assert q_bracket(3, REAL_038) == pytest.approx(3.005778780716666, rel=1e-12)


def test_tau_zero_returns_x_exactly():
    d = DeformationParameter(0.0)
    for x in (0.0, 1.0, 7.0, -3.5, 19.25):
        assert q_bracket(x, d) == x


@given(
    x=st.floats(min_value=-40, max_value=40),
    tau=st.floats(min_value=-0.6, max_value=0.6),
)
def test_antisymmetry_real(x, tau):
    d = DeformationParameter(tau)
    assert q_bracket(-x, d) == pytest.approx(-q_bracket(x, d), rel=1e-12, abs=1e-300)


def test_classical_limit():
    d = DeformationParameter(1e-8)
    for x in range(1, 21):
        assert abs(q_bracket(x, d) - x) < 1e-6 * x


@given(
    x1=st.floats(min_value=0, max_value=30),
    dx=st.floats(min_value=1e-6, max_value=10),
    tau=st.floats(min_value=1e-4, max_value=1.0),
)
def test_monotone_in_x_for_positive_real_tau(x1, dx, tau):
    d = DeformationParameter(tau)
    assert q_bracket(x1 + dx, d) > q_bracket(x1, d)


def test_hyperbolic_form_matches_exponential_form():
    # two independent evaluations of the same definition
    rng = random.Random(20240814)
    for _ in range(100):
        x = rng.uniform(-30, 30)
        tau = rng.uniform(0.005, 0.5)
        d = DeformationParameter(tau)
        q = math.exp(tau)
        direct = (q**x - q**-x) / (q - 1 / q)
        assert q_bracket(x, d) == pytest.approx(direct, rel=1e-12, abs=1e-290)


@pytest.mark.parametrize("bad_tau", [math.inf, -math.inf, math.nan])
def test_nonfinite_tau_rejected(bad_tau):
    with pytest.raises(ValueError):
        DeformationParameter(bad_tau)


@pytest.mark.parametrize("bad_x", [math.inf, -math.inf, math.nan])
def test_nonfinite_x_rejected(bad_x):
    with pytest.raises(ValueError):
        q_bracket(bad_x, REAL_038)


def test_parameter_is_frozen():
    with pytest.raises(AttributeError):
        REAL_038.tau = 0.5
