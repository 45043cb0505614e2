import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from qshell.qmath import DeformationKind, DeformationParameter
from qshell.spectrum import (
    InvalidLevelError,
    Level,
    ModelParameters,
    allowed_l,
    casimir_eigenvalue,
    energy,
    energy_taylor,
    enumerate_levels,
    mean_L2,
    nilsson_energy,
    _levels_up_to,
    _shape,
)

D038 = DeformationParameter(0.038)
P038 = ModelParameters(D038)


def params(tau, hw=1.0, n_max=24):
    return ModelParameters(DeformationParameter(tau), hw, n_max)


# ---------------------------------------------------------------- branching


@pytest.mark.parametrize(
    "n,expected",
    [(0, [0]), (1, [1]), (3, [3, 1]), (4, [4, 2, 0]), (7, [7, 5, 3, 1])],
)
def test_allowed_l(n, expected):
    assert allowed_l(n) == expected


@given(n=st.integers(min_value=0, max_value=60))
def test_allowed_l_shape(n):
    ls = allowed_l(n)
    assert ls[0] == n and ls[-1] == n % 2
    assert all(a - b == 2 for a, b in zip(ls, ls[1:]))
    assert len(ls) == n // 2 + 1


def test_allowed_l_negative_rejected():
    with pytest.raises(ValueError):
        allowed_l(-1)


@given(n=st.integers(min_value=0, max_value=40))
def test_branching_degeneracy_completeness(n):
    assert sum(2 * (2 * l + 1) for l in allowed_l(n)) == (n + 1) * (n + 2)


# ----------------------------------------------------------------- casimir


def test_casimir_values():
    assert casimir_eigenvalue(0, D038) == 0.0
    assert casimir_eigenvalue(1, D038) == pytest.approx(2.001444173769697, rel=1e-12)
    assert casimir_eigenvalue(2, D038) == pytest.approx(6.015898428305955, rel=1e-12)


def test_casimir_negative_l_rejected():
    with pytest.raises(ValueError):
        casimir_eigenvalue(-1, D038)


# ------------------------------------------------------------------ energy


@pytest.mark.parametrize(
    "n,l,printed",
    [(0, 0, 0.000), (2, 0, 2.243), (9, 3, 12.939), (16, 16, 20.226)],
)
def test_energy_reproduces_published_rows(n, l, printed):
    assert round(energy(n, l, P038), 3) == printed


def test_energy_tau_zero_is_exactly_n():
    p = params(0.0, hw=3.0)
    for n in range(8):
        for l in allowed_l(n):
            assert energy(n, l, p) == 3.0 * n


def test_energy_one_one_is_unity():
    # algebraic identity: [1] q^2 - q (q - 1/q) = 1 for every tau
    for tau in (0.01, 0.038, 0.2, 1.0):
        assert energy(1, 1, params(tau)) == pytest.approx(1.0, rel=1e-12)


def test_energy_rejects_phase_kind():
    p = ModelParameters(DeformationParameter(0.3, DeformationKind.PHASE))
    with pytest.raises(ValueError, match="REAL"):
        energy(2, 0, p)
    with pytest.raises(ValueError, match="REAL"):
        energy_taylor(2, 0, p, order=2)


@pytest.mark.parametrize("n,l", [(2, 1), (1, 0), (3, 4), (5, -1), (-1, 1)])
def test_energy_rejects_branching_violations(n, l):
    with pytest.raises(InvalidLevelError):
        energy(n, l, P038)


def test_energy_matches_exponential_form():
    # independent evaluation straight from exponentials
    for tau in (0.01, 0.038, 0.11):
        q = math.exp(tau)
        p = params(tau)
        for n in range(13):
            for l in allowed_l(n):
                qb = lambda x: (q**x - q**-x) / (q - 1 / q)
                direct = qb(n) * q ** (n + 1) - q * (q - 1 / q) / qb(2) * qb(l) * qb(l + 1)
                assert energy(n, l, p) == pytest.approx(direct, rel=1e-12, abs=1e-14)


@given(
    c=st.floats(min_value=0.01, max_value=100),
    n=st.integers(min_value=0, max_value=16),
)
def test_energy_scale_equivariance(c, n):
    l = allowed_l(n)[0 if n % 2 else -1]
    assert energy(n, l, params(0.038, hw=c)) == pytest.approx(
        c * energy(n, l, P038), rel=1e-12, abs=1e-300
    )


@pytest.mark.parametrize("tau", [0.01, 0.038, 0.1])
def test_intra_shell_energy_decreases_with_l(tau):
    p = params(tau)
    for n in range(2, 13):
        energies = [energy(n, l, p) for l in allowed_l(n)]
        # allowed_l is descending in l, so energies must be ascending
        assert all(a < b for a, b in zip(energies, energies[1:]))


def _relative_error_50_digits(value, n, l, tau):
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        bracket = lambda k: mpmath.sinh(t * k) / mpmath.sinh(t)
        q = mpmath.exp(t)
        exact = bracket(n) * q ** (n + 1) - q * mpmath.tanh(t) * bracket(l) * bracket(l + 1)
        return abs((mpmath.mpf(value) - exact) / exact)


@pytest.mark.parametrize(
    "tau", [1e-8, 1e-6, 1e-4, 1e-3, 0.01, 0.038, 0.1, 0.2, 0.3, 0.4, 0.4839516553964115, 0.5]
)
def test_energy_relative_error_against_mpmath(tau):
    """energy() is within (2n + 8) eps of the 50-digit value, eps = 2**-52.

    The error grows with n: q ** (n + 1) multiplies the rounding of
    q = e^tau by n + 1, and [n] q^(n+1) partly cancels against the
    Casimir term on the stretched levels.  Over 300 random tau in
    [1e-8, 0.5] (half log-uniform) and every level with n <= 40, the
    measured worst case was 60 eps at (39, 39), tau = 0.48395..., and
    4 eps at n = 1; (2n + 8) eps bounds every shell with at least 1.3x
    headroom.  E(0, 0) is exactly 0.
    """
    p = params(tau, n_max=40)
    assert energy(0, 0, p) == 0.0
    for n in range(1, 41):
        bound = (2 * n + 8) * 2.0**-52
        for l in allowed_l(n):
            assert _relative_error_50_digits(energy(n, l, p), n, l, tau) <= bound, (n, l)


def test_small_tau_deviation_is_first_order():
    # E - n ~ tau (n(n+1) - l(l+1)); at tau = 1e-8 the worst case over
    # n <= 10 is (10,0) with coefficient 110
    p = params(1e-8)
    worst = max(abs(energy(n, l, p) - n) for n in range(11) for l in allowed_l(n))
    assert worst < 1.2e-6
    assert abs(energy(10, 0, p) - 10) == pytest.approx(110e-8, rel=1e-3)


# ------------------------------------------------------------------ taylor


def test_taylor_order_validation():
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            energy_taylor(2, 0, P038, order=bad)


def test_taylor_tau_zero_is_n():
    p = params(0.0, hw=2.0)
    for n in range(6):
        for l in allowed_l(n):
            assert energy_taylor(n, l, p, order=2) == 2.0 * n


def test_taylor_known_value():
    # 2 + 0.038*6 + 0.038^2*10
    assert energy_taylor(2, 0, P038, order=1) == pytest.approx(2.228, rel=1e-12)
    assert energy_taylor(2, 0, P038, order=2) == pytest.approx(2.24244, rel=1e-12)


def test_taylor_order_two_beats_order_one():
    exact = energy(2, 0, P038)
    assert abs(exact - energy_taylor(2, 0, P038, 2)) < abs(exact - energy_taylor(2, 0, P038, 1))


def _ratio(n, l, tau):
    hi = abs(energy(n, l, params(tau)) - energy_taylor(n, l, params(tau), 2))
    lo = abs(energy(n, l, params(tau / 2)) - energy_taylor(n, l, params(tau / 2), 2))
    return hi / lo


@pytest.mark.parametrize("n,l", [(2, 0), (4, 2), (5, 3), (6, 4), (6, 2)])
@pytest.mark.parametrize("tau", [0.04, 0.02])
def test_taylor_remainder_is_cubic_below_the_diagonal(n, l, tau):
    # remainder coefficient (n^2(n+1)^2 - l^2(l+1)^2)/3 is nonzero for l < n,
    # so halving tau divides the order-2 residual by about 8
    assert 6 <= _ratio(n, l, tau) <= 10


@pytest.mark.parametrize("n", [2, 4, 6])
def test_taylor_remainder_is_quartic_on_stretched_levels(n):
    # on l = n the cubic coefficient vanishes identically and the residual
    # scales by about 16 when tau doubles
    assert 13 <= _ratio(n, n, 0.04) <= 19


# ----------------------------------------------------------------- nilsson


def test_nilsson_reduces_to_oscillator_at_zero_coupling():
    assert nilsson_energy(2, 0, kappa_prime=0.0) == 3.5


def test_nilsson_known_values():
    assert nilsson_energy(2, 2, 0.05) == pytest.approx(3.45, rel=1e-12)
    assert nilsson_energy(4, 4, 0.05) == pytest.approx(5.2, rel=1e-12)


def test_nilsson_validates_inputs():
    with pytest.raises(InvalidLevelError):
        nilsson_energy(2, 1, 0.05)
    with pytest.raises(ValueError):
        nilsson_energy(2, 0, 0.05, hbar_omega=-1.0)


@pytest.mark.parametrize("N,expected", [(0, 0), (2, 5), (3, 9)])
def test_mean_l2(N, expected):
    value = mean_L2(N)
    assert value == expected and isinstance(value, int)


@given(N=st.integers(min_value=0, max_value=10**6))
def test_mean_l2_closed_form(N):
    assert 2 * mean_L2(N) == N * (N + 3)


def test_mean_l2_negative_rejected():
    with pytest.raises(ValueError):
        mean_L2(-2)


# ------------------------------------------------------------- enumeration


def test_enumerate_levels_smallest_cases():
    levs = enumerate_levels(params(0.038, n_max=1))
    assert [(lv.n, lv.l, lv.degeneracy) for lv in levs] == [(0, 0, 2), (1, 1, 6)]
    assert levs[0].energy == 0.0
    assert levs[1].energy == pytest.approx(1.0, rel=1e-12)
    assert len(enumerate_levels(params(0.038, n_max=2))) == 4


@given(
    tau=st.floats(min_value=0.0, max_value=0.5),
    hw=st.floats(min_value=0.1, max_value=5.0),
    n_max=st.integers(min_value=1, max_value=40),
)
def test_enumerate_levels_is_bitwise_energy(tau, hw, n_max):
    # The per-tau table must round exactly like energy(): the CSV and JSON
    # output print repr(energy).
    p = params(tau, hw, n_max)
    levels = enumerate_levels(p)
    assert len(levels) == sum(n // 2 + 1 for n in range(n_max + 1))
    for lev in levels:
        assert lev.energy.hex() == energy(lev.n, lev.l, p).hex(), (lev.n, lev.l)


def test_enumerate_levels_counts_and_capacity():
    levs = enumerate_levels(P038)
    assert len(levs) == sum(n // 2 + 1 for n in range(25))
    for n in range(25):
        shell = [lv for lv in levs if lv.n == n]
        assert sum(lv.degeneracy for lv in shell) == (n + 1) * (n + 2)


def test_model_parameters_validation():
    with pytest.raises(ValueError):
        ModelParameters(D038, hbar_omega0=0.0)
    with pytest.raises(ValueError):
        ModelParameters(D038, hbar_omega0=math.inf)
    with pytest.raises(ValueError):
        ModelParameters(D038, n_max=0)


def test_model_parameters_reject_negative_tau():
    # Below tau = 0 the lowest level of a shell is no longer (n, n), and a
    # truncated scheme could silently miss levels.
    with pytest.raises(ValueError, match="tau must be >= 0"):
        params(-0.038)
    assert params(0.0).deformation.tau == 0.0


def test_level_validation():
    with pytest.raises(InvalidLevelError):
        Level(2, 1, 2.0, 6)
    with pytest.raises(ValueError):
        Level(2, 2, 2.0, 8)  # capacity must be 2(2l+1) = 10


# ------------------------------------------------------------ level shape


@pytest.mark.parametrize("tau", [0.0, 0.038, 0.5])
@pytest.mark.parametrize("n_hi", [1, 2, 24, 33])
def test_table_levels_are_valid_levels(tau, n_hi):
    # The table builds its levels without Level.__new__; each must still
    # be a Level that Level's own check accepts unchanged.
    p = params(tau, n_max=n_hi)
    for table in (enumerate_levels(p), _levels_up_to(p, n_hi), _levels_up_to(p, n_hi + 9)):
        for lev in table:
            assert type(lev) is Level
            assert Level._make(lev) == lev


def test_shape_columns():
    ns, ls, degeneracies, by_n_l = _shape(4)
    assert list(zip(ns, ls)) == [(0, 0), (1, 1), (2, 2), (2, 0), (3, 3), (3, 1),
                                 (4, 4), (4, 2), (4, 0)]
    assert degeneracies == tuple(2 * (2 * l + 1) for l in ls)
    assert [(ns[i], ls[i]) for i in by_n_l] == sorted(zip(ns, ls))


@pytest.mark.parametrize("bad_l", [
    lambda n: [n, n - 1],   # parity
    lambda n: [n + 2, n],   # l > n
])
def test_shape_checks_every_level(monkeypatch, bad_l):
    import qshell.spectrum as spectrum

    monkeypatch.setattr(spectrum, "allowed_l", bad_l)
    _shape.cache_clear()
    try:
        with pytest.raises(InvalidLevelError, match="branching rule"):
            _shape(3)
    finally:
        _shape.cache_clear()
