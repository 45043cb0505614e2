import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from qshell.qmath import DeformationParameter, q_bracket
from qshell.spectrum import (
    InvalidLevelError,
    Level,
    ModelParameters,
    allowed_l,
    casimir_eigenvalue,
    energy,
    energy_taylor,
    enumerate_levels,
    _TOLERANCE,
    _drift_bounds,
    _energies_up_to,
    _level_energy,
    _shape,
    _term_error,
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
    tau=st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
    hw=st.sampled_from([1.0, 1.7, 0.3, 41.0, 1e-3]),
    n=st.integers(min_value=0, max_value=40),
    pick=st.integers(min_value=0),
)
def test_energy_is_the_q_bracket_formula_bit_for_bit(tau, hw, n, pick):
    # The public q-bracket pieces stay the formula that energy() evaluates.
    l = allowed_l(n)[pick % (n // 2 + 1)]
    d = DeformationParameter(tau)
    q = math.exp(tau)
    reference = hw * (q_bracket(n, d) * q ** (n + 1) - q * math.tanh(tau) * casimir_eigenvalue(l, d))
    assert energy(n, l, params(tau, hw)).hex() == reference.hex()


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


@given(
    tau=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5),
                  st.floats(min_value=6.0, max_value=9.0),
                  st.floats(min_value=200.0, max_value=400.0)),
    hw=st.one_of(st.floats(min_value=0.1, max_value=5.0),
                 st.floats(min_value=1e300, max_value=1e308)),
    n_hi=st.integers(min_value=1, max_value=40),
)
@example(tau=300.0, hw=1.0, n_hi=1)  # the column refuses: its floor, shell 2, overflows
@example(tau=8.096, hw=1.0, n_hi=1)  # shells 0..1 are accepted, a bound for 0..2 would refuse
@example(tau=0.0, hw=1e308, n_hi=1)  # the floor, 2 hbar_omega0, reads inf
@example(tau=0.038, hw=1e308, n_hi=1)  # and E(2, 2) ~ 2 hbar_omega0 too
def test_next_shell_floor_is_bitwise_energy(tau, hw, n_hi):
    # build_scheme's completeness floor: energy() of level (n_hi + 1, n_hi + 1).
    # Between tau = 6 and 9 the column starts to refuse cancelling energies;
    # energy() never refuses a finite floor of a column that was accepted,
    # and refuses a floor past the float range, which the column lets read inf.
    p = params(tau, hw, n_hi)
    try:
        _, floor = _energies_up_to(p, n_hi)
    except ValueError:  # the table itself overflows
        return
    if not math.isfinite(floor):
        with pytest.raises(ValueError, match=rf"shells 0\.\.{n_hi + 1} overflow a float"):
            energy(n_hi + 1, n_hi + 1, p)
        return
    assert floor.hex() == energy(n_hi + 1, n_hi + 1, p).hex()


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


@pytest.mark.parametrize("hw", [5e-324, 1e-323, math.nextafter(sys.float_info.min, 0.0)])
def test_model_parameters_reject_subnormal_scale(hw):
    # At hbar_omega0 = 1e-323 the scaled energies tied, and levels fell
    # back to (n, l) order: (2, 0) came before (2, 2).
    with pytest.raises(ValueError, match="hbar_omega0 must be a normal positive float"):
        ModelParameters(D038, hbar_omega0=hw)
    assert ModelParameters(D038, hbar_omega0=sys.float_info.min).hbar_omega0 > 0


@pytest.mark.parametrize("hw", [sys.float_info.min, 1e-200, 2.5e298])
def test_normal_scale_keeps_the_level_order(hw):
    # Over the fitted tau range; at tau near 1e-16 the levels of a shell
    # are an ulp apart, and any scale that is not a power of 2 can tie them.
    def order(tau, scale):
        levels = enumerate_levels(params(tau, scale, 30))
        return [(lev.n, lev.l) for lev in sorted(levels, key=lambda v: (v.energy, v.n, v.l))]

    for k in range(1, 101):
        assert order(k / 1000, hw) == order(k / 1000, 1.0), k


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
    for table in (enumerate_levels(p), enumerate_levels(p._replace(n_max=n_hi + 9))):
        for lev in table:
            assert type(lev) is Level
            assert Level._make(lev) == lev


def test_shape_columns():
    ns, ls, degeneracies, by_n_l = _shape(4)
    assert list(zip(ns, ls)) == [(0, 0), (1, 1), (2, 2), (2, 0), (3, 3), (3, 1),
                                 (4, 4), (4, 2), (4, 0)]
    assert degeneracies == tuple(2 * (2 * l + 1) for l in ls)
    assert [(ns[i], ls[i]) for i in by_n_l] == sorted(zip(ns, ls))


def _exact_terms(n, l, t):
    # [n] q^(n+1) and q tanh(tau) [l][l+1] at mpmath's working precision.
    bracket = lambda k: mpmath.sinh(t * k) / mpmath.sinh(t)
    q = mpmath.exp(t)
    return bracket(n) * q ** (n + 1), q * mpmath.tanh(t) * bracket(l) * bracket(l + 1)


@settings(deadline=None, max_examples=60)
@given(
    tau=st.one_of(st.floats(min_value=1e-6, max_value=0.5), st.floats(min_value=6.0, max_value=9.0),
                  st.floats(min_value=1e-6, max_value=30.0)),
    hw=st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e3)),
    n_hi=st.integers(min_value=1, max_value=30),
)
@example(tau=8.0, hw=1.0, n_hi=1)
def test_accepted_energies_are_within_their_rounding_bound(tau, hw, n_hi):
    # Every energy _energies_up_to returns, and its floor, is within
    # _term_error * hbar_omega0 * (shell + casimir) of the 40-digit value,
    # and within _TOLERANCE of it relatively; beyond that it refuses.
    p = params(tau, hw, n_hi)
    try:
        energies, floor = _energies_up_to(p, n_hi)
    except ValueError as exc:
        assert "overflow a float" in str(exc) or "cancel at tau" in str(exc)
        return
    ns, ls, _, _ = _shape(n_hi)
    with mpmath.workdps(40):
        for n, l, value in [*zip(ns, ls, energies), (n_hi + 1, n_hi + 1, floor)]:
            shell, casimir = _exact_terms(n, l, mpmath.mpf(tau))
            exact = hw * (shell - casimir)
            error = abs(value - exact)
            assert error <= _term_error(tau, n_hi) * hw * (shell + casimir), (n, l)
            assert error <= _TOLERANCE * exact, (n, l)


@pytest.mark.parametrize("n", [1, 2])
def test_energy_refuses_cancelling_terms(n):
    # At tau = 20, E(1, 1) = 1 and E(2, 2) ~ 2.4e17 both evaluated to 0.0.
    with pytest.raises(ValueError, match=rf"E\({n}, {n}\) cancel at tau=20\.0"):
        energy(n, n, params(20.0))


@pytest.mark.parametrize("n, l, tau", [(1000, 0, 1.0), (1000, 1000, 1.0), (3, 1, 1000.0)])
def test_energy_refuses_overflowing_terms(n, l, tau):
    # As the column of shells 0..n does; energy(1000, 0) used to raise a bare
    # OverflowError from q ** 1001.
    p = params(tau, n_max=n)
    message = rf"energies of shells 0\.\.{n} overflow a float at tau={tau!r}"
    with pytest.raises(ValueError, match=message):
        energy(n, l, p)
    with pytest.raises(ValueError, match=message):
        _energies_up_to(p, n)


@pytest.mark.parametrize("n, l, tau, hw", [
    (1000, 1000, 0.5, 1.0),   # both terms round to inf, and inf - inf is nan
    (1000, 0, 0.5, 1.0),      # the shell term rounds to inf
    (3, 3, 0.038, 1e308),     # a finite difference times hbar_omega0
    (2, 2, 0.0, 1e308),       # hbar_omega0 * n at tau = 0
])
def test_energy_refuses_values_past_the_float_range(n, l, tau, hw):
    # Never inf or nan: the column of shells 0..n refuses these too.
    p = params(tau, hw, n_max=n)
    message = rf"energies of shells 0\.\.{n} overflow a float at tau={tau!r}"
    with pytest.raises(ValueError, match=message):
        energy(n, l, p)
    with pytest.raises(ValueError, match=message):
        _energies_up_to(p, n)


@pytest.mark.parametrize("tau", [8.2, 9.0, 20.0, 1000.0])
def test_energy_of_the_lowest_level_is_zero_at_every_tau(tau):
    # Both terms of E(0, 0) are exactly 0, so nothing cancels; at tau = 1000
    # even q = e^tau would overflow.
    assert energy(0, 0, params(tau)) == 0.0
    assert energy(0, 0, params(tau, hw=1e300)) == 0.0


def _global_curvature_bound(n_max, hw, tau):
    # One bound for every pair of levels of shells 0..n_max + 1, term by
    # term: the top shell's S'' and the bound on the top l's C''.
    top = n_max + 1
    y, f = math.exp(tau), math.exp(tau) * math.tanh(tau)
    total = 0.0
    for i in range(1, top + 1):
        k, weight = 2 * i - 1, 2 * (top - i + 1)
        total += 4 * i * i * math.exp(2 * i * tau) + weight * (
            2 * y * math.cosh(k * tau) + 2.5 * y * k * math.sinh(k * tau)
            + f * k * k * math.cosh(k * tau))
    return hw * total * (1 + 1e-9)


@settings(deadline=None, max_examples=60)
@given(
    tau_hi=st.floats(min_value=1e-3, max_value=1.0),
    share=st.floats(min_value=1e-3, max_value=1.0),
    n_max=st.integers(min_value=1, max_value=60),
    hw=st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e3)),
    first=st.integers(min_value=0),
    second=st.integers(min_value=0),
)
def test_drift_bounds_hold(tau_hi, share, n_max, hw, first, second):
    # At any tau <= tau_hi, |S2[n] - S2[n']| + |C2[l] - C2[l']|, with the
    # caller's slack of 2^-40 times the entries, bounds the second derivative
    # of the difference of two levels of shells 0..n_max + 1, and
    # S_err[n] + C_err[l] the rounding of each level's energy; the top
    # entries sum the terms of the one global bound.
    shell2, casimir2, shell_error, casimir_error = _drift_bounds(n_max, hw, tau_hi)
    m = shell2[-1] + casimir2[-1]
    assert m == pytest.approx(_global_curvature_bound(n_max, hw, tau_hi), rel=1e-12, abs=0)
    for table in (shell2, casimir2, shell_error, casimir_error):
        assert len(table) == n_max + 2 and table == sorted(table) and table[0] == 0.0
    tau = tau_hi * share
    ns, ls, _, _ = _shape(n_max + 1)
    a, b = first % len(ns), second % len(ns)
    with mpmath.workdps(40):
        def level(i):
            return lambda t: hw * (lambda s, c: s - c)(*_exact_terms(ns[i], ls[i], t))

        t = mpmath.mpf(tau)
        curvature_a = mpmath.diff(level(a), t, 2)
        curvature_b = mpmath.diff(level(b), t, 2)
        (na, la), (nb, lb) = (ns[a], ls[a]), (ns[b], ls[b])
        pair = (abs(shell2[na] - shell2[nb]) + abs(casimir2[la] - casimir2[lb])
                + 2.0 ** -40 * (shell2[na] + shell2[nb] + casimir2[la] + casimir2[lb]))
        assert abs(curvature_a - curvature_b) <= pair <= 2 * m
        assert abs(curvature_a) <= shell2[na] + casimir2[la]  # against E(0, 0) = 0
        energies, floor = _energies_up_to(params(tau, hw, n_max), n_max)
        # Shells 0..n_max keep their table index; shell n_max + 1 is the floor.
        for i in (a, b):
            if ls[i] == ns[i] or ns[i] <= n_max:
                value = energies[i] if ns[i] <= n_max else floor
                assert abs(value - level(i)(t)) <= shell_error[ns[i]] + casimir_error[ls[i]]


@settings(deadline=None)
@given(tau=st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.floats(min_value=1.0, max_value=8.0)),
       hw=st.one_of(st.just(1.0), st.just(1.7), st.floats(min_value=1e-3, max_value=1e3)),
       n_max=st.integers(min_value=1, max_value=60))
def test_level_energy_is_the_column_bit_for_bit(tau, hw, n_max):
    # One level at a time, the sweep's stations see the kernel's floats.
    try:
        energies, floor = _energies_up_to(params(tau, hw, n_max), n_max)
    except ValueError:
        return
    level = _level_energy(tau, hw)
    ns, ls, _, _ = _shape(n_max)
    assert [level(n, l) for n, l in zip(ns, ls)] == energies
    assert level(n_max + 1, n_max + 1).hex() == floor.hex()  # nan too, where it overflows
