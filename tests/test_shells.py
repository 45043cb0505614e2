import math
import re
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from qshell import empirics, shells
from qshell.empirics import _fit_point, predicted_primary_magics
from qshell.qmath import DeformationParameter
from qshell.shells import (
    InsufficientNMaxError,
    LevelScheme,
    MagicGrade,
    MagicRecord,
    build_scheme,
    detect_shells,
    render_table,
    _cut,
)
from qshell.spectrum import (Level, ModelParameters, _energies_up_to, _shape, allowed_l, energy,
                             enumerate_levels)

PRIMARY_MAGICS = [
    2, 8, 20, 34, 40, 58, 92, 138, 198, 254, 268, 338, 440, 556, 676,
    694, 832, 912, 1012, 1100, 1206, 1284, 1314, 1410, 1502,
]


def params(tau=0.038, hw=1.0, n_max=24):
    return ModelParameters(DeformationParameter(tau), hw, n_max)


def primaries(records):
    return [r.count for r in records if r.grade is MagicGrade.PRIMARY]


# ------------------------------------------------------------ build_scheme


def test_small_scheme_prefix():
    s = build_scheme(params(), count_limit=20)
    assert [(lv.n, lv.l) for lv in s.levels] == [(0, 0), (1, 1), (2, 2), (2, 0)]
    assert list(s.cumulative) == [2, 8, 18, 20]


def test_minimal_scheme():
    s = build_scheme(params(), count_limit=2)
    assert [(lv.n, lv.l) for lv in s.levels] == [(0, 0)]
    assert list(s.cumulative) == [2]


def test_truncation_keeps_totals_within_limit():
    # a level is kept only if it fits: limit 19 cannot take the 2-particle
    # level that would land on 20
    assert list(build_scheme(params(), count_limit=19).cumulative) == [2, 8, 18]
    assert list(build_scheme(params(), count_limit=18).cumulative) == [2, 8, 18]
    assert list(build_scheme(params(), count_limit=8).cumulative) == [2, 8]


@pytest.mark.parametrize("tau, n_max", [(0.0, 1), (0.0, 5), (0.038, 2)])
def test_a_limit_that_every_level_fills_exactly_is_complete(tau, n_max):
    # count_limit, not n_max, ends a scheme whose total meets the limit,
    # even when it keeps every level of shells 0..n_max.
    capacity = (n_max + 1) * (n_max + 2) * (n_max + 3) // 3
    s = build_scheme(params(tau=tau, n_max=n_max), capacity)
    assert len(s.levels) == len(enumerate_levels(params(n_max=n_max)))
    assert s.cumulative[-1] == capacity


def test_degenerate_shells_tie_break():
    s = build_scheme(params(tau=0.0), count_limit=40)
    # equal energies ordered by n then l: (2,0) precedes (2,2)
    assert [(lv.n, lv.l) for lv in s.levels] == [
        (0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3),
    ]
    # per-shell totals are unaffected by intra-shell order
    assert [c for c in s.cumulative if c in (2, 8, 20, 40)] == [2, 8, 20, 40]


# (tau, count_limit, n_max, hbar_omega0): each column holds float ties within
# a shell, and at tau 1.558 (14, 2) and (14, 0) tie just above the cut.
EXACT_ORDER_INPUTS = [
    (1.558, 1412, 24, 1.0), (1.3, 1520, 24, 1.0),
    (2.0, 1520, 24, 1.0), (3.0, 1520, 24, 1.0), (5.0, 1520, 24, 1.0), (7.0, 1520, 24, 1.0),
    (2.631647282022267, 17819, 38, 1.7),
    (0.5, 50000, 80, 1.0),
    (1e-17, 10, 24, 1.0),
]


def _exact_cut(tau, count_limit, n_max, hw):
    # The levels of shells 0..n_max ranked by their 200-digit energies, kept
    # while the running total stays within count_limit.
    with mpmath.workdps(200):
        t = mpmath.mpf(tau)
        bracket = [mpmath.sinh(t * k) / mpmath.sinh(t) for k in range(n_max + 2)]
        q, coeff = mpmath.exp(t), mpmath.exp(t) * mpmath.tanh(t)

        def exact(level):
            n, l = level
            return hw * (bracket[n] * q ** (n + 1) - coeff * bracket[l] * bracket[l + 1])

        ranked = sorted(zip(*_shape(n_max)[:2]), key=exact)
    kept, total = [], 0
    for n, l in ranked:
        total += 2 * (2 * l + 1)
        if total > count_limit:
            return kept
        kept.append((n, l))
    return kept


@pytest.mark.parametrize("tau, count_limit, n_max, hw", EXACT_ORDER_INPUTS)
def test_kept_order_is_the_exact_ranking(tau, count_limit, n_max, hw):
    scheme = build_scheme(params(tau=tau, hw=hw, n_max=n_max), count_limit)
    assert [(lev.n, lev.l) for lev in scheme.levels] == _exact_cut(tau, count_limit, n_max, hw)


@settings(deadline=None)
@given(tau=st.one_of(st.floats(min_value=1e-300, max_value=1e-15),
                     st.floats(min_value=1e-15, max_value=8.0)),
       hw=st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=5.0)),
       n_max=st.integers(min_value=1, max_value=60),
       count_limit=st.integers(min_value=2, max_value=20000))
@example(tau=1.558, hw=1.0, n_max=24, count_limit=1412)
@example(tau=2.631647282022267, hw=1.7, n_max=38, count_limit=17819)
def test_each_shell_keeps_its_highest_l_first(tau, hw, n_max, count_limit):
    # For tau > 0 a shell's energies fall as l rises, and its float energies
    # never rise with l (the shell term is shared and the Casimir table is
    # monotone), so each shell keeps its highest l's, in descending order,
    # float ties included.
    p = params(tau=tau, hw=hw, n_max=n_max)
    try:
        try:
            scheme = build_scheme(p, count_limit)
        except InsufficientNMaxError as err:
            scheme = build_scheme(p._replace(n_max=_suggested_n_max(err)), count_limit)
    except ValueError:  # the energies cancel or overflow
        return
    kept = [(lev.n, lev.l) for lev in scheme.levels]
    for n in {n for n, _ in kept}:
        ls = [l for m, l in kept if m == n]
        assert ls == allowed_l(n)[:len(ls)]


@settings(deadline=None)
@given(hw=st.one_of(st.sampled_from([1.0, 1.7, 0.1, 3e-300, 1e300]),
                    st.floats(min_value=sys.float_info.min, max_value=1e306)),
       n_max=st.integers(min_value=1, max_value=119))
def test_degenerate_order_is_n_then_ascending_l(hw, n_max):
    # At tau = 0 shell n is exactly hbar_omega0 n, and no two shells tie, so
    # the order is the (n, ascending l) sort.
    ns, ls, _ = _shape(n_max)
    energies = _energies_up_to(params(tau=0.0, hw=hw, n_max=n_max), n_max)
    order, _, _ = _cut(energies, n_max, 2, 0.0)
    assert [(ns[i], ls[i]) for i in order] == sorted(zip(ns, ls))


def test_count_limit_validation():
    with pytest.raises(ValueError):
        build_scheme(params(), count_limit=1)
    # The fit's kernel reaches _complete_cut without build_scheme, and 1
    # would never end its n_max search.
    with pytest.raises(ValueError, match="count_limit must be >= 2, got 1"):
        shells._complete_cut(params(), 1)
    with pytest.raises(ValueError, match="count_limit must be >= 2, got 1"):
        _fit_point(params(), 1, 0.39)


@pytest.mark.parametrize("count_limit", [math.inf, math.nan, 1520.5, 1520.0])
def test_count_limit_must_be_an_integer(count_limit):
    # Refused before any loop: inf used to run the n_max search forever, nan
    # to raise an IndexError, and 1520.5 to build the 1520 scheme.
    with pytest.raises(ValueError, match="count_limit must be an integer"):
        build_scheme(params(), count_limit)
    with pytest.raises(ValueError, match="count_limit must be an integer"):
        predicted_primary_magics(0.038, 0.39, count_limit)
    with pytest.raises(ValueError, match="count_limit must be an integer"):
        shells._complete_cut(params(), count_limit)
    with pytest.raises(ValueError, match="count_limit must be an integer"):
        _fit_point(params(), count_limit, 0.39)
    assert primaries(detect_shells(build_scheme(params(), 1520))) == PRIMARY_MAGICS


def test_insufficient_n_max_names_a_working_bound():
    with pytest.raises(InsufficientNMaxError) as err:
        build_scheme(params(n_max=5), count_limit=1520)
    bound = _suggested_n_max(err.value)
    fixed = build_scheme(params(n_max=bound), count_limit=1520)
    assert fixed.levels == build_scheme(params(n_max=24), count_limit=1520).levels
    # the named bound is tight: one less must still fail
    with pytest.raises(InsufficientNMaxError):
        build_scheme(params(n_max=bound - 1), count_limit=1520)


def _suggested_n_max(exc):
    return int(re.search(r"n_max >= (\d+)", str(exc)).group(1))


@settings(deadline=None)
@given(
    tau=st.floats(min_value=0.0, max_value=0.5),
    count_limit=st.integers(min_value=2, max_value=6000),
    n_max=st.integers(min_value=1, max_value=30),
)
# Shells 0..17 hold 2280 particles: the n_max search starts at 17 for 2280
# and at 18 for 2281, skipping the bounds that cannot hold the count.
@example(tau=0.038, count_limit=2280, n_max=16)
@example(tau=0.038, count_limit=2281, n_max=16)
@example(tau=0.0, count_limit=2280, n_max=16)
@example(tau=0.0, count_limit=2281, n_max=16)
# At tau = 7.5, where shells 0..31 cancel, the search cuts candidate 23 on
# its own column and it fails; 24 is complete.
@example(tau=7.5, count_limit=5000, n_max=22)
@example(tau=7.5, count_limit=5000, n_max=23)
# The capacity skip starts the search at 61; candidates 61..69, each cut on
# its own column, fail, and 70 is complete.
@example(tau=0.01, count_limit=80000, n_max=1)
def test_build_scheme_matches_larger_bound(tau, count_limit, n_max):
    # Brute-force oracle: an accepted scheme is the one every larger bound
    # gives, and a suggested bound is the smallest one that is accepted.
    try:
        scheme = build_scheme(params(tau=tau, n_max=n_max), count_limit)
    except InsufficientNMaxError as err:
        bound = _suggested_n_max(err)
        assert bound > n_max
        build_scheme(params(tau=tau, n_max=bound), count_limit)
        for smaller in range(n_max + 1, bound):
            with pytest.raises(InsufficientNMaxError):
                build_scheme(params(tau=tau, n_max=smaller), count_limit)
        return
    larger = build_scheme(params(tau=tau, n_max=n_max + 8), count_limit)
    assert scheme.levels == larger.levels
    assert scheme.cumulative == larger.cumulative


@pytest.mark.parametrize("tau, n_max, reason", [
    (7.7, 8, "shell 9 starts below the truncation energy 3.199486e+53"),
    (7.714, 1, "shells 0..1 hold only 8 particles"),
])
def test_n_max_search_at_the_edge_of_its_step_column(tau, n_max, reason):
    # Shells 0..n_hi are accepted here and one shell more would cancel: each
    # candidate, cut on its own column, gives the answer that cutting it on
    # the longer column of shells 0..n_hi gives.
    p = params(tau=tau, n_max=n_max)
    n_hi = max(n_max, 7) + 8  # candidates from 8, the first shells to hold 330
    _energies_up_to(p, n_hi)
    with pytest.raises(ValueError, match=rf"shells 0\.\.{n_hi + 1} cancel"):
        _energies_up_to(p, n_hi + 1)
    with pytest.raises(InsufficientNMaxError) as err:
        build_scheme(p, 330)
    assert str(err.value) == (f"n_max={n_max} is too small for count_limit=330: {reason}; "
                              "use n_max >= 9")
    for candidate in range(n_max + 1, 9):
        assert not _cut(_energies_up_to(p, candidate), candidate, 330, tau)[2]
    assert _cut(_energies_up_to(p, 9), 9, 330, tau)[2]


def _energy_n_l(tau):
    # The sort key of the exact order: energy, n, then l ascending at tau = 0
    # and descending for tau > 0, where a shell's energies fall as l rises.
    sign = -1 if tau else 1
    return lambda lev: (lev.energy, lev.n, sign * lev.l)


def _old_truncated(ordered, count_limit):
    kept, totals, running = [], [], 0
    for lev in ordered:
        if running + lev.degeneracy > count_limit:
            break
        running += lev.degeneracy
        kept.append(lev)
        totals.append(running)
    return kept, totals


taus = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5))


def _builds(p, count_limit):
    try:
        build_scheme(p, count_limit)
    except InsufficientNMaxError:
        return False
    return True


@settings(deadline=None)
@given(tau=taus, hw=st.floats(min_value=0.1, max_value=5.0),
       n_max=st.integers(min_value=1, max_value=40),
       count_limit=st.integers(min_value=2, max_value=3000))
@example(tau=6.4e-17, hw=1.0, n_max=24, count_limit=1520)
@example(tau=1.8e-304, hw=1.0, n_max=24, count_limit=1520)
def test_one_key_sort_is_energy_n_l_order(tau, hw, n_max, count_limit):
    # The one-key sort is the (energy, n, +-l) sort on the column of shells
    # 0..n and its floor, for n = n_max and n_max + 8, and complete is
    # exactly build_scheme's acceptance at each bound.
    p = params(tau=tau, hw=hw, n_max=n_max)
    for n in (n_max, n_max + 8):
        column = enumerate_levels(p._replace(n_max=n))
        energies = [lev.energy for lev in column] + [energy(n + 1, n + 1, p)]
        order, totals, complete = _cut(energies, n, count_limit, tau)
        assert [column[i] for i in order] == sorted(column, key=_energy_n_l(tau))
        assert totals == _old_truncated(sorted(column, key=_energy_n_l(tau)), count_limit)[1]
        assert complete == _builds(p._replace(n_max=n), count_limit)


def test_build_scheme_enumerates_the_levels_once_per_accepted_scheme(monkeypatch):
    # perfbench's tracer wraps shells.enumerate_levels and divides kept_ratio
    # and enumerations_per_call by its totals, so they must stay nonzero:
    # each accepted scheme enumerates once, and one that raises makes no Level.
    calls = []
    monkeypatch.setattr(shells, "enumerate_levels",
                        lambda p: calls.append(p) or enumerate_levels(p))
    build_scheme(params(), 1520)
    assert calls == [params()]
    for p, count_limit in ((params(n_max=5), 1520), (params(tau=0.00138, n_max=19), 5452)):
        del calls[:]
        with pytest.raises(InsufficientNMaxError):
            build_scheme(p, count_limit)
        assert calls == []


def test_build_scheme_evaluates_one_column_per_call():
    # _complete_cut evaluates the column, floor included, and enumerate_levels
    # reads the one it cut.
    _energies_up_to.cache_clear()
    build_scheme(params(), 1520)
    info = _energies_up_to.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@settings(deadline=None)
@given(tau=taus, n_max=st.integers(min_value=1, max_value=40),
       count_limit=st.integers(min_value=2, max_value=3000))
@example(tau=6.4e-17, n_max=24, count_limit=1520)
@example(tau=1.8e-304, n_max=24, count_limit=1520)
def test_build_scheme_keeps_the_old_sort_and_cut(tau, n_max, count_limit):
    p = params(tau=tau, n_max=n_max)
    try:
        scheme = build_scheme(p, count_limit)
    except InsufficientNMaxError:
        return
    kept, totals = _old_truncated(sorted(enumerate_levels(p), key=_energy_n_l(tau)), count_limit)
    assert scheme.levels == tuple(kept)
    assert scheme.cumulative == tuple(totals)


def _accepted_scheme(tau, n_max, count_limit):
    try:
        return build_scheme(params(tau=tau, n_max=n_max), count_limit)
    except InsufficientNMaxError as err:
        return build_scheme(params(tau=tau, n_max=_suggested_n_max(err)), count_limit)


@settings(deadline=None)
@given(tau=taus, n_max=st.integers(min_value=1, max_value=40),
       count_limit=st.integers(min_value=2, max_value=3000),
       gap=st.floats(min_value=1e-6, max_value=2.0), at_gap=st.integers(min_value=0))
def test_predicted_primaries_are_detect_shells_primaries(tau, n_max, count_limit, gap, at_gap):
    # The records-free reading equals detect_shells with the narrowest
    # secondary band.  at_gap picks a threshold exactly at one of the gaps.
    scheme = _accepted_scheme(tau, n_max, count_limit)
    energies = [lev.energy for lev in scheme.levels]
    gaps = [b - a for a, b in zip(energies, energies[1:]) if b - a > 0]
    for g in [gap] + ([gaps[at_gap % len(gaps)]] if gaps else []):
        expected = primaries(detect_shells(scheme, g, math.nextafter(g, -math.inf)))
        assert predicted_primary_magics(tau, g, count_limit, 1.0, scheme.params.n_max) == expected


def _raises_as(call, error):
    # call raises error's type with error's message.
    with pytest.raises(type(error)) as raised:
        call()
    assert type(raised.value) is type(error) and str(raised.value) == str(error)


@settings(deadline=None)
@given(tau=st.one_of(taus, st.floats(min_value=200.0, max_value=400.0)),
       hw=st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=5.0),
                    st.floats(min_value=1e300, max_value=1e308)),
       n_max=st.integers(min_value=1, max_value=40),
       count_limit=st.integers(min_value=2, max_value=3000),
       gap=st.floats(min_value=0.0, max_value=2.0))
@example(tau=300.0, hw=1.0, n_max=1, count_limit=2, gap=0.39)  # the floor overflows
# Shells 0..1 hold 8 particles; the n_max search's longer column overflows.
@example(tau=0.0, hw=5.992310449541053e307, n_max=1, count_limit=21, gap=0.39)
def test_primaries_kernel_is_the_reference_path(tau, hw, n_max, count_limit, gap):
    # The fit's kernel gives predicted_primary_magics' list.  Where
    # build_scheme raises, the kernel raises the same error: where the column
    # of shells 0..n_max is refused (at tau = 200 the energy formula
    # cancels), where the scheme is incomplete, and where the n_max search
    # meets a refused column.
    p = params(tau=tau, hw=hw, n_max=n_max)
    try:
        build_scheme(p, count_limit)
    except (InsufficientNMaxError, ValueError) as error:
        _raises_as(lambda: _fit_point(p, count_limit, gap), error)
        return
    (primaries, _), _ = _fit_point(p, count_limit, gap)
    assert list(primaries) == predicted_primary_magics(tau, gap, count_limit, hw, n_max)


@settings(deadline=None)
@given(tau=taus, n_max=st.integers(min_value=1, max_value=40),
       count_limit=st.integers(min_value=2, max_value=3000),
       gap=st.floats(min_value=0.0, max_value=2.0))
@example(tau=6.4e-17, n_max=24, count_limit=1520, gap=0.39)
@example(tau=1.8e-304, n_max=24, count_limit=1520, gap=0.39)
def test_fit_point_reads_its_cut_and_margin_off_the_reference_scheme(tau, n_max, count_limit,
                                                                    gap):
    # The cut is the kept count and the kept levels plus the one above them
    # in energy order, with the floor E(n_max + 1, n_max + 1) above the top
    # kept level.
    p = params(tau=tau, n_max=n_max)
    try:
        scheme = build_scheme(p, count_limit)
    except InsufficientNMaxError as error:
        _raises_as(lambda: _fit_point(p, count_limit, gap), error)
        return
    k = len(scheme.levels)
    levels = enumerate_levels(p)
    prefix = sorted(levels, key=_energy_n_l(tau))[:k + 1]
    assert prefix[:k] == list(scheme.levels)
    index = {(n, l): i for i, (n, l) in enumerate(zip(*_shape(n_max)[:2]))}
    state, _ = _fit_point(p, count_limit, gap)
    assert state == (
        tuple(predicted_primary_magics(tau, gap, count_limit, 1.0, n_max)),
        (k, tuple(index[lev.n, lev.l] for lev in prefix)),
    )
    assert energy(n_max + 1, n_max + 1, p) > prefix[k - 1].energy


def test_kernel_raises_without_the_reference_path(monkeypatch):
    # _fit_point raises build_scheme's error off its own cut: with
    # build_scheme and enumerate_levels broken, it still names n_max 17.
    p = params(n_max=16)
    with pytest.raises(InsufficientNMaxError, match=r"; use n_max >= 17$") as reference:
        build_scheme(p, 1520)

    def broken(*args):
        raise AssertionError("the kernel ran the reference path")

    monkeypatch.setattr(empirics, "build_scheme", broken)
    monkeypatch.setattr(shells, "enumerate_levels", broken)
    _raises_as(lambda: _fit_point(p, 1520, 0.39), reference.value)


@pytest.mark.parametrize("tau, n_max, count_limit, message", [
    (200.0, 1, 2, "cancel at tau=200.0"),   # E(1, 1) = 1 evaluated to -1.1e158
    (20.0, 2, 8, "cancel at tau=20.0"),     # E(1, 1) = 1 evaluated to 0.0
    (300.0, 1, 8, "shells 0..2 overflow a float at tau=300.0"),  # energy(2, 2) overflows
])
def test_cancelling_energies_are_an_error(tau, n_max, count_limit, message):
    # Never a scheme built on cancelled energies, and never an IndexError
    # from an empty kept range, in build_scheme, its n_max search or the
    # kernel, which raises build_scheme's error.
    p = params(tau=tau, n_max=n_max)
    for limit in (count_limit, 1520):
        with pytest.raises(ValueError, match=re.escape(message)):
            build_scheme(p, limit)
        with pytest.raises(ValueError, match=re.escape(message)):
            _fit_point(p, limit, 0.39)


@pytest.mark.parametrize("tau", [0.0, 0.038])
def test_a_floor_past_the_float_range_completes_the_scheme(tau):
    # The floor E(2, 2) of shells 0..1 reads +inf, above the kept level,
    # although energy() refuses it.
    p = params(tau=tau, hw=1e308, n_max=1)
    with pytest.raises(ValueError, match=r"shells 0\.\.2 overflow a float"):
        energy(2, 2, p)
    assert build_scheme(p, 2).levels == (Level(0, 0, 0.0, 2),)
    assert _fit_point(p, 2, 0.39)[0] == ((), (1, (0, 1)))


def test_underfilled_scheme_raises():
    # Shells 0..19 hold 3080 particles and shell 20 starts above all of
    # them, yet more levels fit within 5452: the bound, not the count
    # limit, would end the scheme.
    with pytest.raises(InsufficientNMaxError, match="hold only 3080 particles") as err:
        build_scheme(params(tau=0.00138, n_max=19), count_limit=5452)
    bound = _suggested_n_max(err.value)
    assert build_scheme(params(tau=0.00138, n_max=bound), 5452).levels == \
        build_scheme(params(tau=0.00138, n_max=bound + 8), 5452).levels


@pytest.mark.parametrize("tau, hbar_omega0, n_max", [
    (1.8, 1.0, 200),    # [n] q^(n+1) overflows to inf
    (20.0, 1.0, 24),    # sinh(tau k) raises OverflowError
    (0.038, 1e307, 24),
    (0.0, 1e307, 24),
])
def test_energy_overflow_is_an_error(tau, hbar_omega0, n_max):
    # Non-finite energies used to send the n_max search up without end.
    params = ModelParameters(DeformationParameter(tau), hbar_omega0, n_max)
    with pytest.raises(ValueError, match=r"overflow a float"):
        build_scheme(params, 1520)


def test_build_is_deterministic():
    a = build_scheme(params(), count_limit=1520)
    b = build_scheme(params(), count_limit=1520)
    assert a.levels == b.levels and a.cumulative == b.cumulative


def test_scheme_validates_consistency():
    lv0 = Level(0, 0, 0.0, 2)
    lv1 = Level(1, 1, 1.0, 6)
    with pytest.raises(ValueError):
        LevelScheme((lv0, lv1), (2, 9), params())
    with pytest.raises(ValueError):
        LevelScheme((lv1, lv0), (6, 8), params())
    with pytest.raises(ValueError):
        LevelScheme((), (), params())
    with pytest.raises(ValueError, match="levels and cumulative must have equal length"):
        LevelScheme((lv0, lv1), (2,), params())


# ----------------------------------------------------------- detect_shells


def test_two_level_scheme_single_primary():
    scheme = LevelScheme((Level(0, 0, 0.0, 2), Level(1, 1, 1.0, 6)), (2, 8), params())
    records = detect_shells(scheme, primary_gap=0.39, secondary_gap=0.30)
    assert len(records) == 1
    assert records[0].count == 2
    assert records[0].grade is MagicGrade.PRIMARY
    assert records[0].gap == pytest.approx(1.0)


def test_gap_comparison_is_strict():
    scheme = LevelScheme((Level(0, 0, 0.0, 2), Level(1, 1, 1.0, 6)), (2, 8), params())
    # gap == threshold does not qualify for that grade
    records = detect_shells(scheme, primary_gap=1.0, secondary_gap=0.5)
    assert [r.grade for r in records] == [MagicGrade.SECONDARY]
    assert detect_shells(scheme, primary_gap=2.0, secondary_gap=1.0) == []


def test_negative_secondary_gap_rejected():
    # Tied levels at tau = 0 have gap 0.0, which a negative threshold would
    # grade; the error names the threshold, not the record.
    scheme = build_scheme(params(tau=0.0), count_limit=40)
    with pytest.raises(ValueError, match="secondary_gap must be >= 0"):
        detect_shells(scheme, primary_gap=0.39, secondary_gap=-1.0)
    assert primaries(detect_shells(scheme, primary_gap=0.39, secondary_gap=0.0)) == [2, 8, 20]


def test_threshold_ordering_validated():
    scheme = build_scheme(params(), count_limit=20)
    with pytest.raises(ValueError):
        detect_shells(scheme, primary_gap=0.3, secondary_gap=0.39)
    with pytest.raises(ValueError):
        detect_shells(scheme, primary_gap=0.39, secondary_gap=0.39)
    for gaps in [(math.nan,), (0.39, math.inf)]:
        with pytest.raises(ValueError, match="gap thresholds must be finite"):
            detect_shells(scheme, *gaps)


def test_full_primary_sequence():
    records = detect_shells(build_scheme(params(), 1520))
    assert primaries(records) == PRIMARY_MAGICS


def test_secondary_records():
    records = detect_shells(build_scheme(params(), 1520))
    secondary = [(r.count, round(r.gap, 3)) for r in records if r.grade is MagicGrade.SECONDARY]
    assert secondary == [
        (106, 0.363), (186, 0.329), (356, 0.343), (542, 0.325), (562, 0.384),
    ]


def test_magic_counts_strictly_increase():
    records = detect_shells(build_scheme(params(), 1520))
    counts = [r.count for r in records]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_raising_primary_threshold_only_removes_records():
    scheme = build_scheme(params(), 1520)
    loose = set(primaries(detect_shells(scheme, 0.39, 0.30)))
    tight = set(primaries(detect_shells(scheme, 0.45, 0.30)))
    assert tight <= loose
    assert 1502 in loose  # gap 0.441 survives only the loose threshold
    assert 1502 not in tight


def test_threshold_scale_covariance():
    c = 2.5
    base = detect_shells(build_scheme(params(hw=1.0), 1520), 0.39, 0.30)
    scaled = detect_shells(build_scheme(params(hw=c), 1520), 0.39 * c, 0.30 * c)
    assert [(r.count, r.grade) for r in base] == [(r.count, r.grade) for r in scaled]


def test_integer_thresholds_at_tau_zero_grade_no_tie():
    # Every gap at tau = 0 is 0.0 or a whole shell; an int 0 threshold must
    # compare as 0.0 does, so no tie becomes a record.
    scheme = build_scheme(params(tau=0.0), count_limit=1520)
    records = detect_shells(scheme, 1, 0)
    assert records == detect_shells(scheme, 1.0, 0.0)
    assert records and all(r.gap > 0 for r in records)
    assert all(r.grade is MagicGrade.SECONDARY for r in records)  # gap 1 is not above 1


def test_a_threshold_at_a_built_gap_stays_strict():
    scheme = build_scheme(params(), 1520)
    first = detect_shells(scheme)[0]
    assert detect_shells(scheme, first.gap, first.gap / 2)[0] == first._replace(
        grade=MagicGrade.SECONDARY)
    ungraded = detect_shells(scheme, first.gap + 1, first.gap)
    assert first.after_level not in [r.after_level for r in ungraded]


@settings(deadline=None)
@given(tau=st.floats(min_value=0.0, max_value=0.5), n_max=st.integers(min_value=1, max_value=40),
       count_limit=st.integers(min_value=2, max_value=10000))
def test_validated_constructors_accept_what_the_cut_builds(tau, n_max, count_limit):
    # build_scheme and detect_shells skip these checks; they must hold anyway.
    try:
        scheme = build_scheme(params(tau=tau, n_max=n_max), count_limit)
    except InsufficientNMaxError:
        return
    assert LevelScheme(*scheme) == scheme
    for gaps in [(0.39, 0.30), (1, 0), (0.05, 0.0)]:
        records = detect_shells(scheme, *gaps)
        assert [MagicRecord(*r) for r in records] == records


def test_magic_record_validation():
    lv = Level(0, 0, 0.0, 2)
    with pytest.raises(ValueError):
        MagicRecord(lv, gap=0.0, count=2, grade=MagicGrade.PRIMARY)
    with pytest.raises(ValueError):
        MagicRecord(lv, gap=0.5, count=0, grade=MagicGrade.PRIMARY)


# ------------------------------------------------------------ render_table


def test_render_table_head():
    scheme = build_scheme(params(), 1520)
    text = render_table(scheme, detect_shells(scheme))
    expected = (
        "  n   l   energy  2(2l+1)  total\n"
        "  0   0    0.000        2      2 *\n"
        "           1.000\n"
        "  1   1    1.000        6      8 *\n"
        "           1.006\n"
        "  2   2    2.006       10     18\n"
        "  2   0    2.243        2     20 *\n"
        "           0.780\n"
    )
    assert text.startswith(expected)


def test_render_rounds_gaps_from_unrounded_energies():
    # 2.006 - 1.000 rounds to 1.006 only when differenced before rounding
    scheme = build_scheme(params(), 1520)
    text = render_table(scheme, detect_shells(scheme))
    assert "1.006" in text


def test_render_without_records_has_no_gap_rows_or_marks():
    scheme = build_scheme(params(), count_limit=40)
    text = render_table(scheme, [])
    assert "*" not in text
    assert len(text.splitlines()) == 1 + len(scheme.levels)


def test_render_marks_only_primary_totals():
    scheme = build_scheme(params(), 1520)
    text = render_table(scheme, detect_shells(scheme))
    marked = [int(line.split()[-2]) for line in text.splitlines() if line.endswith("*")]
    assert marked == PRIMARY_MAGICS
    assert "  7   7    7.328       30    186\n" in text  # secondary: unmarked


def test_render_is_deterministic():
    scheme = build_scheme(params(), 1520)
    records = detect_shells(scheme)
    assert render_table(scheme, records) == render_table(scheme, records)


def test_render_energy_three_decimals():
    scheme = build_scheme(params(), 1520)
    text = render_table(scheme, detect_shells(scheme))
    assert "12.939" in text  # 12.9390... printed at 3 decimals


def test_render_energy_and_gap_past_1e10_in_exponent_form():
    # .3f would print all 301 digits of 1e300.
    scheme = build_scheme(params(tau=0.0, hw=1e300), 8)
    assert render_table(scheme, detect_shells(scheme)) == (
        "  n   l   energy  2(2l+1)  total\n"
        "  0   0    0.000        2      2 *\n"
        "        1.000e+300\n"
        "  1   1 1.000e+300        6      8\n"
    )
