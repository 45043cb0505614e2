import re

import pytest
from hypothesis import given, settings, strategies as st

from qshell.qmath import DeformationParameter
from qshell.shells import (
    InsufficientNMaxError,
    LevelScheme,
    MagicGrade,
    MagicRecord,
    build_scheme,
    detect_shells,
    render_table,
)
from qshell.spectrum import Level, ModelParameters

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


def test_degenerate_shells_tie_break():
    s = build_scheme(params(tau=0.0), count_limit=40)
    # equal energies ordered by n then l: (2,0) precedes (2,2)
    assert [(lv.n, lv.l) for lv in s.levels] == [
        (0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3),
    ]
    # per-shell totals are unaffected by intra-shell order
    assert [c for c in s.cumulative if c in (2, 8, 20, 40)] == [2, 8, 20, 40]


def test_count_limit_validation():
    with pytest.raises(ValueError):
        build_scheme(params(), count_limit=1)


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
def test_build_scheme_matches_larger_bound(tau, count_limit, n_max):
    # Brute-force oracle: an accepted scheme is the one every larger bound
    # gives, and a suggested bound is the smallest one that is accepted.
    try:
        scheme = build_scheme(params(tau=tau, n_max=n_max), count_limit)
    except InsufficientNMaxError as err:
        bound = _suggested_n_max(err)
        assert bound > n_max
        build_scheme(params(tau=tau, n_max=bound), count_limit)
        with pytest.raises(InsufficientNMaxError):
            build_scheme(params(tau=tau, n_max=bound - 1), count_limit)
        return
    larger = build_scheme(params(tau=tau, n_max=n_max + 8), count_limit)
    assert scheme.levels == larger.levels
    assert scheme.cumulative == larger.cumulative


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


def test_threshold_ordering_validated():
    scheme = build_scheme(params(), count_limit=20)
    with pytest.raises(ValueError):
        detect_shells(scheme, primary_gap=0.3, secondary_gap=0.39)
    with pytest.raises(ValueError):
        detect_shells(scheme, primary_gap=0.39, secondary_gap=0.39)


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
