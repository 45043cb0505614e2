import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from pathlib import PurePosixPath
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qshell.empirics import (
    BUNDLED_DATASETS,
    DatasetParseError,
    DatasetValidationError,
    ExperimentalDataset,
    FitResult,
    ObservedMagic,
    bundled_dataset_names,
    fit_tau,
    load_dataset,
    load_named_dataset,
    match_magics,
    predicted_primary_magics,
    _drift_bounds,
    _fit_point,
)
from qshell import empirics, shells
from qshell.qmath import DeformationParameter
from qshell.shells import InsufficientNMaxError, build_scheme
from qshell.spectrum import ModelParameters, _energies_up_to, _level_energy, _shape, energy

MARTIN = [
    (2, 0, False), (8, 0, False), (18, 0, True), (20, 0, False), (34, 0, False),
    (40, 0, False), (58, 0, False), (90, 0, False), (92, 0, False), (138, 0, False),
    (198, 2, False), (263, 5, False), (341, 5, False), (443, 5, False),
    (557, 5, False), (700, 15, False), (840, 15, False), (1040, 20, False),
    (1220, 20, False), (1430, 20, False),
]

PRIMARY_MAGICS = [
    2, 8, 20, 34, 40, 58, 92, 138, 198, 254, 268, 338, 440, 556, 676,
    694, 832, 912, 1012, 1100, 1206, 1284, 1314, 1410, 1502,
]


# ----------------------------------------------------------------- parsing


def test_parse_forms():
    ds = load_dataset("198±2\n(18)\n90\n(196±4)\n")
    assert [(e.value, e.uncertainty, e.parenthesized) for e in ds.entries] == [
        (18, 0, True), (90, 0, False), (196, 4, True), (198, 2, False),
    ]


def test_parse_comments_and_blanks():
    ds = load_dataset("# header\n\n  92  # trailing note\n138\n")
    assert ds.values() == [92, 138]


@pytest.mark.parametrize("line", ["abc", "18~2", "(18", "18)", "1 8", "±5", "12.5"])
def test_parse_rejects_malformed_lines(line):
    with pytest.raises(DatasetParseError) as err:
        load_dataset(f"2\n{line}\n")
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_empty_dataset_rejected():
    with pytest.raises(DatasetValidationError):
        load_dataset("# nothing here\n")


def test_duplicate_values_rejected():
    with pytest.raises(DatasetValidationError):
        load_dataset("8\n8\n")


def test_entry_invariants():
    with pytest.raises(DatasetValidationError):
        load_dataset("1\n")  # magic numbers start at 2
    with pytest.raises(DatasetValidationError):
        load_dataset("8±9\n")  # uncertainty above value
    with pytest.raises(ValueError):
        ObservedMagic(8, -1)


def test_lines_may_arrive_in_any_order():
    ds = load_dataset("92\n2\n58\n")
    assert ds.values() == [2, 58, 92]


# ---------------------------------------------------------------- bundling


def test_bundled_names():
    assert bundled_dataset_names() == BUNDLED_DATASETS
    assert len(BUNDLED_DATASETS) == 11


def test_all_bundled_datasets_load():
    for name in BUNDLED_DATASETS:
        ds = load_named_dataset(name)
        assert ds.source == name
        assert len(ds.entries) >= 6


def test_martin_dataset_verbatim():
    ds = load_named_dataset("martin")
    assert [(e.value, e.uncertainty, e.parenthesized) for e in ds.entries] == MARTIN


def test_knight_dataset_verbatim():
    assert load_named_dataset("knight").values() == [2, 8, 20, 40, 58, 92]


def test_jellium_parenthesized_flags():
    ds = load_named_dataset("jellium-martin")
    paren = [e.value for e in ds.entries if e.parenthesized]
    assert paren == [20, 40, 196, 268, 356]
    assert ds.values(include_paren=False) == [
        2, 8, 18, 34, 58, 92, 134, 186, 254, 338, 440, 562, 704, 852,
    ]


def test_adjacent_alternates_stored_separately():
    brack = load_named_dataset("jellium-brack").values()
    assert 438 in brack and 440 in brack
    martin = load_named_dataset("martin").values()
    assert 90 in martin and 92 in martin


def test_load_by_path(tmp_path):
    f = tmp_path / "custom.txt"
    f.write_text("2\n8\n20\n", encoding="utf-8")
    ds = load_named_dataset(str(f))
    assert ds.source == "custom" and ds.values() == [2, 8, 20]


def test_a_byte_order_mark_is_not_part_of_the_first_line(tmp_path):
    # Some editors save UTF-8 with a leading BOM (EF BB BF).
    text = "# sodium\r\n8\r\n20\r\n(40)\r\n58\u00b12\r\n"
    (tmp_path / "plain.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "bom.txt").write_bytes(text.encode("utf-8-sig"))
    (tmp_path / "bare.txt").write_bytes(text.replace("# sodium\r\n", "").encode("utf-8-sig"))
    plain = load_named_dataset(str(tmp_path / "plain.txt"))
    assert load_named_dataset(str(tmp_path / "bom.txt")) == plain._replace(source="bom")
    assert load_named_dataset(str(tmp_path / "bare.txt")) == plain._replace(source="bare")
    assert plain.values() == [8, 20, 40, 58]


def test_data_dir_overrides_bundled(tmp_path):
    (tmp_path / "martin.txt").write_text("2\n8\n", encoding="utf-8")
    ds = load_named_dataset("martin", data_dir=str(tmp_path))
    assert ds.values() == [2, 8]
    with pytest.raises(OSError):
        load_named_dataset("knight", data_dir=str(tmp_path))


def test_empty_data_dir_is_none(tmp_path, monkeypatch):
    # An empty data_dir, as os.environ.get gives for a variable set to "",
    # reads the bundled set, not <name>.txt in the working directory.
    monkeypatch.chdir(tmp_path)
    assert load_named_dataset("martin", data_dir="") == load_named_dataset("martin")


def test_bare_name_resolution(tmp_path, monkeypatch):
    # A bundled bare name wins over a local file; another bare name falls
    # back to a local file, and a path is always read as a file.
    (tmp_path / "knight").write_text("2\n8\n", encoding="utf-8")
    (tmp_path / "mine").write_text("2\n8\n20\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert load_named_dataset("knight").values() == [2, 8, 20, 40, 58, 92]
    assert load_named_dataset("./knight").values() == [2, 8]
    assert load_named_dataset("mine").values() == [2, 8, 20]


@pytest.mark.parametrize("spec, source", [
    ("./data//set.v2.txt", "set.v2"), ("data/./set.txt", "set"), ("./data/set.txt/", "set"),
    ("data/set.", "set."), ("data/..set", "."), ("data/.txt", ".txt"),
])
def test_paths_are_spelled_as_pathlib_spells_them(spec, source, tmp_path, monkeypatch):
    # Empty and "." parts are dropped, a trailing slash too, and the source
    # is the name less its last suffix, a leading or final dot not counting.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / PurePosixPath(spec)).write_text("2\n8\n", encoding="utf-8")
    assert load_named_dataset(spec).source == source


@pytest.mark.parametrize("spec", ["./nodir//set.txt", "nodir/./set.txt/", "nodir/../set.txt",
                                  "//nodir/set.txt", "///nodir/set.txt", "./nodir/set."])
def test_missing_files_are_named_as_pathlib_names_them(spec, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(FileNotFoundError) as err:
        load_named_dataset(spec)
    assert str(err.value) == f"[Errno 2] No such file or directory: {str(PurePosixPath(spec))!r}"


def test_unknown_name_lists_choices():
    with pytest.raises(FileNotFoundError, match="martin"):
        load_named_dataset("nonesuch")


# ---------------------------------------------------------------- matching


def exact_dataset(values):
    return load_dataset("\n".join(str(v) for v in values))


def test_exact_match_trivial():
    report = match_magics([2, 8, 20], exact_dataset([2, 8, 20]))
    assert (report.true_positives, report.false_positives, report.false_negatives) == (3, 0, 0)
    assert report.f1 == 1.0
    assert report.matched_pairs == ((2, 2), (8, 8), (20, 20))


def test_match_within_uncertainty():
    ds = load_named_dataset("martin")
    report = match_magics([1206], ds)
    assert report.matched_pairs == ((1206, 1220),)  # |1206-1220| = 14 <= 20


def test_unmatched_prediction_is_false_positive():
    ds = load_named_dataset("martin")
    report = match_magics([186], ds)
    assert report.true_positives == 0 and report.false_positives == 1


def test_one_to_one_matching():
    ds = load_dataset("100±5\n110±5\n")
    report = match_magics([105, 106], ds)
    assert report.matched_pairs == ((105, 100), (106, 110))


def test_parenthesized_entries_are_opt_in():
    ds = load_named_dataset("martin")
    excl = match_magics([18], ds, include_paren=False)
    incl = match_magics([18], ds, include_paren=True)
    assert (excl.true_positives, excl.false_positives) == (0, 1)
    assert (incl.true_positives, incl.false_positives) == (1, 0)
    # pools differ by the one parenthesized entry, which incl then matches
    assert excl.false_negatives == 19 and incl.false_negatives == 19


def test_match_input_validation():
    ds = exact_dataset([2, 8])
    with pytest.raises(ValueError):
        match_magics([8, 2], ds)
    with pytest.raises(ValueError):
        match_magics([2, 2], ds)
    with pytest.raises(ValueError):
        match_magics([2], ds, slack=-1)
    with pytest.raises(ValueError):  # NaN used to match nothing
        match_magics([2], ds, slack=math.nan)


def test_f1_zero_when_nothing_aligns():
    report = match_magics([50], exact_dataset([2, 8]))
    assert report.f1 == 0.0


@given(slack=st.integers(min_value=0, max_value=30))
def test_slack_monotonicity(slack):
    ds = load_named_dataset("martin")
    base = match_magics(PRIMARY_MAGICS, ds, slack=slack)
    wider = match_magics(PRIMARY_MAGICS, ds, slack=slack + 3)
    assert wider.true_positives >= base.true_positives
    assert 0.0 <= base.f1 <= 1.0


def test_f1_is_one_iff_no_errors():
    ds = load_named_dataset("martin")
    report = match_magics(PRIMARY_MAGICS, ds)
    assert report.f1 < 1.0 and (report.false_positives > 0 or report.false_negatives > 0)


def test_report_is_order_insensitive():
    lines = [f"{v}±{u}" if u else (f"({v})" if p else str(v)) for v, u, p in MARTIN]
    rng = random.Random(7)
    rng.shuffle(lines)
    shuffled = load_dataset("\n".join(lines))
    assert match_magics(PRIMARY_MAGICS, shuffled) == match_magics(
        PRIMARY_MAGICS, load_named_dataset("martin")
    )


def reference_match_pairs(predicted, ds, slack, include_paren):
    """The plain O(P*O) greedy loop that match_magics must agree with.

    Each prediction in turn takes the unmatched window that holds it and
    ends first, the smaller observed value on a tie.
    """
    observed = [e for e in ds.entries if include_paren or not e.parenthesized]
    taken = [False] * len(observed)
    pairs = []
    for p in predicted:
        fits = [j for j, e in enumerate(observed)
                if not taken[j] and abs(p - e.value) <= e.uncertainty + slack]
        if fits:
            j = min(fits, key=lambda j: (observed[j].value + observed[j].uncertainty, j))
            taken[j] = True
            pairs.append((p, observed[j].value))
    return tuple(pairs), len(observed)


def maximum_matching_size(predicted, windows):
    """Exhaustive search: the most pairs of any one-to-one matching."""

    @lru_cache(maxsize=None)
    def best(i, taken):
        if i == len(predicted):
            return 0
        most = best(i + 1, taken)  # predicted[i] left unmatched
        for j, (lo, hi) in enumerate(windows):
            if not taken >> j & 1 and lo <= predicted[i] <= hi:
                most = max(most, 1 + best(i + 1, taken | 1 << j))
        return most

    return best(0, 0)


@st.composite
def observed_entries(draw, max_value=400, max_size=25):
    values = draw(st.lists(st.integers(min_value=2, max_value=max_value), min_size=1,
                           max_size=max_size, unique=True))
    return tuple(
        ObservedMagic(v, draw(st.integers(min_value=0, max_value=min(v, 40))), draw(st.booleans()))
        for v in sorted(values)
    )


@given(
    entries=observed_entries(),
    predicted=st.lists(st.integers(min_value=1, max_value=450), max_size=30, unique=True),
    slack=st.integers(min_value=0, max_value=20) | st.just(math.inf),
    include_paren=st.booleans(),
)
def test_match_magics_equals_the_plain_greedy_loop(entries, predicted, slack, include_paren):
    ds = ExperimentalDataset("random", entries)
    predicted = sorted(predicted)
    report = match_magics(predicted, ds, slack=slack, include_paren=include_paren)
    pairs, observed = reference_match_pairs(predicted, ds, slack, include_paren)
    assert report.matched_pairs == pairs
    assert report.true_positives == len(pairs)
    assert report.false_positives == len(predicted) - len(pairs)
    assert report.false_negatives == observed - len(pairs)


# At 100 examples hypothesis found the smallest-value rule's shortfall in
# about half of fresh runs; at 500 it found it in six of six.
@settings(max_examples=500, deadline=None)
@given(
    entries=observed_entries(max_value=80, max_size=8),
    predicted=st.lists(st.integers(min_value=1, max_value=100), max_size=8, unique=True),
    slack=st.integers(min_value=0, max_value=5),
)
def test_match_magics_is_a_maximum_matching(entries, predicted, slack):
    ds = ExperimentalDataset("random", entries)
    predicted = sorted(predicted)
    report = match_magics(predicted, ds, slack=slack, include_paren=True)
    window = {e.value: (e.value - e.uncertainty - slack, e.value + e.uncertainty + slack)
              for e in entries}
    assert all(window[o][0] <= p <= window[o][1] for p, o in report.matched_pairs)
    assert len({o for _, o in report.matched_pairs}) == report.true_positives
    assert report.true_positives == maximum_matching_size(tuple(predicted),
                                                          tuple(window.values()))


def test_match_is_maximum_when_windows_differ():
    # 40 lies in both windows and 58 only in 47's: giving 47 to 40, the
    # smaller value, would leave 58 and 48 unmatched.
    report = match_magics(PRIMARY_MAGICS, load_dataset("47±11\n48±8\n"))
    assert report.matched_pairs == ((40, 48), (58, 47))
    assert (report.true_positives, report.false_positives, report.false_negatives) == (2, 23, 0)


# ----------------------------------------------------------------- fitting


def test_predicted_primary_magics_default_point():
    assert predicted_primary_magics(0.038, 0.39, 1520) == PRIMARY_MAGICS


def test_predicted_primary_magics_threshold_is_strict():
    # A gap exactly at the threshold is not primary on the fit's path either.
    scheme = build_scheme(ModelParameters(DeformationParameter(0.038)), 1520)
    i = scheme.cumulative.index(1502)
    gap = scheme.levels[i + 1].energy - scheme.levels[i].energy
    assert 1502 not in predicted_primary_magics(0.038, gap, 1520)
    assert predicted_primary_magics(0.038, math.nextafter(gap, -math.inf), 1520)[-1] == 1502


def test_fit_self_consistency():
    ds = exact_dataset(PRIMARY_MAGICS)
    result = fit_tau(ds, [0.030, 0.034, 0.038, 0.042], primary_gap=0.39, count_limit=1520)
    assert result.tau_best == 0.038
    assert result.score_best == 1.0
    assert len(result.grid) == 4


def test_fit_grid_validation():
    ds = exact_dataset([2, 8])
    with pytest.raises(ValueError):
        fit_tau(ds, [], 0.39, 1520)
    with pytest.raises(ValueError):
        fit_tau(ds, [0.04, 0.03], 0.39, 1520)
    with pytest.raises(ValueError):
        fit_tau(ds, [0.0, 0.01], 0.39, 1520)


def test_fit_martin_coarse():
    ds = load_named_dataset("martin")
    result = fit_tau(ds, [0.030, 0.034, 0.038, 0.042, 0.046], 0.39, 1520)
    assert result.tau_best == 0.038
    assert result.score_best == max(score for _, score in result.grid)
    assert result.score_best == pytest.approx(17 / 22, rel=1e-12)  # tp 17, fp 8, fn 2


def test_fit_refuses_a_negative_primary_gap():
    # The sweep holds a kept gap above primary_gap on that side only, which
    # keeps it positive only for primary_gap >= 0: at -0.5 its trace used to
    # differ from the per-point one at 86 of these 401 points.
    grid = [round(0.02 + i * 1e-4, 10) for i in range(401)]
    with pytest.raises(ValueError, match="primary_gap must be >= 0"):
        fit_tau(load_named_dataset("martin"), grid, -0.5, 1520)
    with pytest.raises(ValueError, match="primary_gap must be >= 0"):
        predicted_primary_magics(0.038, -0.001, 1520)


def test_fit_ties_keep_smallest_tau():
    # a dataset so permissive that several taus reach the same score
    ds = load_dataset("2±1\n8±2\n")
    result = fit_tau(ds, [0.030, 0.034, 0.038], 0.39, 40)
    best = [tau for tau, score in result.grid if score == result.score_best]
    assert result.tau_best == best[0]


def _plain_fit(ds, grid, primary_gap, count_limit, slack, hbar_omega0, n_max):
    # fit_tau without the kernel or the score memo: every point takes the
    # reference path and is matched again.
    trace = []
    tau_best, score_best = grid[0], -1.0
    for tau in grid:
        predicted = predicted_primary_magics(tau, primary_gap, count_limit, hbar_omega0, n_max)
        score = match_magics(predicted, ds, slack=slack).f1
        trace.append((tau, score))
        if score > score_best:
            tau_best, score_best = tau, score
    return FitResult(tau_best, score_best, tuple(trace))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=60)
@given(
    grid=st.lists(st.floats(min_value=1e-4, max_value=0.3), min_size=1, max_size=30,
                  unique=True).map(sorted),
    name=st.sampled_from(BUNDLED_DATASETS),
    slack=st.integers(min_value=0, max_value=20),
    primary_gap=st.floats(min_value=0.1, max_value=1.0),
    count_limit=st.integers(min_value=2, max_value=2000),
    hbar_omega0=st.sampled_from([1.0, 0.5, 2.0]),
    n_max=st.integers(min_value=1, max_value=30),
)
# The energies overflow at tau = 1e200, and the span squared overflows a float.
@example(grid=[0.03, 1e200], name="martin", slack=0, primary_gap=0.39, count_limit=1520,
         hbar_omega0=1.0, n_max=24)
def test_fit_tau_is_the_plain_reference_loop(grid, name, slack, primary_gap, count_limit,
                                             hbar_omega0, n_max):
    # Same trace, best point and errors; later points may raise
    # InsufficientNMaxError where a larger tau needs a larger n_max.
    args = (load_named_dataset(name), grid, primary_gap, count_limit, slack, hbar_omega0, n_max)
    assert _outcome(fit_tau, *args) == _outcome(_plain_fit, *args)


def test_fit_takes_a_decimal_scale_as_its_float():
    # ModelParameters stores the scale as a float, and so do the sweep's stations.
    ds, taus = load_named_dataset("martin"), _taus(0.02, 0.06, 1e-4)
    assert fit_tau(ds, taus, 0.39, 1520, hbar_omega0=Decimal("1.7")) == \
        fit_tau(ds, taus, 0.39, 1520, hbar_omega0=1.7)


# ------------------------------------------------------------ certified sweep


def _direct_trace(ds, grid, primary_gap, count_limit, slack=0, hbar_omega0=1.0, n_max=24):
    # Every point read off the kernel, none carried over from a neighbour.
    trace = []
    for tau in grid:
        params = ModelParameters(DeformationParameter(tau), hbar_omega0, n_max)
        (predicted, _), _ = _fit_point(params, count_limit, primary_gap)
        trace.append((tau, match_magics(predicted, ds, slack=slack).f1))
    return tuple(trace)


@st.composite
def _sweep_grids(draw):
    # Uniform grids, often dense enough for the sweep to certify ranges, or
    # sorted random points: below tau = 0.15; up to tau = 1, where levels of
    # high shells reach the cut; across tau = 1-3, where kept levels often
    # have exactly equal energies, also densely, so that the sweep carries
    # states there; or across tau = 7.4-7.9, where the
    # energies of shells 0..n_max (40 to 8) start to cancel.
    band = draw(st.sampled_from([(1e-4, 0.15), (0.1, 1.0), (1.0, 3.0), "dense 1-3", (7.0, 8.5)]))
    if band == "dense 1-3":  # 50-150 points, 1e-4 to 1e-3 apart
        lo, step = draw(st.floats(min_value=1.0, max_value=2.85)), draw(st.floats(1e-4, 1e-3))
        return [lo + i * step for i in range(draw(st.integers(min_value=50, max_value=150)))]
    bottom, top = band
    if bottom == 7.0:
        lo, hi = draw(st.floats(min_value=7.0, max_value=7.4)), draw(st.floats(7.6, top))
    else:
        lo = draw(st.floats(min_value=bottom, max_value=top - 0.01))
        hi = lo + draw(st.one_of(st.floats(min_value=0.0, max_value=top / 50),
                                 st.floats(min_value=0.0, max_value=top - lo)))
    size = draw(st.integers(min_value=1, max_value=150))
    if draw(st.booleans()):
        step = (hi - lo) / size
        grid = [lo + i * step for i in range(size + 1)]
    else:
        grid = draw(st.lists(st.floats(min_value=lo, max_value=hi), min_size=1, max_size=size))
    return sorted(set(grid))  # a tiny step can round two points to one


@settings(deadline=None, max_examples=100)
@given(
    grid=_sweep_grids(),
    name=st.sampled_from(BUNDLED_DATASETS),
    primary_gap=st.floats(min_value=0.0, max_value=1.0),
    fill=st.floats(min_value=0.0, max_value=1.0),
    hbar_omega0=st.sampled_from([1.0, 0.5, 1.7]),
    n_max=st.integers(min_value=8, max_value=40),
    few=st.integers(min_value=2, max_value=40),
)
# 3000 particles at n_max 20: a carried state meets a tie at a station 13
# times, where the kernel takes over (random draws seldom do, about 2% of
# the dense ones).
@example(grid=[1.12 + i * 2e-4 for i in range(150)], name="martin", primary_gap=0.39,
         fill=3000 / 3542, hbar_omega0=1.7, n_max=20, few=2)
def test_sweep_trace_is_the_per_point_trace(grid, name, primary_gap, fill, hbar_omega0, n_max,
                                            few):
    # The certified sweep gives the trace, best point and error of evaluating
    # every point through predicted_primary_magics.  count_limit is a share
    # of what shells 0..n_max hold, so later points may need a larger n_max,
    # or at large tau a few particles, which the lowest shells hold there.
    count_limit = max(2, round(fill * (n_max + 1) * (n_max + 2) * (n_max + 3) / 3))
    if grid[0] >= 7:
        count_limit = few
    args = (load_named_dataset(name), grid, primary_gap, count_limit, 0, hbar_omega0, n_max)
    assert _outcome(fit_tau, *args) == _outcome(_plain_fit, *args)


TIED_SHELL = [2.6306 + i * 1e-5 for i in range(201)]


def _counted(monkeypatch):
    # The taus of the kernel's calls and of the sweep's single-level
    # evaluations: at each station, at the two points where a carried state
    # starts, and at the point before a station whose swap adds pairs.
    kernel_taus, station_taus = [], []
    kernel, level_energy = empirics._fit_point, empirics._level_energy
    monkeypatch.setattr(empirics, "_fit_point",
                        lambda p, *a: kernel_taus.append(p.deformation.tau) or kernel(p, *a))
    monkeypatch.setattr(empirics, "_level_energy",
                        lambda tau, hw: station_taus.append(tau) or level_energy(tau, hw))
    return kernel_taus, station_taus


def _kernel_states(grid, primary_gap, count_limit, hbar_omega0=1.0, n_max=24):
    # (primaries, cut) of every point read off the kernel, up to the first
    # whose scheme is incomplete.
    states = []
    for tau in grid:
        try:
            point = _fit_point(ModelParameters(DeformationParameter(tau), hbar_omega0, n_max),
                               count_limit, primary_gap)
        except InsufficientNMaxError:
            break
        states.append(point[0])
    return states


@pytest.mark.parametrize("grid, options, most_kernel_calls, most_stations", [
    ((0.02, 0.06, 1e-5), {}, 6, 800),
    ((0.02, 0.06, 1e-5), {"n_max": 30, "count_limit": 3000}, 15, 1560),
    # Below tau = 0.01 the levels of a shell lie within ~tau l^2 of each
    # other, and the magic list changes every few points.
    ((0.001, 0.12, 3e-5), {"n_max": 40}, 20, 1700),
    ((0.02, 0.06, 1e-5), {"primary_gap": 0.3}, 6, 840),
    # Exact ties between levels hold at most points of tau 1-3 (1467 of
    # 2001), and each goes to the kernel.
    ((1.0, 3.0, 1e-3), {}, 1620, 640),
], ids=["defaults", "n_max 30, count_limit 3000", "tau 0.001-0.12, n_max 40", "gap 0.3",
        "tau 1-3, ties"])
def test_sweep_matches_every_point_of_a_fine_grid(grid, options, most_kernel_calls, most_stations,
                                                  monkeypatch):
    lo, hi, step = grid
    taus = [round(lo + i * step, 10) for i in range(round((hi - lo) / step) + 1)]
    kwargs = {"primary_gap": 0.39, "count_limit": 1520, **options}
    ds = load_named_dataset("martin")
    expected = _direct_trace(ds, taus, **kwargs)
    kernel_taus, station_taus = _counted(monkeypatch)
    assert fit_tau(ds, taus, **kwargs).grid == expected
    # The kernel runs at few points, each at most once (5 of 4001 at the
    # defaults), and single levels are evaluated at some more: at each
    # station (676), at the two points where each of 4 carried states starts
    # (8), and at the point before each of 72 swaps that add pairs (72; the
    # station's own table gives their values at it), 756 in all.  The
    # budgets leave 5-20% over the counts (5, 13, 17, 5, 1469 kernel calls;
    # 756, 1481, 1618, 793, 532 evaluations), below the 828, 1614, 1787 and
    # 865 of a swap that builds a second table at its station.
    assert len(set(kernel_taus)) == len(kernel_taus) <= most_kernel_calls
    assert len(station_taus) <= most_stations


def _taus(lo, hi, step):
    return [round(lo + i * step, 10) for i in range(round((hi - lo) / step) + 1)]


def test_sweep_shares_a_magic_list_while_it_holds(monkeypatch):
    # A carried state that keeps the magic list keeps its tuple, so equal
    # neighbouring lists are distinct objects only past a kernel restart: on
    # the fine grid 61 runs and 4 restarts, 65 objects (136 when every carried
    # state built its own).
    taus = _taus(0.02, 0.06, 1e-5)
    kernel_taus, _ = _counted(monkeypatch)
    lists = [primaries for primaries, _ in empirics._sweep(taus, 0.39, 1520, 1.0, 24)]
    restarts = [tau for tau, a, b in zip(taus[1:], lists, lists[1:]) if a == b and a is not b]
    assert set(restarts) <= set(kernel_taus)
    assert sum(1 for _ in groupby(lists)) == 61 and len(set(map(id, lists))) <= 65


@pytest.mark.parametrize("grid", [(0.02, 0.06, 1e-5), (0.1, 1.0, 5e-4), (0.02, 0.3, 1e-4),
                                  (0.03, 0.046, 0.004), (0.02, 0.06, 0.002)])
def test_sweep_carries_from_a_kernel_point_after_a_carry_or_its_own_state(grid, monkeypatch):
    # Past the first point, a kernel point that holds no tie starts a carry,
    # whose first act is to evaluate levels, if the point before it was
    # carried or holds its state; else the kernel takes the next point.  The
    # states are still the kernel's at every point.
    taus = _taus(*grid)
    events, kernel, level_energy = [], empirics._fit_point, empirics._level_energy

    def counted(p, *args):
        events.append((taus.index(p.deformation.tau), kernel(p, *args)))
        return events[-1][1]

    monkeypatch.setattr(empirics, "_fit_point", counted)
    monkeypatch.setattr(empirics, "_level_energy",
                        lambda *args: events.append(None) or level_energy(*args))
    states = empirics._sweep(taus, 0.39, 1520, 1.0, 24)
    kernel_points = {event[0] for event in events if event}
    for event, after in zip(events, events[1:]):
        if event:
            i, point = event
            go = i and not point[1] and (i - 1 not in kernel_points or states[i - 1] == states[i])
            assert after is None if go else after[0] == i + 1
    monkeypatch.undo()
    assert states == _kernel_states(taus, 0.39, 1520)


@pytest.mark.parametrize("grid, count_limit, n_max", [
    ((0.03, 0.046, 0.004), 1520, 24),
    ((0.02, 0.06, 0.002), 1520, 24),
    ((0.02, 0.06, 0.001), 50000, 80),
], ids=["criterion 11", "default", "n_max 80, count_limit 50000"])
def test_sweep_certifies_nothing_where_each_point_holds_a_new_state(grid, count_limit, n_max,
                                                                    monkeypatch):
    # On these grids each point's state differs from the one before, so a
    # carry from a kernel point would certify its whole prefix and break at
    # the next point (172, 493 and 18214 certificates): the kernel walks every
    # point, once each, and nothing is certified.
    taus = _taus(*grid)
    certificates, certified = [], empirics._certified
    monkeypatch.setattr(empirics, "_certified",
                        lambda *args: certificates.append(args) or certified(*args))
    kernel_taus, _ = _counted(monkeypatch)
    states = empirics._sweep(taus, 0.39, count_limit, 1.0, n_max)
    assert certificates == [] and kernel_taus == taus
    monkeypatch.undo()
    assert states == _kernel_states(taus, 0.39, count_limit, n_max=n_max)


@pytest.mark.parametrize("grid, primary_gap, count_limit, hbar_omega0, n_max", [
    # (25, 1) and (25, 3) are kept and have equal energies at the first
    # point, and the list changes at the second.
    ([0.8211608421195171 + i * (0.840281913512822 - 0.8211608421195171) / 131
      for i in range(132)], 0.1228103859769204, 6736, 1.7, 32),
    # (21, 21) passes both (16, 0) and (17, 9) between points 143 and 144:
    # swapped with (16, 0) alone, it would lie below its new neighbour.
    ([round(0.0224 + i * 1.5e-5, 10) for i in range(185)], 0.02, 3001, 1.0, 23),
    # The 5-point fit of acceptance criterion 11: no two points share a
    # state, and the kernel walks all five.
    ([0.03, 0.034, 0.038, 0.042, 0.046], 0.39, 1520, 1.0, 24),
    # The energies of shell 36's low levels are equal floats: the kernel
    # keeps its l = 36..30 and its lowest l's, which tie with the level
    # above the cut (see the next test).
    (TIED_SHELL, 0.39, 17819, 1.7, 38),
    # ((21, 9), (22, 14)) is an outsider pair of one carried state and a kept
    # gap of the next, which starts at point 34: the first's certificate holds
    # only the sign of E(22, 14) - E(21, 9), not its side of primary_gap.
    ([round(0.0385 + i * 2e-4, 10) for i in range(44)], 0.561, 5020, 1.7, 29),
], ids=["tie of two kept levels", "a level passing two", "criterion 11",
        "tied shell at tau 2.6316", "an outsider pair that becomes a kept gap"])
def test_sweep_states_are_the_kernel_states(grid, primary_gap, count_limit, hbar_omega0, n_max):
    states = _kernel_states(grid, primary_gap, count_limit, hbar_omega0, n_max)
    assert empirics._sweep(grid, primary_gap, count_limit, hbar_omega0, n_max) == states
    assert len(states) == len(grid)
    ds = load_named_dataset("martin")
    args = (ds, grid, primary_gap, count_limit, 0, hbar_omega0, n_max)
    assert fit_tau(*args) == _plain_fit(*args)


def test_sweep_keeps_outside_levels_past_their_station_margin(monkeypatch):
    # At 211 particles (8, 8), shell 8's first outside level, falls through
    # (7, 5), the level above the cut, at tau near 0.04235.  E(8, 6) is put
    # below E(8, 8) by half its rounding bound, in the kernel's column and at
    # the stations alike: where E(8, 8) - E(7, 5) is below that, (8, 6) takes
    # (7, 5)'s place.  Only the station margin of the pair ((7, 5), (8, 8))
    # sees it; a sign check alone would carry the old state there.
    count_limit, top, first, lower = 211, (7, 5), (8, 8), (8, 6)
    _, _, shell_error, casimir_error = _drift_bounds(24, 1.0, 0.042)
    delta = (shell_error[8] + casimir_error[6]) / 2

    def v(tau):
        energy = _level_energy(tau, 1.0)
        return energy(*first) - energy(*top)

    a, b = 0.042, 0.043  # v(a) > 0 >= v(b): bisect to adjacent floats
    while math.nextafter(a, 1) < b:
        a, b = (a, (a + b) / 2) if v((a + b) / 2) <= 0 else ((a + b) / 2, b)
    step = a - math.nextafter(a, 0)
    near = [a - m * step for m in (400, 200, 100, 50)]
    grid = [a - 1e-6, a - 5e-7, *near]
    assert all(0 < v(tau) < delta < 1e-12 for tau in near) and v(grid[1]) > 1e-6

    column, level_energy = empirics._energies_up_to, empirics._level_energy
    levels = list(zip(*_shape(24)[:2]))

    def perturbed_column(p, n_hi):
        energies = list(column(p, n_hi))  # the kept column is shared, so perturb a copy
        energies[levels.index(lower)] = energies[levels.index(first)] - delta
        return energies

    def perturbed_level_energy(tau, hbar_omega0):
        energy = level_energy(tau, hbar_omega0)
        return lambda n, l: energy(*first) - delta if (n, l) == lower else energy(n, l)

    monkeypatch.setattr(empirics, "_energies_up_to", perturbed_column)
    monkeypatch.setattr(shells, "_energies_up_to", perturbed_column)  # the kernel's column
    monkeypatch.setattr(empirics, "_level_energy", perturbed_level_energy)
    states = _kernel_states(grid, 0.39, count_limit)
    assert [levels[cut[1][cut[0]]] for _, cut in states] == [top, top] + [lower] * len(near)
    assert empirics._sweep(grid, 0.39, count_limit, 1.0, 24) == states


def test_sweep_walks_where_kept_levels_tie(monkeypatch):
    # No certificate can hold a tie, so no state with one is carried: the
    # kernel runs at every point.
    kernel_taus, _ = _counted(monkeypatch)
    assert len(empirics._sweep(TIED_SHELL, 0.39, 17819, 1.7, 38)) == len(TIED_SHELL)
    assert kernel_taus == TIED_SHELL
    p = ModelParameters(DeformationParameter(2.631647282022267), 1.7, 38)
    kept = [lev.l for lev in build_scheme(p, 17819).levels if lev.n == 36]
    assert kept == sorted(kept, reverse=True)  # shell 36's highest l's


def test_sweep_sees_the_tie_of_two_kept_levels():
    tau = 0.8211608421195171
    p = ModelParameters(DeformationParameter(tau), 1.7, 32)
    assert energy(25, 1, p) == energy(25, 3, p)
    kept = [(lev.n, lev.l) for lev in build_scheme(p, 6736).levels]
    assert (25, 1) in kept and (25, 3) in kept
    after = tau + (0.840281913512822 - tau) / 131
    lists = [predicted_primary_magics(t, 0.1228103859769204, 6736, 1.7, 32) for t in (tau, after)]
    assert lists[0] != lists[1]


@settings(deadline=None, max_examples=300)
@given(h=st.floats(min_value=1e-12, max_value=1.0),
       q_a=st.floats(min_value=-1e3, max_value=1e3), q_s=st.floats(min_value=-1e3, max_value=1e3),
       bound=st.floats(min_value=1e-9, max_value=1e12),
       rounding=st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0)))
@example(h=1e-5, q_a=0.3, q_s=0.3001, bound=1e3, rounding=1e-13)
@example(h=1.0, q_a=0.0, q_s=2.225073858507203e-309, bound=109794005.0, rounding=0.0)
def test_reach_certifies_the_sign_in_exact_arithmetic(h, q_a, q_s, bound, rounding):
    # At the distance _reach returns, |L| - rounding (1 + 2d/h) - bound (d + h) d / 2
    # still exceeds rounding, in rational arithmetic, where L is the line
    # through q_a and q_s, and L keeps q_s's sign; the test is concave in d,
    # so it holds over [0, d] too.  Exactly 0 where |q_s| <= 2 rounding.
    d = empirics._reach(h, q_a, q_s, bound, rounding)
    assert d >= 0
    if abs(q_s) <= 2 * rounding:
        assert d == 0
    if d == 0:
        return
    H, A, S, B, R, D = map(Fraction, (h, q_a, q_s, bound, rounding, d))
    line = S + (S - A) * D / H
    assert (line > 0) == (S > 0)
    assert abs(line) - R * (1 + 2 * D / H) - B * (D + H) * D / 2 > R
    assert abs(S) - R > R


def test_reach_is_the_root_of_a_straight_quantity():
    # No curvature and no rounding: q falls from 1 to 0.5 over h = 1, so
    # it reaches 0 a distance 1 past tau_s; curvature or rounding shorten that.
    straight = empirics._reach(1.0, 1.0, 0.5, 0.0, 0.0)
    assert straight == pytest.approx(1.0, rel=1e-9) and straight < 1.0
    assert empirics._reach(1.0, 1.0, 0.5, 1e-3, 0.0) < straight
    assert empirics._reach(1.0, 1.0, 0.5, 0.0, 1e-3) < straight
    assert empirics._reach(1.0, 0.0, 0.5, 1e-300, 0.0) > 1e299  # rising, and almost no bound


@st.composite
def _stretch_tops(draw):
    # (tau0, n_max, r): the top of stretch r lies at most tau = 7 above tau0.
    tau0, n_max = draw(st.floats(min_value=1e-3, max_value=3.0)), draw(st.integers(1, 200))
    rise = math.log(2) / (2 * n_max + 2)
    return tau0, n_max, draw(st.integers(1, max(1, int((7.0 - tau0) / rise))))


@settings(deadline=None, max_examples=300)
@given(stretch=_stretch_tops(), ulps=st.integers(-2, 2), span=st.floats(0.0, 0.5),
       pair=st.sampled_from([((0, 0), (1, 1)), ((1, 1), (2, 0)), ((2, 0), (2, 2))]),
       thresholds=st.sampled_from([(0.0,), (0.0, 0.39), (0.39,)]),
       h=st.floats(min_value=1e-6, max_value=0.1), v_a=st.floats(-10.0, 10.0),
       v_s=st.floats(-10.0, 10.0))
# int((tau - tau0) / rise) + 1 is r at stretch 1's top and at the float
# above stretch 41's top: the quotient rounds down below r.
@example(stretch=(0.02, 8, 1), ulps=0, span=0.3, pair=((0, 0), (1, 1)), thresholds=(0.0,),
         h=0.01, v_a=4.9, v_s=5.0)
@example(stretch=(1.0877083769984186, 6, 41), ulps=1, span=0.3, pair=((0, 0), (1, 1)),
         thresholds=(0.0,), h=0.01, v_a=4.9, v_s=5.0)
def test_a_certificate_reads_the_stretch_that_holds_its_tau(stretch, ulps, span, pair, thresholds,
                                                           h, v_a, v_s):
    # A certificate from tau, and a station's margin at tau, read the tables
    # of the first stretch whose top lies above tau: tables of a lower one do
    # not bound tau.  Every float below the end is within the reach d of the
    # tables of a stretch whose top it does not pass, in exact arithmetic.
    tau0, n_max, r = stretch
    rise = math.log(2) / (2 * n_max + 2)
    tau = tau0 + r * rise
    for _ in range(abs(ulps)):
        tau = math.nextafter(tau, math.copysign(math.inf, ulps))
    stretches = empirics._stretches(tau0, tau + span, n_max, 1.0)
    assert tau < next(stretches(tau))[0] <= tau + 1.001 * rise
    assert tau + span < next(stretches(tau + span))[0] and len(list(stretches(tau + span))) == 1
    tops, reaches, reach = [], [], empirics._reach

    def spied(tau):
        for top, tables in stretches(tau):
            tops.append(top)
            yield top, tables

    with mock.patch.object(empirics, "_reach", lambda *a: reaches.append(reach(*a)) or reaches[-1]):
        end = empirics._certified(spied, pair, thresholds, tau - h, v_a, tau, v_s)
    ds = [min(reaches[j:j + len(thresholds)]) for j in range(0, len(reaches), len(thresholds))]
    assert len(ds) == len(tops) and tau <= end <= tops[-1]
    if end > tau:
        below = Fraction(math.nextafter(end, 0))
        assert any(below <= top and below - Fraction(tau) < d
                   for top, d in zip(map(Fraction, tops), map(Fraction, ds)))


@pytest.mark.parametrize("grid, n_max", [
    ((0.02, 0.06, 1e-5), 24), ((0.1, 1.0, 5e-4), 24), ((1.0, 3.0, 1e-3), 24),
    ((0.001, 0.12, 3e-5), 40),
], ids=["defaults", "tau 0.1-1", "tau 1-3, ties", "tau 0.001-0.12, n_max 40"])
def test_certificates_hold_between_the_grid_points(grid, n_max, monkeypatch):
    # A certificate claims every tau in [tau_s, end), not only the grid's
    # points: at random taus inside it, and at the float below its end, the
    # pair's difference stays on the side of each threshold it had at tau_s.
    lo, hi, step = grid
    taus = [round(lo + i * step, 10) for i in range(round((hi - lo) / step) + 1)]
    certificates, certified = [], empirics._certified

    def spy(stretches, pair, thresholds, tau_a, v_a, tau_s, v_s):
        end = certified(stretches, pair, thresholds, tau_a, v_a, tau_s, v_s)
        certificates.append((pair, thresholds, tau_s, v_s, end))
        return end

    monkeypatch.setattr(empirics, "_certified", spy)
    assert len(empirics._sweep(taus, 0.39, 1520, 1.0, n_max)) == len(taus)
    rng, samples = random.Random(21), 0
    for (a, b), thresholds, tau_s, v_s, end in certificates:
        inside = [tau_s + rng.random() * (end - tau_s) for _ in range(3)] + [math.nextafter(end, 0)]
        for tau in [t for t in inside if tau_s <= t < end]:
            energy = _level_energy(tau, 1.0)
            v = energy(*b) - energy(*a)
            assert all(v != c and (v > c) == (v_s > c) for c in thresholds), (a, b, tau_s, tau, end)
            samples += 1
    assert samples > 2000


def _quantities(point, primary_gap, n_max):
    # The thresholds of each pair of levels ((n, l), (n', l')) of a state:
    # adjacent prefix spacings, kept gaps, floor minus top kept, and the
    # highest-l outside level of each shell minus the prefix top, up to the
    # first shell whose (n, n) is outside.
    levels = list(zip(*_shape(n_max)[:2]))
    (_, (k, prefix)), _ = point
    quantities = {}
    names = [levels[x] for x in prefix]
    for t, pair in enumerate(zip(names, names[1:])):
        quantities[pair] = (0.0, primary_gap) if t < k - 1 else (0.0,)
    quantities[names[k - 1], (n_max + 1, n_max + 1)] = (0.0,)
    for n in range(n_max + 1 if len(names) > k else 0):
        outside = [(n, l) for l in range(n, -1, -2) if (n, l) not in names]
        quantities.update({(names[k], x): (0.0,) for x in outside[:1]})
        if (n, n) in outside:
            break
    return quantities


def test_every_carried_point_is_certified(monkeypatch):
    # At every point the sweep did not hand to the kernel, each quantity of
    # the kernel's state there lies on the side of each of its thresholds
    # that a certificate computed at or before that point holds it on.  The
    # grid spans many stretches of the bound tables.
    taus = [round(0.02 + i * 1e-4, 10) for i in range(2801)]
    certificates = {}  # pair -> [(tau_s, end, thresholds, value at tau_s)]
    certified = empirics._certified

    def spy(stretches, pair, thresholds, tau_a, v_a, tau_s, v_s):
        end = certified(stretches, pair, thresholds, tau_a, v_a, tau_s, v_s)
        certificates.setdefault(pair, []).append((tau_s, end, thresholds, v_s))
        return end

    def drift_bounds(n_max, hbar_omega0, tau_hi):
        return rung_tops.add(tau_hi) or bounds_at(n_max, hbar_omega0, tau_hi)

    rung_tops, bounds_at = set(), empirics._drift_bounds
    monkeypatch.setattr(empirics, "_certified", spy)
    monkeypatch.setattr(empirics, "_drift_bounds", drift_bounds)
    kernel_taus, station_taus = _counted(monkeypatch)
    states = empirics._sweep(taus, 0.39, 1520, 1.0, 24)
    monkeypatch.undo()
    assert states == _kernel_states(taus, 0.39, 1520)
    carried = [j for j, tau in enumerate(taus) if tau not in kernel_taus]
    assert len(carried) > 2700 and len(set(station_taus)) > 300 and len(rung_tops) > 10
    ns, ls, _ = _shape(24)
    for j in carried:
        p = ModelParameters(DeformationParameter(taus[j]), 1.0, 24)
        *energies, floor = _energies_up_to(p, 24)
        energy_of = {**dict(zip(zip(ns, ls), energies)), (25, 25): floor}
        for (a, b), needed in _quantities(_fit_point(p, 1520, 0.39), 0.39, 24).items():
            value = energy_of[b] - energy_of[a]
            held = [thresholds for tau_s, end, thresholds, v_s in certificates.get((a, b), ())
                    if (tau_s <= taus[j] < end or taus[j] == tau_s)
                    and all(value != c and (v_s > c) == (value > c) for c in thresholds)]
            assert any(set(needed) <= {*thresholds, 0.0} and (0.0 in thresholds or value > 0.39)
                       for thresholds in held), (j, a, b)


def test_a_restarted_carry_keeps_the_certificates_that_reach_it(monkeypatch):
    # After a kernel call, the next carried state certifies only its new,
    # changed and expired pairs: 905 certificates on the fine grid at the
    # defaults, against 1065 when each carry certified its whole prefix.
    calls, certified = [], empirics._certified
    monkeypatch.setattr(empirics, "_certified", lambda *args: calls.append(args) or
                        certified(*args))
    taus = [round(0.02 + i * 1e-5, 10) for i in range(4001)]
    assert len(empirics._sweep(taus, 0.39, 1520, 1.0, 24)) == len(taus)
    assert len(calls) <= 910


@pytest.mark.parametrize("hi", [3.51, 3.52, 3.54])
def test_sweep_certifies_nothing_where_the_curvature_bounds_overflow(hi, monkeypatch):
    # At n_max 100 the bound tables overflow from tau = 3.51 (at 3.52 so does
    # the rounding bound, and at 3.54 cosh raises), below the energies of
    # shells 0..100 (from 3.527).
    # Eight particles keep one magic list all the way, but no certificate
    # reaches past its point: each point is a station or a kernel call, and
    # the trace and error are the reference path's.
    taus = [round(3.49 + i * (hi - 3.49) / 40, 10) for i in range(41)]
    args = (load_named_dataset("martin"), taus, 0.39, 8, 0, 1.0, 100)
    kernel_taus, station_taus = _counted(monkeypatch)
    assert _outcome(fit_tau, *args) == _outcome(_plain_fit, *args)
    # From tau = 3.514 the kernel cannot finish, and build_scheme's n_max
    # search overflows: the sweep raises at its last kernel point.
    if hi == 3.51:
        swept = taus[:len(empirics._sweep(taus, 0.39, 8, 1.0, 100))]
    else:
        with pytest.raises(ValueError, match="overflow a float"):
            empirics._sweep(taus, 0.39, 8, 1.0, 100)
        swept = taus[:taus.index(kernel_taus[-1])]
    assert len(swept) == {3.51: 41, 3.52: 32, 3.54: 20}[hi]
    assert set(swept) <= set(kernel_taus) | set(station_taus)


@pytest.mark.parametrize("grid, count_limit, n_max, error, message, primary_gap", [
    # Dense enough that its ends would certify every point between.
    ([round(0.03 + i * 1e-5, 10) for i in range(50)] + [math.nan]
     + [round(0.0305 + i * 1e-5, 10) for i in range(50)], 1520, 24, ValueError, "finite", 0.39),
    ([round(0.03 + i * 1e-5, 10) for i in range(100)] + [math.inf], 1520, 24, ValueError, "finite",
     0.39),
    # n_max 12 cannot hold 700 particles at tau = 0.05, before the NaN.
    ([0.03, 0.04, 0.05, math.nan, 0.07], 700, 12, InsufficientNMaxError, "n_max=12", 0.39),
    # Eight particles keep one state, but from tau = 7.401 the energies of
    # shells 0..40 cancel: the sweep carries no point past 7.4.
    ([round(7.3 + i * 1e-3, 10) for i in range(201)], 8, 40, ValueError, "cancel at tau=7.401",
     0.39),
    # The first point checks the threshold, on the reference path.
    ([0.038], 1520, 24, ValueError, "gap thresholds must be finite", math.nan),
    ([0.03, 0.04], 1520, 24, ValueError, "gap thresholds must be finite", math.inf),
], ids=["nan inside", "inf last", "n_max before nan", "refused tail", "nan gap", "inf gap"])
def test_fit_raises_at_the_first_non_finite_or_failing_point(grid, count_limit, n_max, error,
                                                             message, primary_gap):
    args = (load_named_dataset("martin"), grid, primary_gap, count_limit, 0, 1.0, n_max)
    outcome = _outcome(fit_tau, *args)
    assert outcome == _outcome(_plain_fit, *args)
    assert outcome[0] is error and message in outcome[1]


@pytest.mark.parametrize("grid, primary_gap", [
    ((0.0732, 0.0734, 0.0736), 0.455346),
    ((0.0738, 0.074, 0.0742), 1.435134),
    ((0.0834, 0.084, 0.0846), 0.199115),
])
def test_sweep_sees_a_gap_that_crosses_the_threshold_and_back(grid, primary_gap, monkeypatch):
    # The ends share their level order, their cut and their magic list, but
    # one kept gap rises above primary_gap between them: their margins do
    # not cover the drift over h, so the middle point is evaluated.  The
    # lists run A, B, A, and the fit scores each run once at most.
    ds = load_named_dataset("martin")
    lists = [predicted_primary_magics(tau, primary_gap, 1520) for tau in grid]
    assert lists[0] == lists[2] != lists[1]
    expected = _direct_trace(ds, grid, primary_gap, 1520)
    scored = _scored(monkeypatch)
    assert fit_tau(ds, grid, primary_gap, 1520).grid == expected
    assert len(scored) <= 3


def _scored(monkeypatch):
    # The magic lists of fit_tau's match_magics calls.
    scored, match = [], empirics.match_magics
    monkeypatch.setattr(empirics, "match_magics",
                        lambda p, *args, **kwargs: scored.append(p) or match(p, *args, **kwargs))
    return scored


def test_fit_scores_each_run_of_one_magic_list_once(monkeypatch):
    # The 4001 points of the fine grid hold 61 runs of equal magic lists.
    taus = [round(0.02 + i * 1e-5, 10) for i in range(4001)]
    runs = len(list(groupby(primaries for primaries, _ in _kernel_states(taus, 0.39, 1520))))
    scored = _scored(monkeypatch)
    fit_tau(load_named_dataset("martin"), taus, 0.39, 1520)
    assert len(scored) == runs == 61


def test_sweep_raises_at_the_first_point_that_needs_a_larger_n_max():
    # n_max 12 holds 700 particles completely only up to tau = 0.0491, and
    # again above 0.0939.  The error is that of the first failing point.
    taus = [round(0.02 + i * 1e-5, 10) for i in range(4001)]
    with pytest.raises(InsufficientNMaxError) as err:
        fit_tau(load_named_dataset("martin"), taus, 0.39, 700, n_max=12)
    assert str(err.value) == ("n_max=12 is too small for count_limit=700: shell 13 starts "
                              "below the truncation energy 16.791574; use n_max >= 13")
