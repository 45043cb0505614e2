import argparse
import contextlib
import csv
import gc
import gzip
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qshell import bundled_dataset_names, cli, fit_tau, predicted_primary_magics
from qshell.cli import (
    MAX_COUNT_LIMIT,
    MAX_FIT_LEVELS,
    MAX_GRID_POINTS,
    MAX_N_MAX,
    RunConfig,
    _expand_grid,
    parse_args,
    run,
)
from qshell.qmath import DeformationParameter
from qshell.shells import build_scheme
from qshell.spectrum import ModelParameters

PRIMARY_MAGICS = [
    2, 8, 20, 34, 40, 58, 92, 138, 198, 254, 268, 338, 440, 556, 676,
    694, 832, 912, 1012, 1100, 1206, 1284, 1314, 1410, 1502,
]


# A grid within the (hi - lo) // step + 1 estimate of 100000 points that expands
# to 100001: each point is a whole number of ulps from lo, the last rounds down
# by nearly half a step, and hi + step / 2 rounds up to meet it.
OVERSHOOT = "10000.000000000107:10000.000010004449:1.000444171950221e-10"


def capture(config):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = run(config)
    return status, buf.getvalue()


# ----------------------------------------------------------------- parsing


def test_defaults():
    # RunConfig states each default: an omitted option takes it, and the
    # "(default X)" of each option's help, the one other place that states
    # it, agrees.  Only --grid's default and --format's per command are the
    # parser's; --grid's help prints its default through argparse.
    config = parse_args(["magics"])
    assert config == RunConfig(command="magics")
    assert (config.tau, config.hbar_omega0, config.n_max) == (0.038, 1.0, 24)
    assert (config.primary_gap, config.secondary_gap) == (0.39, 0.30)
    assert (config.count_limit, config.slack, config.format) == (1520, 0, "text")
    for command, (_, _, groups, formats) in cli._COMMANDS.items():
        dataset = ["--dataset", "martin"] if "dataset" in groups else []
        assert parse_args([command, *dataset]) == RunConfig(
            command, dataset_path="martin" if dataset else None, format=(*formats, "text")[0],
            tau_grid=(0.02, 0.06, 0.002) if "grid" in groups else None)
        subparser = cli._build_parser(command)._subparsers._group_actions[0].choices[command]
        for action in subparser._actions[1:]:  # past -h
            stated = re.search(r"\(default (\S+)\)$", action.help or "")
            if action.dest == "grid_spec":
                assert action.help.endswith("(default %(default)s)")
                assert action.default == "0.02:0.06:0.002"
            elif action.dest == "format" or action.required:
                assert stated is None
            else:
                field_default = RunConfig._field_defaults[action.dest]
                assert action.default is argparse.SUPPRESS
                assert type(field_default)(stated[1]) == field_default, (command, action.dest)
    # The library's model defaults are the CLI's.
    for function in (ModelParameters, predicted_primary_magics, fit_tau):
        parameters = inspect.signature(function).parameters
        for name in ("n_max", "hbar_omega0"):
            assert parameters[name].default == RunConfig._field_defaults[name], (function, name)


def test_flag_parsing():
    config = parse_args(["magics", "--tau", "0.038", "--gap", "0.39"])
    assert config.tau == 0.038 and config.primary_gap == 0.39
    assert parse_args(["magics", "--primary-gap", "0.5"]).primary_gap == 0.5


def test_fit_grid_parsing():
    config = parse_args(["fit", "--dataset", "martin", "--grid", "0.02:0.06:0.002"])
    assert config.command == "fit"
    assert config.dataset_path == "martin"
    assert config.tau_grid == (0.02, 0.06, 0.002)
    fine = parse_args(["fit", "--dataset", "martin", "--grid", "0.02:0.06:0.00001"])
    assert len(_expand_grid(fine.tau_grid)) == 4001


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["magics", "--no-such-flag"],
        ["magics", "--tau", "nan"],
        ["magics", "--tau", "abc"],
        ["magics", "--hbar-omega0", "0"],
        ["magics", "--n-max", "0"],
        ["magics", "--count-limit", "1"],
        ["magics", "--secondary-gap", "0.5"],
        ["magics", "--format", "yaml"],
        ["table", "--format", "csv"],
        ["export", "--format", "text"],
        ["compare"],
        ["fit", "--dataset", "martin", "--grid", "0.06:0.02:0.002"],
        ["fit", "--dataset", "martin", "--grid", "0.02:0.06"],
        ["fit", "--dataset", "martin", "--grid", "0:0.06:0.002"],
        ["compare", "--dataset", "martin", "--slack", "-1"],
        ["magics", "--tau", "-0.038"],
        ["fit", "--dataset", "martin", "--grid", "0.02:100:1e-9"],
        ["fit", "--dataset", "martin", "--grid", "0.02:0.020000001:1e-11"],
        ["magics", "--n-max", "201"],
        ["fit", "--dataset", "martin", "--n-max", "201"],
        ["magics", "--count-limit", "1000001"],
        ["table", "--tau", "0", "--secondary-gap", "-1"],
        ["levels", "--secondary-gap", "-0.5"],
        ["fit", "--dataset", "martin", "--secondary-gap", "-1"],
        ["fit", "--dataset", "martin", "--primary-gap", "-1"],
        ["fit", "--dataset", "martin", "--n-max", "200", "--count-limit", "1000000",
         "--grid", "0.02:2:0.00002"],
        ["fit", "--dataset", "martin", "--n-max", "199", "--grid", "0.001:1:0.001"],
        ["fit", "--dataset", "martin", "--grid", "0.02:0.02:1e-20"],
        ["fit", "--dataset", "martin", "--grid", "1e-300:1e-299:1e-300"],
        # 100001 points by the (hi - lo) / step estimate, and within it but
        # 100001 points once rounded (OVERSHOOT).
        ["fit", "--dataset", "martin", "--n-max", "1", "--grid", "0.1:0.10001:1e-10"],
        ["fit", "--dataset", "martin", "--n-max", "1", "--grid", OVERSHOOT],
        ["magics", "--primary-gap", "nan"],
        ["fit", "--dataset", "martin", "--secondary-gap", "inf"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2
    capsys.readouterr()


def _parse_outcome(argv, capsys):
    try:
        config, code = parse_args(argv), None
    except SystemExit as exc:
        config, code = None, exc.code
    out, err = capsys.readouterr()
    return config, code, out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--bogus"], ["-h", "magics"],
    *([command, "-h"] for command in cli._COMMANDS),
    ["magics", "--bogus"], ["fit", "--dataset", "martin", "--grid", "x"], ["levels", "extra"],
    ["table", "--format", "csv"], ["export", "--n-max", "0"], ["compare"],
    ["fit", "--dataset", "martin", "--gap", "0.3"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_one_subparser_parses_like_the_full_parser(argv, capsys, monkeypatch):
    # parse_args adds the options of argv's command alone; help, usage,
    # errors, exit codes and the parsed config stay those of the parser
    # with every command.
    outcome = _parse_outcome(argv, capsys)
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_parser())
    assert outcome == _parse_outcome(argv, capsys)


@pytest.mark.parametrize("spec", ["-0.1:0.2:0.1", "-1:2:3", "-.5:1:1", "-1e-3:0.06:0.002",
                                  "-0.06:-0.02:0.002", "-inf:1:1", "-x:y:z"])
def test_grid_spec_that_starts_with_a_minus_is_a_grid_error(spec, capsys):
    # argparse takes a value that starts with "-" for an option unless it is
    # a plain number, and --grid then "expected one argument"; a spec holds a
    # ":", so `--grid SPEC` parses as `--grid=SPEC`, wherever --grid stands,
    # and so do fit's abbreviations --gri and --gr.
    joined = _parse_outcome(["fit", "--dataset", "martin", f"--grid={spec}"], capsys)
    assert joined[:2] == (None, 2) and joined[3].endswith(f", got {spec!r}\n")
    assert joined[3].startswith("usage: qshell [-h] command ...\nqshell: error: --grid ")
    for flag in ("--grid", "--gri", "--gr"):
        assert _parse_outcome(["fit", "--dataset", "martin", flag, spec], capsys) == joined
        assert _parse_outcome(["fit", flag, spec, "--dataset", "martin"], capsys) == joined
        _, code, _, err = _parse_outcome(["magics", flag, spec], capsys)  # no --grid to join
        assert code == 2 and err.endswith(f"error: unrecognized arguments: {flag} {spec}\n")
    _, code, _, err = _parse_outcome(["fit", "--dataset", "martin", "--g", spec], capsys)
    assert code == 2 and err.endswith("error: ambiguous option: --g could match --gap, --grid\n")


@pytest.mark.parametrize("value", ["--dataset", "-h", "-x"])
def test_grid_before_an_option_still_lacks_its_value(value, capsys):
    config, code, _, err = _parse_outcome(["fit", "--grid", value, "martin"], capsys)
    assert (config, code) == (None, 2)
    assert err.endswith("qshell fit: error: argument --grid: expected one argument\n")


def test_a_command_line_builds_its_command_alone():
    parser = cli._build_parser("magics")
    subparsers = parser._subparsers._group_actions[0].choices
    assert list(subparsers) == ["magics"]


def test_collapsing_grid_is_a_grid_error(capsys):
    # Points 1e-11 apart coincide once _expand_grid rounds them.
    with pytest.raises(SystemExit):
        parse_args(["fit", "--dataset", "martin", "--grid", "0.02:0.020000001:1e-11"])
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["5e-324", "1e-323", "2.225073858507201e-308"])
def test_subnormal_hbar_omega0_is_a_usage_error(value, capsys):
    # `levels --hbar-omega0 1e-323` used to exit 0 with (2, 0) before (2, 2).
    with pytest.raises(SystemExit) as err:
        parse_args(["levels", "--hbar-omega0", value])
    assert err.value.code == 2
    assert "--hbar-omega0" in capsys.readouterr().err
    assert parse_args(["levels", "--hbar-omega0", repr(sys.float_info.min)]).hbar_omega0 > 0


def test_grid_expansion_is_bounded_and_keeps_accepted_grids(capsys):
    # Points that stall under rounding used to expand until memory ran out;
    # a grid whose points rise keeps every point it reaches, and the cap is
    # on those points: 100000 pass, 100001 do not, by the estimate or after
    # the expansion.  The estimate counts whole steps: (hi - lo) / step + 1
    # refused 0.9:90.8994:0.0009 and 0.1:1.099995:0.00001.
    assert len(_expand_grid((0.02, 0.02, 1e-20))) == 2 * MAX_GRID_POINTS
    argv = ["fit", "--dataset", "martin", "--n-max", "1", "--grid"]
    for spec in ("0.1:0.1000099999:1e-10", "0.1:0.100099999:1e-9", "0.9:90.8994:0.0009",
                 "0.1:1.099995:0.00001"):
        assert len(_expand_grid(parse_args(argv + [spec]).tau_grid)) == MAX_GRID_POINTS
    lo, hi, step = map(float, OVERSHOOT.split(":"))
    assert (hi - lo) // step + 1 <= MAX_GRID_POINTS < len(_expand_grid((lo, hi, step)))
    for spec in ("0.1:0.10001:1e-10", OVERSHOOT, "0.9:90.9003:0.0009", "0.1:1.1:0.00001"):
        with pytest.raises(SystemExit):
            parse_args(argv + [spec])
        assert f"has more than {MAX_GRID_POINTS} points" in capsys.readouterr().err


class _Refusing:
    def error(self, message):
        raise ValueError(message)


@settings(deadline=None)
@given(lo=st.floats(min_value=1e-10, max_value=1e4), points=st.integers(min_value=1, max_value=3000),
       share=st.floats(min_value=0.0, max_value=1.0), step=st.floats(min_value=1e-12, max_value=1.0))
def test_grid_stops_at_hi(lo, points, share, step):
    # Every accepted grid rises strictly from lo, rounded to 10 decimals, and
    # stops at hi, less than half a step past it (1e-9 at most).  From a
    # 1e-10 step on, its whole steps from lo, the estimate of the cap, never
    # outnumber its points; a finer step may round points past hi (lo =
    # 0.6608502184497672 with two 1e-12 steps keeps one point).
    hi = lo + (points - 1 + share) * step
    try:
        grid = cli._parse_grid_spec(_Refusing(), f"{lo!r}:{hi!r}:{step!r}")
    except ValueError:
        return
    taus = _expand_grid(grid)
    assert taus[0] == round(lo, 10) and taus[-1] <= hi + min(1e-9, step / 2)
    assert all(a < b for a, b in zip(taus, taus[1:]))
    assert step < 1e-10 or (hi - lo) // step + 1 <= len(taus)


def test_fit_grid_ends_at_hi_below_a_nanosecond_step():
    # Points up to hi + 1e-9 gave 11 taus, up to 1.001e-06.
    status, out = capture(parse_args(["fit", "--dataset", "martin", "--grid", "1e-6:1e-6:1e-10"]))
    assert status == 0
    assert [line.split()[0] for line in out.splitlines()] == ["tau", "best"]


def test_grid_rounding_to_tau_zero_is_a_usage_error(capsys):
    # lo is positive, but _expand_grid rounds 1e-11 to 0.0; that used to exit 1
    # from fit_tau.
    with pytest.raises(SystemExit) as err:
        parse_args(["fit", "--dataset", "martin", "--grid", "0.00000000001:0.05:0.01"])
    assert err.value.code == 2
    assert "--grid" in capsys.readouterr().err
    config = parse_args(["fit", "--dataset", "martin", "--grid", "0.0000000001:0.05:0.01"])
    assert _expand_grid(config.tau_grid)[0] == 1e-10


def test_caps_are_inclusive():
    config = parse_args(["magics", "--n-max", str(MAX_N_MAX),
                         "--count-limit", str(MAX_COUNT_LIMIT)])
    assert (config.n_max, config.count_limit) == (MAX_N_MAX, MAX_COUNT_LIMIT)
    # Shells 0..198 hold 100 * 100 levels, so 1000 grid points reach the
    # fit work cap exactly.
    config = parse_args(["fit", "--dataset", "martin", "--n-max", "198",
                         "--count-limit", str(MAX_COUNT_LIMIT), "--grid", "0.001:1:0.001"])
    assert len(_expand_grid(config.tau_grid)) * 100 * 100 == MAX_FIT_LEVELS


def test_fit_work_cap_names_the_work(capsys):
    with pytest.raises(SystemExit):
        parse_args(["fit", "--dataset", "martin", "--n-max", "199", "--grid", "0.001:1:0.001"])
    assert "fit would build 10100000 levels" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["levels"], ["magics"], ["table"], ["compare", "--dataset", "martin"],
    ["fit", "--dataset", "martin"], ["export"],
])
@pytest.mark.parametrize("flag", ["--primary-gap", "--secondary-gap"])
def test_negative_gap_is_a_usage_error(command, flag, capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(command + [flag, "-1"])
    assert err.value.code == 2
    assert "--primary-gap and --secondary-gap must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fit", "--dataset", "martin", "--primary-gap", "0.2", "--secondary-gap", "0.3"],
    ["levels", "--primary-gap", "0.1"],
])
def test_ungraded_secondary_gap_is_not_compared(argv):
    # levels and fit never grade secondary closures.
    config = parse_args(argv)
    assert config.secondary_gap >= config.primary_gap


# ---------------------------------------------------------------- commands


def test_magics_text():
    status, out = capture(RunConfig("magics"))
    assert status == 0
    assert out.splitlines() == [str(m) for m in PRIMARY_MAGICS]


def test_levels_formats_agree():
    def tuples_text(out):
        rows = out.splitlines()[1:]
        return {tuple(row.split()) for row in rows}

    _, text = capture(RunConfig("levels"))
    _, as_csv = capture(RunConfig("levels", format="csv"))
    _, as_json = capture(RunConfig("levels", format="json"))

    from_text = tuples_text(text)
    from_csv = {
        (r["n"], r["l"], f"{float(r['energy']):.3f}", r["degeneracy"], r["cumulative"])
        for r in csv.DictReader(io.StringIO(as_csv))
    }
    doc = json.loads(as_json)
    from_json = {
        (str(r["n"]), str(r["l"]), f"{r['energy']:.3f}", str(r["degeneracy"]), str(r["cumulative"]))
        for r in doc["levels"]
    }
    assert from_text == from_csv == from_json
    assert len(from_text) == 62  # levels kept within the default 1520


def test_levels_cuts_same_shell_ties_in_the_exact_order():
    # (14, 2) and (14, 0) tie in float at tau 1.558, but (14, 2) lies exactly
    # below (14, 0) and does not fit: the scheme stops at (14, 4), total 1410.
    status, out = capture(parse_args(["levels", "--tau", "1.558", "--count-limit", "1412"]))
    assert status == 0
    n, l, _, _, total = out.splitlines()[-1].split()
    assert (n, l, total) == ("14", "4", "1410")


def test_levels_csv_round_trips_full_precision():
    _, out = capture(RunConfig("levels", format="csv"))
    rows = list(csv.DictReader(io.StringIO(out)))
    scheme = build_scheme(ModelParameters(DeformationParameter(0.038)), 1520)
    assert len(rows) == len(scheme.levels)
    for row, lev in zip(rows, scheme.levels):
        assert abs(float(row["energy"]) - lev.energy) < 1e-9
        assert float(row["energy"]) == lev.energy  # repr round-trips exactly


def test_export_csv_gap_and_grade_columns():
    _, out = capture(RunConfig("export", format="csv"))
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["magic_grade"] == "primary"
    assert rows[-1]["gap_to_next"] == ""
    grades = {r["magic_grade"] for r in rows}
    assert grades == {"", "primary", "secondary"}
    primary_counts = [int(r["cumulative"]) for r in rows if r["magic_grade"] == "primary"]
    assert primary_counts == PRIMARY_MAGICS


def test_export_json_envelope_carries_config():
    _, out = capture(RunConfig("export", format="json", tau=0.04))
    doc = json.loads(out)
    assert doc["config"]["command"] == "export"
    assert doc["config"]["tau"] == 0.04
    assert doc["config"]["count_limit"] == 1520
    assert len(doc["levels"]) > 0
    assert doc["levels"][-1]["gap_to_next"] is None


def test_table_matches_magics():
    _, table = capture(RunConfig("table"))
    starred = [line for line in table.splitlines() if line.endswith("*")]
    assert len(starred) == len(PRIMARY_MAGICS)


def test_compare_knight_all_matched():
    status, out = capture(RunConfig("compare", dataset_path="knight"))
    assert status == 0
    assert "tp 6 fp 19 fn 0" in out
    for value in (2, 8, 20, 40, 58, 92):
        assert f"pair {value} {value}" in out


def test_compare_martin_report():
    _, out = capture(RunConfig("compare", dataset_path="martin"))
    assert "tp 17 fp 8 fn 2" in out
    assert "f1 0.772727" in out
    assert "unmatched-observed 90" in out
    assert "unmatched-observed 1040" in out


def test_compare_json_fields():
    _, out = capture(RunConfig("compare", dataset_path="martin", format="json"))
    doc = json.loads(out)
    assert (doc["tp"], doc["fp"], doc["fn"]) == (17, 8, 2)
    assert doc["f1"] == pytest.approx(17 / 22, rel=1e-12)
    assert [1206, 1220] in doc["pairs"]


@pytest.mark.parametrize("tau", [0.0, 0.038, 0.1, 0.5])
@pytest.mark.parametrize("slack", [0, 3, 40])
def test_compare_formats_list_the_same_rows(tau, slack):
    # Text prints each csv row's non-empty fields, and json holds the same
    # pairs and unmatched values in the same order, for every dataset.
    for name in bundled_dataset_names():
        config = RunConfig("compare", tau=tau, dataset_path=name, slack=slack)
        text, table, doc = (capture(config._replace(format=fmt))[1] for fmt in cli._FORMATS)
        doc, rows = json.loads(doc), list(csv.reader(io.StringIO(table)))
        listed = [("pair", p, o) for p, o in doc["pairs"]]
        listed += [("unmatched-predicted", p, "") for p in doc["unmatched_predicted"]]
        listed += [("unmatched-observed", "", o) for o in doc["unmatched_observed"]]
        assert rows == [["kind", "predicted", "observed"]] + [list(map(str, row)) for row in listed]
        lines = text.splitlines()
        assert lines[1:-2] == [" ".join(filter(None, row)) for row in rows[1:]]
        assert lines[-2:] == [f"tp {doc['tp']} fp {doc['fp']} fn {doc['fn']}",
                              f"f1 {doc['f1']:.6f}"]


def test_fit_text_output():
    config = parse_args(["fit", "--dataset", "martin"])
    status, out = capture(config)
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 22  # 21 grid points plus the best line
    assert lines[-1] == "best tau 0.038000 f1 0.772727"


def test_fit_json_output():
    config = parse_args(["fit", "--dataset", "martin", "--grid", "0.03:0.046:0.004",
                         "--format", "json"])
    _, out = capture(config)
    doc = json.loads(out)
    assert doc["tau_best"] == 0.038
    assert doc["score_best"] == pytest.approx(17 / 22, rel=1e-12)
    assert len(doc["grid"]) == 5


def test_fit_follows_its_own_n_max_advice(capsys):
    argv = ["fit", "--dataset", "martin", "--count-limit", "4080"]
    status, out = capture(parse_args(argv))
    assert status == 1 and out == ""
    bound = re.search(r"use n_max >= (\d+)", capsys.readouterr().err).group(1)
    status, out = capture(parse_args(argv + ["--n-max", bound]))
    assert status == 0
    assert out.splitlines()[-1].startswith("best tau ")


def test_n_max_advice_near_cancellation_exits_1(capsys):
    # At tau = 7.5, where shells 0..31 cancel, the n_max search cuts 23 and 24
    # each on its own column, and n_max 24 holds the 5000 particles.  The
    # truncation energy, a 144-digit number, is printed in exponent form.
    argv = ["magics", "--tau", "7.5", "--count-limit", "5000"]
    status, out = capture(parse_args(argv + ["--n-max", "22"]))
    assert status == 1 and out == ""
    assert capsys.readouterr().err.endswith(
        "shell 23 starts below the truncation energy 2.075770e+143; use n_max >= 24\n")
    assert capture(parse_args(argv + ["--n-max", "24"]))[0] == 0


def test_fit_passes_the_energy_scale_through():
    # Energies and gaps scale exactly with hbar_omega0 = 2, so doubling the
    # thresholds too must reproduce the default fit.
    argv = ["fit", "--dataset", "martin", "--grid", "0.03:0.046:0.004"]
    scaled = argv + ["--hbar-omega0", "2", "--primary-gap", repr(2 * 0.39),
                     "--secondary-gap", repr(2 * 0.30)]
    assert capture(parse_args(scaled)) == capture(parse_args(argv))
    status, out = capture(parse_args(argv + ["--hbar-omega0", "2"]))
    assert status == 0 and out != capture(parse_args(argv))[1]


def test_fit_below_the_default_secondary_gap_runs():
    # --primary-gap 0.25 sits below the default --secondary-gap 0.30, which
    # fit never reads; it used to exit 2.
    argv = ["fit", "--dataset", "martin", "--grid", "0.03:0.046:0.004", "--primary-gap", "0.25"]
    status, out = capture(parse_args(argv))
    assert status == 0
    assert out == capture(parse_args(argv + ["--secondary-gap", "0.1"]))[1]


def test_dataset_by_path(tmp_path):
    f = tmp_path / "mine.txt"
    f.write_text("2\n8\n20\n34\n40\n58\n", encoding="utf-8")
    _, out = capture(RunConfig("compare", dataset_path=str(f)))
    assert "dataset mine" in out
    assert "tp 6" in out


def test_data_dir_env_overrides(tmp_path, monkeypatch):
    (tmp_path / "knight.txt").write_text("2\n8\n", encoding="utf-8")
    monkeypatch.setenv("QSHELL_DATA_DIR", str(tmp_path))
    _, out = capture(RunConfig("compare", dataset_path="knight"))
    assert "tp 2 fp 23 fn 0" in out


def test_empty_data_dir_env_is_unset(tmp_path, monkeypatch):
    # QSHELL_DATA_DIR= means the bundled data, not <name>.txt in the working directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QSHELL_DATA_DIR", "")
    status, out = capture(RunConfig("compare", dataset_path="martin"))
    assert status == 0
    assert out == (GOLDEN / "cli-mix" / "compare_dataset_martin.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_local_name_does_not_shadow_bundled(tmp_path, monkeypatch, kind):
    # A bare bundled name means the bundled dataset; ./martin is the local one.
    local = tmp_path / "martin"
    if kind == "file":
        local.write_text("2\n8\n", encoding="utf-8")
    else:
        local.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QSHELL_DATA_DIR", raising=False)
    status, out = capture(RunConfig("compare", dataset_path="martin"))
    assert status == 0
    assert out.startswith("dataset martin (19 entries, slack 0)\n")
    status, out = capture(RunConfig("compare", dataset_path="./martin"))
    if kind == "file":
        assert status == 0 and "tp 2 fp 23 fn 0" in out
    else:
        assert status == 1 and out == ""


def test_errors_exit_1_and_keep_stdout_clean(capsys):
    status, out = capture(RunConfig("compare", dataset_path="nonesuch"))
    assert status == 1 and out == ""
    assert "nonesuch" in capsys.readouterr().err

    status, out = capture(RunConfig("levels", n_max=5))
    assert status == 1 and out == ""
    assert "n_max" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["magics", "--tau", "20"],
    ["magics", "--tau", "300", "--n-max", "1"],  # energy(2, 2) overflows
    ["levels", "--hbar-omega0", "1e307"],
])
def test_energy_overflow_exits_1(argv, capsys):
    status, out = capture(parse_args(argv))
    assert status == 1 and out == ""
    assert "overflow a float" in capsys.readouterr().err


def test_fit_across_cancelling_energies_exits_1(capsys):
    # Eight particles need only shells 0..2 sorted, and their column would
    # pass up to tau ~ 8.5, but the energies of shells 0..24 cancel from
    # tau = 7.6: the fit stops there, with build_scheme's error.
    status, out = capture(parse_args(["fit", "--dataset", "martin", "--grid", "6.5:8.5:0.05",
                                      "--count-limit", "8"]))
    assert status == 1 and out == ""
    assert capsys.readouterr().err == (
        "qshell: error: energies of shells 0..24 cancel at tau=7.6: their relative rounding "
        "error may reach 1.04e-06, above the tolerance 1e-06\n")


def test_malformed_dataset_exits_1(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\nbogus\n", encoding="utf-8")
    status, out = capture(RunConfig("compare", dataset_path=str(f)))
    assert status == 1 and out == ""
    assert "line 2" in capsys.readouterr().err


def test_runs_are_reproducible():
    for config in (RunConfig("magics"), RunConfig("levels", format="csv"),
                   RunConfig("export", format="json")):
        assert capture(config) == capture(config)


# ---------------------------------------------------------- process entry point

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def _process(*args):
    # A fresh interpreter on these sources; there main(None) freezes the
    # collector before the process exits.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("argv, golden", [
    (["magics"], "cli-mix/magics.out"),
    (["fit", "--dataset", "martin", "--grid", "0.02:0.06:0.00001"], "fit-fine/martin.out.gz"),
])
def test_process_output_is_the_golden(argv, golden):
    proc = _process("-m", "qshell", *argv)
    expected = (GOLDEN / golden).read_bytes()
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (gzip.decompress(expected) if golden.endswith(".gz") else expected)


@pytest.mark.parametrize("argv, status", [
    (["compare", "--dataset", "no-such-name"], 1),
    (["fit", "--dataset", "martin", "--grid", "0.02:0.06"], 2),
])
def test_process_exit_codes(argv, status):
    proc = _process("-m", "qshell", *argv)
    assert (proc.returncode, proc.stdout) == (status, b"")
    assert b"qshell: error: " in proc.stderr


def test_only_a_process_entry_point_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["magics"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()
    code = ("import gc, sys; from qshell.cli import main; status = main(); "
            "print(gc.get_freeze_count() > 0, file=sys.stderr); raise SystemExit(status)")
    proc = _process("-c", code, "magics")
    assert (proc.returncode, proc.stderr) == (0, b"True\n")
