import csv
import io
import json
import re

import pytest

from qshell.cli import (
    MAX_COUNT_LIMIT,
    MAX_FIT_LEVELS,
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


def capture(config):
    buf = io.StringIO()
    status = run(config, buf)
    return status, buf.getvalue()


# ----------------------------------------------------------------- parsing


def test_defaults():
    config = parse_args(["magics"])
    assert config == RunConfig(command="magics")
    assert (config.tau, config.hbar_omega0, config.n_max) == (0.038, 1.0, 24)
    assert (config.primary_gap, config.secondary_gap) == (0.39, 0.30)
    assert (config.count_limit, config.slack, config.format) == (1520, 0, "text")


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
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2
    capsys.readouterr()


def test_collapsing_grid_is_a_grid_error(capsys):
    # Points 1e-11 apart coincide once _expand_grid rounds them.
    with pytest.raises(SystemExit):
        parse_args(["fit", "--dataset", "martin", "--grid", "0.02:0.020000001:1e-11"])
    assert "--grid" in capsys.readouterr().err


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
