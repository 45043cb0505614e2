"""The behaviour contract: command output equals the committed goldens.

perfbench/golden holds the stdout of criterion 11's commands and of the
fine-grid fit on the five experimental datasets, captured with
perfbench/capture_golden.py.  tests/golden holds that of the fit on the
default grid, which no benchmark workload runs, and the help of qshell and
of each command at 80 columns.
These tests run each command in process, and again as `python -m qshell`,
and only read those files.
"""

import contextlib
import gzip
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qshell.cli import _COMMANDS, parse_args, run
from test_acceptance import CLI_RUNS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"
FINE_GRID = "0.02:0.06:0.00001"
EXPERIMENTS = ["martin", "bjornholm", "knight", "pedersen", "brechignac"]
DEFAULT_FIT = ["fit", "--dataset", "martin"]
GOLDEN_RUNS = CLI_RUNS + [["fit", "--dataset", ds, "--grid", FINE_GRID] for ds in EXPERIMENTS]
GOLDEN_RUNS += [DEFAULT_FIT]


def _golden(argv):
    if argv == DEFAULT_FIT:
        return (ROOT / "tests" / "golden" / "fit_dataset_martin.out").read_bytes()
    if argv[-1] == FINE_GRID:
        return gzip.decompress((GOLDEN / "fit-fine" / f"{argv[2]}.out.gz").read_bytes())
    slug = "_".join(arg.lstrip("-") for arg in argv).replace(":", "-")
    return (GOLDEN / "cli-mix" / f"{slug}.out").read_bytes()


def _stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(parse_args(argv)) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_command_matches_golden(argv):
    assert _stdout(argv) == _golden(argv)


def _matches_fine_fit_golden(dataset):
    argv = ["fit", "--dataset", dataset, "--grid", FINE_GRID]
    return _stdout(argv) == _golden(argv)


def test_fine_fit_matches_golden():
    assert _matches_fine_fit_golden("martin")


@pytest.mark.parametrize("dataset", EXPERIMENTS[1:])
def test_other_fine_fits_match_golden(dataset):
    assert _matches_fine_fit_golden(dataset)


def test_default_grid_fit_matches_golden():
    # 0.02:0.06:0.002, 21 points that each hold another state than the one before.
    assert _stdout(DEFAULT_FIT) == _golden(DEFAULT_FIT)


def _process(argv):
    # The environment is the benchmark's: ./src on PYTHONPATH, no other
    # PYTHON* setting, and the bundled datasets.  Help is 80 columns wide.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "QSHELL_DATA_DIR"}
    env.update(PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "qshell", *argv], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("argv", GOLDEN_RUNS, ids=" ".join)
def test_process_entry_point_matches_golden(argv):
    # Only a process reaches main's exit path, which freezes the collector.
    proc = _process(argv)
    assert (proc.returncode, proc.stdout) == (0, _golden(argv))


HELP_RUNS = [["-h"], *([command, "-h"] for command in _COMMANDS)]


def _help_golden(argv):
    text = (ROOT / "tests" / "golden" / f"{'_'.join(['help', *argv[:-1]])}.out").read_text()
    if sys.version_info >= (3, 13):  # argparse names an option's value once, after all its flags
        text = re.sub(r"(--\S+) (\S+), (--\S+) \2\n", r"\1, \3 \2\n", text)
    return text.encode()


@pytest.mark.parametrize("argv", HELP_RUNS, ids=" ".join)
def test_help_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out.encode(), err) == (0, _help_golden(argv), "")
    proc = _process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, _help_golden(argv), b"")
