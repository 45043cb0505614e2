"""The behaviour contract: command output equals the committed goldens.

perfbench/golden holds the stdout of criterion 11's commands and of the
fine-grid fit on the five experimental datasets, captured with
perfbench/capture_golden.py.
These tests run each command in process, and again as `python -m qshell`,
and only read those files.
"""

import gzip
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qshell.cli import parse_args, run
from test_acceptance import CLI_RUNS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "perfbench" / "golden"
FINE_GRID = "0.02:0.06:0.00001"
EXPERIMENTS = ["martin", "bjornholm", "knight", "pedersen", "brechignac"]
GOLDEN_RUNS = CLI_RUNS + [["fit", "--dataset", ds, "--grid", FINE_GRID] for ds in EXPERIMENTS]


def _golden(argv):
    if argv[-1] == FINE_GRID:
        return gzip.decompress((GOLDEN / "fit-fine" / f"{argv[2]}.out.gz").read_bytes())
    slug = "_".join(arg.lstrip("-") for arg in argv).replace(":", "-")
    return (GOLDEN / "cli-mix" / f"{slug}.out").read_bytes()


def _stdout(argv):
    buf = io.StringIO()
    assert run(parse_args(argv), buf) == 0
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


@pytest.mark.parametrize("argv", GOLDEN_RUNS, ids=" ".join)
def test_process_entry_point_matches_golden(argv):
    # Only a process reaches main's exit path, which freezes the collector.
    # The environment is the benchmark's: ./src on PYTHONPATH, no other
    # PYTHON* setting, and the bundled datasets.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "QSHELL_DATA_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-m", "qshell", *argv], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, _golden(argv))
