"""The behaviour contract: command output equals the committed goldens.

perfbench/golden holds the stdout of criterion 11's commands and of the
fine-grid fit on the five experimental datasets, captured with
perfbench/capture_golden.py.
These tests run each command in process and only read those files.
"""

import gzip
import io
from pathlib import Path

import pytest

from qshell.cli import parse_args, run
from test_acceptance import CLI_RUNS

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def _stdout(argv):
    buf = io.StringIO()
    assert run(parse_args(argv), buf) == 0
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_command_matches_golden(argv):
    slug = "_".join(arg.lstrip("-") for arg in argv).replace(":", "-")
    assert _stdout(argv) == (GOLDEN / "cli-mix" / f"{slug}.out").read_bytes()


def _matches_fine_fit_golden(dataset):
    golden = gzip.decompress((GOLDEN / "fit-fine" / f"{dataset}.out.gz").read_bytes())
    return _stdout(["fit", "--dataset", dataset, "--grid", "0.02:0.06:0.00001"]) == golden


def test_fine_fit_matches_golden():
    assert _matches_fine_fit_golden("martin")


@pytest.mark.parametrize("dataset", ["bjornholm", "knight", "pedersen", "brechignac"])
def test_other_fine_fits_match_golden(dataset):
    assert _matches_fine_fit_golden(dataset)
