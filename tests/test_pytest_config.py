"""The suite's pytest configuration: warnings are errors, and a failing
property is still reported as a failure, with the tests after it run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_passes():
    pass


def test_warns():
    warnings.warn("any other deprecation", DeprecationWarning)
'''


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # Hypothesis's failure report imports mypy_extensions' TypedDict where
    # that package is installed, which warns DeprecationWarning; as an error
    # it aborted the session with an INTERNALERROR at the first failing
    # property.  Every other warning still fails its test.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    failed = sorted(line.split(" - ")[0] for line in proc.stdout.splitlines()
                    if line.startswith("FAILED "))
    assert failed == ["FAILED test_probe.py::test_property_fails",
                      "FAILED test_probe.py::test_warns"]
    assert "2 failed, 1 passed" in proc.stdout
