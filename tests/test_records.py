"""The record contract: immutable, validated named tuples with stable fields."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qshell
from qshell.cli import RunConfig
from qshell.empirics import (
    DatasetValidationError,
    ExperimentalDataset,
    FitResult,
    MatchReport,
    ObservedMagic,
    predicted_primary_magics,
)
from qshell.qmath import DeformationParameter, _Record
from qshell.shells import LevelScheme, MagicGrade, MagicRecord, build_scheme
from qshell.spectrum import InvalidLevelError, Level, ModelParameters

D = DeformationParameter(0.038)
P = ModelParameters(D)
GROUND = Level(0, 0, 0.0, 2)
RECORD = MagicRecord(GROUND, 1.0, 2, MagicGrade.PRIMARY)
SCHEME = LevelScheme((GROUND,), (2,), P)
OBSERVED = ObservedMagic(58)
DATASET = ExperimentalDataset("x", (ObservedMagic(2),))

# (a valid record, a field change that must be rejected, the exception)
INVALID_CHANGES = [
    (D, {"tau": float("nan")}, ValueError),
    (D, {"tau": 0.038j}, TypeError),
    (GROUND, {"l": 1}, InvalidLevelError),
    (GROUND, {"degeneracy": 6}, ValueError),
    (P, {"n_max": 0}, ValueError),
    (P, {"hbar_omega0": 0.0}, ValueError),
    (P, {"deformation": DeformationParameter(-0.038)}, ValueError),
    (RECORD, {"gap": 0.0}, ValueError),
    (RECORD, {"count": 0}, ValueError),
    (SCHEME, {"cumulative": (3,)}, ValueError),
    (SCHEME, {"levels": ()}, ValueError),
    (OBSERVED, {"value": 1}, ValueError),
    (OBSERVED, {"uncertainty": 59}, ValueError),
    (DATASET, {"entries": ()}, DatasetValidationError),
    (P, {"n_max": 24.0}, ValueError),
    (P, {"n_max": 2.5}, ValueError),
    (GROUND, {"energy": float("nan")}, ValueError),
    (GROUND, {"energy": float("inf")}, ValueError),
    (GROUND, {"energy": 10**400}, ValueError),
    (RECORD, {"gap": float("nan")}, ValueError),
    (OBSERVED, {"value": float("nan")}, ValueError),
]

FIELDS = {
    DeformationParameter: ("tau",),
    Level: ("n", "l", "energy", "degeneracy"),
    ModelParameters: ("deformation", "hbar_omega0", "n_max"),
    MagicRecord: ("after_level", "gap", "count", "grade"),
    LevelScheme: ("levels", "cumulative", "params"),
    ObservedMagic: ("value", "uncertainty", "parenthesized"),
    ExperimentalDataset: ("source", "entries"),
    MatchReport: ("true_positives", "false_positives", "false_negatives", "matched_pairs", "f1"),
    FitResult: ("tau_best", "score_best", "grid"),
    RunConfig: ("command", "tau", "hbar_omega0", "n_max", "primary_gap", "secondary_gap",
                "count_limit", "dataset_path", "slack", "format", "tau_grid"),
}

ALL_RECORDS = [
    D, GROUND, P, RECORD, SCHEME, OBSERVED, DATASET,
    MatchReport(1, 0, 0, ((2, 2),), 1.0),
    FitResult(0.038, 1.0, ((0.038, 1.0),)),
    RunConfig("magics"),
]


@pytest.mark.parametrize("record, change, error", INVALID_CHANGES)
def test_replace_and_make_validate(record, change, error):
    with pytest.raises(error):
        record._replace(**change)
    values = [change.get(name, value) for name, value in zip(record._fields, record)]
    with pytest.raises(error):
        type(record)._make(values)
    with pytest.raises(error):
        type(record)(*values)


def test_validating_records_share_the_record_base():
    validating = {type(record) for record, _, _ in INVALID_CHANGES}
    assert len(validating) == 7
    for cls in validating:
        assert issubclass(cls, _Record) and "_make" not in vars(cls), cls


@pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
def test_fields_are_read_only(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    assert type(record)._make(record) == record
    assert record._replace() == record
    assert hash(record) == hash(type(record)(*record))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_field_names_and_order(cls):
    assert cls._fields == FIELDS[cls]


def test_repr_defaults_and_normalisation():
    assert repr(GROUND) == "Level(n=0, l=0, energy=0.0, degeneracy=2)"
    assert OBSERVED == ObservedMagic(58, 0, False)
    assert ModelParameters(D) == ModelParameters(D, 1.0, 24)
    assert RunConfig("magics") == RunConfig(
        "magics", 0.038, 1.0, 24, 0.39, 0.30, 1520, None, 0, "text", None)
    tau = DeformationParameter(1)
    assert type(tau.tau) is float
    assert DeformationParameter(tau=0.5).tau == 0.5


def test_level_messages_name_the_broken_rule():
    with pytest.raises(InvalidLevelError, match=r"\(n=2, l=1\) violates the branching rule"):
        Level(2, 1, 0.0, 6)
    with pytest.raises(ValueError, match=r"degeneracy 9 != 2\(2l\+1\) = 10"):
        Level(2, 2, 0.0, 9)


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_n_max_is_what_operator_index_accepts():
    # A float n_max would pass the range check and fail later, in range().
    for n_max in (24.0, 2.5, "24", None):
        with pytest.raises(ValueError, match=re.escape(f"an integer >= 1, got {n_max!r}")):
            ModelParameters(D, 1.0, n_max)
    with pytest.raises(ValueError, match="got 24.0"):
        predicted_primary_magics(0.04, 0.39, 1520, n_max=24.0)
    assert build_scheme(ModelParameters(D, 1.0, _Index(24))) == build_scheme(P)
    assert ModelParameters(D, 1.0, True).n_max == 1


def _loaded_by_cli_import(modules, then="None"):
    # -S keeps site hooks from importing modules on qshell's behalf.
    src = str(Path(qshell.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import qshell.cli; {then}; "
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True, timeout=60)
    return proc.stdout.strip()


def test_cli_import_loads_no_dataclasses_or_inspect():
    assert _loaded_by_cli_import(("dataclasses", "inspect")) == "[]"


def test_cli_import_loads_no_json_or_csv():
    # Only --format json and --format csv need them.
    assert _loaded_by_cli_import(("json", "csv")) == "[]"


def test_cli_import_loads_no_pathlib():
    # Datasets are read through open and os.path, bundled ones too.
    assert _loaded_by_cli_import(("pathlib",)) == "[]"
    assert _loaded_by_cli_import(("pathlib", "importlib.resources"),
                                 then="qshell.empirics.load_named_dataset('martin')") == "[]"


def test_package_names_are_its_modules_public_names():
    # qshell re-exports the __all__ of its four modules, the same objects
    # under the same names, and importing it leaves the command line out.
    src = str(Path(qshell.__file__).resolve().parent.parent)
    code = f"""import sys; sys.path.insert(0, {src!r}); import qshell
modules = (qshell.qmath, qshell.spectrum, qshell.shells, qshell.empirics)
print(sorted(n for n in dir(qshell) if not n.startswith("_")))
print(sorted(n for m in modules for n in m.__all__))
print([n for m in modules for n in m.__all__ if getattr(qshell, n) is not getattr(m, n)])
print("qshell.cli" in sys.modules)"""
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True, timeout=60)
    public, exported, copies, cli_loaded = map(ast.literal_eval, proc.stdout.splitlines())
    assert len(exported) == len(set(exported)) == 29
    assert public == sorted(exported + ["empirics", "qmath", "shells", "spectrum"])
    assert copies == [] and cli_loaded is False


def test_version_is_stated_once():
    # pyproject.toml reads the version from qshell.__version__; 3.10 has no
    # tomllib, so its tables are split by their headers.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    tables = dict(re.findall(r"(?m)^\[([^\]]+)\]\n((?:(?!\[).*\n?)*)", text))
    assert re.search(r"(?m)^dynamic = \[\"version\"\]$", tables["project"])
    assert tables["tool.setuptools.dynamic"].strip() == 'version = {attr = "qshell.__version__"}'
    assert not re.search(r"(?m)^version\s*=\s*['\"]", text)
    assert re.fullmatch(r"\d+\.\d+\.\d+", qshell.__version__)
