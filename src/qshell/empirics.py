"""Observed magic-number datasets and scoring of predictions against them.

Datasets are plain text, one entry per line in the form `value`,
`value±uncertainty`, or either wrapped in parentheses to flag a weak
entry; `#` starts a comment.  Matching is greedy one-to-one in ascending
order under the window |predicted - observed| <= uncertainty + slack, and
the deformation parameter is fitted by exhaustive grid search on the
resulting f1 score.
"""

import math
import re
from collections import namedtuple
from pathlib import Path

from .qmath import DeformationParameter
from .shells import build_scheme
from .spectrum import ModelParameters

__all__ = [
    "ObservedMagic",
    "ExperimentalDataset",
    "MatchReport",
    "FitResult",
    "DatasetParseError",
    "DatasetValidationError",
    "bundled_dataset_names",
    "load_dataset",
    "load_named_dataset",
    "match_magics",
    "predicted_primary_magics",
    "fit_tau",
]

BUNDLED_DATASETS = (
    "martin",
    "bjornholm",
    "knight",
    "pedersen",
    "brechignac",
    "jellium-martin",
    "jellium-bjornholm",
    "jellium-brack",
    "jellium-bulgac",
    "woods-saxon",
    "three-n-plus-l",
)

_ENTRY_RE = re.compile(r"(\d+)(?:±(\d+))?")


class DatasetParseError(ValueError):
    """A dataset line that does not match `value[±uncertainty]` or `(...)`."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class DatasetValidationError(ValueError):
    """Structurally valid lines forming an invalid dataset."""


class ObservedMagic(namedtuple("ObservedMagic", "value uncertainty parenthesized")):
    """One observed magic number, its ± window, and whether it is tentative."""

    __slots__ = ()

    def __new__(cls, value: int, uncertainty: int = 0, parenthesized: bool = False):
        if value < 2:
            raise ValueError(f"magic number must be >= 2, got {value!r}")
        if not 0 <= uncertainty <= value:
            raise ValueError(f"uncertainty must be in [0, value], got ±{uncertainty!r}")
        return tuple.__new__(cls, (value, uncertainty, parenthesized))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ExperimentalDataset(namedtuple("ExperimentalDataset", "source entries")):
    """Observed magic numbers from one source, strictly increasing in value."""

    __slots__ = ()

    def __new__(cls, source: str, entries: tuple[ObservedMagic, ...]):
        if not entries:
            raise DatasetValidationError(f"dataset {source!r} has no entries")
        for a, b in zip(entries, entries[1:]):
            if b.value <= a.value:
                raise DatasetValidationError(
                    f"dataset {source!r}: values must be strictly increasing, "
                    f"got {a.value} then {b.value}"
                )
        return tuple.__new__(cls, (source, entries))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def values(self, include_paren: bool = True) -> list[int]:
        return [e.value for e in self.entries if include_paren or not e.parenthesized]


class MatchReport(namedtuple("MatchReport", "true_positives false_positives false_negatives "
                                            "matched_pairs f1")):
    """Counts of a matching, its (predicted, observed) pairs, and the f1 score."""

    __slots__ = ()


class FitResult(namedtuple("FitResult", "tau_best score_best grid")):
    """The best tau, its score, and (tau, score) at every grid point."""

    __slots__ = ()


def load_dataset(source_text: str, source: str = "custom") -> ExperimentalDataset:
    """Parse dataset file content into an ExperimentalDataset.

    Entries may appear in any order; they are sorted by value before the
    strictly-increasing invariant is enforced, so duplicates are the only
    ordering defect that can survive to a validation error.
    """
    entries = []
    for number, raw in enumerate(source_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        paren = line.startswith("(") and line.endswith(")")
        body = line[1:-1].strip() if paren else line
        match = _ENTRY_RE.fullmatch(body)
        if match is None:
            raise DatasetParseError(
                number, f"expected value[±uncertainty], optionally in (), got {raw.strip()!r}"
            )
        value = int(match.group(1))
        uncertainty = int(match.group(2)) if match.group(2) else 0
        try:
            entries.append(ObservedMagic(value, uncertainty, paren))
        except ValueError as exc:
            raise DatasetValidationError(f"line {number}: {exc}") from exc
    entries.sort(key=lambda e: e.value)
    return ExperimentalDataset(source, tuple(entries))


def bundled_dataset_names() -> tuple[str, ...]:
    return BUNDLED_DATASETS


def _is_bare_name(spec: str) -> bool:
    return not ("/" in spec or "\\" in spec or spec.endswith(".txt"))


def load_named_dataset(spec: str, data_dir: str | None = None) -> ExperimentalDataset:
    """Load a dataset by bundled name or by explicit file path.

    A bare name (no path separator, no .txt suffix) is resolved as
    data_dir/<name>.txt when data_dir is given, else among the bundled
    datasets, so a local file or directory of the same name never shadows
    it; write ./martin to read a local file.  A bare name that is not
    bundled falls back to a local file of that name.  Anything else is a
    file path.
    """
    if _is_bare_name(spec):
        if data_dir is not None:
            path = Path(data_dir) / f"{spec}.txt"
            return load_dataset(path.read_text(encoding="utf-8"), source=spec)
        if spec in BUNDLED_DATASETS:
            from importlib import resources  # only bundled lookups need it

            text = (resources.files("qshell") / "data" / f"{spec}.txt").read_text(
                encoding="utf-8"
            )
            return load_dataset(text, source=spec)
        if not Path(spec).is_file():
            known = ", ".join(BUNDLED_DATASETS)
            raise FileNotFoundError(f"unknown dataset {spec!r}; bundled datasets: {known}")
    path = Path(spec)
    return load_dataset(path.read_text(encoding="utf-8"), source=path.stem)


def match_magics(
    predicted: list[int],
    ds: ExperimentalDataset,
    slack: int = 0,
    include_paren: bool = False,
) -> MatchReport:
    """Greedy ascending one-to-one matching of predictions to observations.

    Each prediction takes the smallest still-unmatched observed value o
    with |p - o| <= uncertainty(o) + slack.  For sparse monotone magic
    sequences this equals the optimal assignment.
    """
    if slack < 0:
        raise ValueError(f"slack must be >= 0, got {slack!r}")
    for a, b in zip(predicted, predicted[1:]):
        if b <= a:
            raise ValueError("predicted values must be strictly increasing")
    entries = [e for e in ds.entries if include_paren or not e.parenthesized]
    observed = [e.value for e in entries]
    window = [e.uncertainty + slack for e in entries]
    # No entry further than reach from p can match it.  Observed values and
    # predictions both increase, so an entry below p - reach, or a taken
    # one, is out of reach of every later prediction: the scan start only
    # moves forward.  The scan for p stops above p + reach.
    reach = max(window, default=slack)
    count = len(observed)
    taken = [False] * count
    pairs = []
    start = 0
    for p in predicted:
        while start < count and (taken[start] or observed[start] + reach < p):
            start += 1
        for j in range(start, count):
            o = observed[j]
            if o - p > reach:
                break
            if not taken[j] and abs(p - o) <= window[j]:
                taken[j] = True
                pairs.append((p, o))
                break
    tp = len(pairs)
    fp = len(predicted) - tp
    fn = len(observed) - tp
    f1 = 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
    return MatchReport(tp, fp, fn, tuple(pairs), f1)


def predicted_primary_magics(
    tau: float,
    primary_gap: float,
    count_limit: int,
    hbar_omega0: float = 1.0,
    n_max: int = 24,
) -> list[int]:
    """Primary magic numbers of the model at deformation tau.

    These are the counts of detect_shells' primary records, read straight
    off the scheme: the cumulative count at level i closes a shell when
    energy[i+1] - energy[i] > primary_gap.
    """
    params = ModelParameters(DeformationParameter(tau), hbar_omega0, n_max)
    levels, cumulative, _ = build_scheme(params, count_limit)
    if not math.isfinite(primary_gap):
        raise ValueError("gap thresholds must be finite")
    energies = [lev[2] for lev in levels]
    return [count for low, high, count in zip(energies, energies[1:], cumulative)
            if high - low > primary_gap]


def fit_tau(
    ds: ExperimentalDataset,
    tau_grid: list[float],
    primary_gap: float,
    count_limit: int,
    slack: int = 0,
    hbar_omega0: float = 1.0,
    n_max: int = 24,
) -> FitResult:
    """Exhaustive grid search for the tau whose primary magics best match ds.

    The objective (f1 of the greedy matching) is a step function of tau,
    so derivative-free search over an explicit grid is the right tool.
    Ties keep the smallest tau.
    """
    grid = [float(t) for t in tau_grid]
    if not grid:
        raise ValueError("tau_grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError("tau_grid must be strictly ascending")
    if grid[0] <= 0:
        raise ValueError("tau_grid values must be positive")
    trace = []
    tau_best = grid[0]
    score_best = -1.0
    for tau in grid:
        predicted = predicted_primary_magics(tau, primary_gap, count_limit, hbar_omega0, n_max)
        score = match_magics(predicted, ds, slack=slack, include_paren=False).f1
        trace.append((tau, score))
        if score > score_best:
            tau_best, score_best = tau, score
    return FitResult(tau_best, score_best, tuple(trace))
