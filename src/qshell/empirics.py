"""Observed magic-number datasets and scoring of predictions against them.

Datasets are plain text, one entry per line in the form `value`,
`value±uncertainty`, or either wrapped in parentheses to flag a weak
entry; `#` starts a comment.  Matching is a maximum one-to-one matching
under the window |predicted - observed| <= uncertainty + slack, and the
deformation parameter is fitted by exhaustive grid search on the
resulting f1 score.  The fit checks its arguments on the first grid point
through predicted_primary_magics.  It reads the other points off a
bisection of the grid that evaluates the record-free kernel of shells at
the ends of each index range, and gives the whole range the ends' list
where bounds on the second derivatives of the level differences show
that no level order, gap threshold or cut can change inside, and else
splits it where the chord of a changing difference crosses zero (the fine
fit over 0.02:0.06:0.00001 evaluates 371 of its 4001 points).  It matches
each distinct magic list once.
"""

import math
import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import compress, islice, repeat
from operator import gt, itemgetter, ne, sub
from pathlib import Path

from .qmath import DeformationParameter
from .shells import _fit_point, build_scheme
from .spectrum import ModelParameters, _drift_bounds, _shape

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
    """Maximum one-to-one matching of predictions to observations.

    Prediction p may match observed value o when |p - o| <= uncertainty(o)
    + slack, that is when p lies in o's window.  In ascending order, each
    prediction takes the still-unmatched window that holds it and ends
    first, the smaller o on a tie.  For points matched to intervals this
    greedy gives a matching of maximum size (Glover, "Maximum matching in
    a convex bipartite graph", 1967).
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
        # A window ends at or above its value, so once the values reach the
        # end of the best window so far, no later window ends before it.
        best, best_end = None, math.inf
        for j in range(start, count):
            o = observed[j]
            if o - p > reach or o >= best_end:
                break
            if not taken[j] and abs(p - o) <= window[j] and o + window[j] < best_end:
                best, best_end = j, o + window[j]
        if best is not None:
            taken[best] = True
            pairs.append((p, observed[best]))
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

    The objective (f1 of the matching) is a step function of tau,
    so derivative-free search over an explicit grid is the right tool.
    Ties keep the smallest tau.  The trace equals evaluating every grid
    point, but _sweep evaluates only some of them (371 of the 4001 points
    of 0.02:0.06:0.00001 at the defaults).
    """
    grid = [float(t) for t in tau_grid]
    if not grid:
        raise ValueError("tau_grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError("tau_grid must be strictly ascending")
    if grid[0] <= 0:
        raise ValueError("tau_grid values must be positive")
    # The first point takes the reference path, which checks every argument
    # but tau, and is scored first, which checks slack.
    first = tuple(predicted_primary_magics(grid[0], primary_gap, count_limit, hbar_omega0, n_max))
    scores = {first: match_magics(first, ds, slack=slack, include_paren=False).f1}
    lists = _sweep(grid, primary_gap, count_limit, hbar_omega0, n_max)
    lists[0] = first
    trace = []
    for tau, predicted in zip(grid, lists):
        if predicted is None:  # the kernel could not finish: the reference path raises
            predicted = tuple(predicted_primary_magics(tau, primary_gap, count_limit,
                                                       hbar_omega0, n_max))
        if predicted not in scores:
            scores[predicted] = match_magics(predicted, ds, slack=slack, include_paren=False).f1
        trace.append((tau, scores[predicted]))
    tau_best, score_best = max(trace, key=itemgetter(1))  # the first, so the smallest tau
    return FitResult(tau_best, score_best, tuple(trace))


def _width(point, primary_gap, tables, bounds) -> float:
    """min_q (|q| - 5 eps) / B_q over the quantities q of a FitPoint, for tables (S2, C2, eps).

    q: the adjacent prefix spacings, the kept gaps minus primary_gap and the
    floor margin.  B_q: S2[max n] + C2[max l] of q's pair of levels, but the
    top entries for the margin and the spacing above the first level past the
    cut, which stands for it against any level outside the prefix.  bounds
    caches B_q by cut.
    """
    shell2, casimir2, eps = tables
    (k, prefix), steps = point.cut, point.steps
    bound = bounds.get(point.cut)
    if bound is None:
        top = shell2[-1] + casimir2[-1]
        ns, ls, _, _ = _shape(len(shell2) - 2)
        bound = bounds[point.cut] = [
            top if t == k else shell2[max(ns[a], ns[b])] + casimir2[max(ls[a], ls[b])]
            for t, (a, b) in enumerate(zip(prefix, prefix[1:]))] + [top]
    # A kept gap below primary_gap / 2 is nearer 0 than primary_gap.
    return min([(v - 5 * eps) / b for v, b in zip([*steps, point.margin], bound)]
               + [(abs(v - primary_gap) - 5 * eps) / b
                  for v, b in zip(steps[:k - 1], bound) if v > primary_gap / 2])


def _sweep(grid, primary_gap, count_limit, hbar_omega0, n_max) -> list:
    """The primary list of each grid point, or None where the kernel cannot finish.

    Bisects grid index ranges [i, j], evaluating each point once at most
    with shells._fit_point, from the shells the last point needed.  [i, j]
    takes the list at i when its ends share list and cut and h^2 / 8 (h =
    tau_j - tau_i) is below their _width for tables at a tau >= tau_j, the
    top of tau_j's rung of the grid, over which they grow about twofold: no
    quantity q changes sign inside, as it departs from its chord by at most
    B_q h^2 / 8, the ends and the point inside round by 2 eps at most each,
    and the fifth eps covers the rounding of q and the width.  Otherwise the
    range splits where the chord of a changing spacing or kept gap crosses
    zero, else at its middle: at worst every point is evaluated.
    """
    bounds_at = _drift_bounds(n_max, hbar_omega0)
    ends, rise = [-1], math.log(2) / (2 * n_max + 2)  # the last grid index of each rung
    while ends[-1] < len(grid) - 1:
        ends.append(max(bisect_right(grid, grid[ends[-1] + 1] + rise) - 1, ends[-1] + 1))
    points, shells = {}, n_max  # grid index -> FitPoint or None; the last point's shells
    rung_tables = lru_cache(None)(lambda rung: (bounds_at(grid[ends[rung]]), {}))  # and B_q by cut
    width = lru_cache(None)(lambda i, rung: _width(points[i], primary_gap, *rung_tables(rung)))

    def point(i):
        nonlocal shells
        if i not in points:
            points[i] = None
            try:
                params = ModelParameters(DeformationParameter(grid[i]), hbar_omega0, n_max)
            except ValueError:  # a non-finite tau; the reference path reports it
                return None
            points[i] = _fit_point(params, count_limit, primary_gap, shells)
            shells = points[i].highest if points[i] else shells
        return points[i]

    def split(i, j, low, high):
        roots = []
        if j - i > 2 and low and high:
            near, far = (low, high) if len(low.energies) <= len(high.energies) else (high, low)
            (k, prefix), steps, level = near.cut, near.steps, far.energies.__getitem__
            # Where, near to far, the chords of the lowest changing spacing (if the cuts
            # differ) and kept gap - primary_gap (if the lists differ) cross zero.
            for c, scanned in ((0.0, len(steps) if low.cut != high.cut else 0),
                               (primary_gap, k - 1 if low.primaries != high.primaries else 0)):
                there = map(sub, map(level, islice(prefix, 1, None)), map(level, prefix))
                flips = map(ne, map(gt, steps, repeat(c)), map(gt, there, repeat(c)))
                for t in islice(compress(range(scanned), flips), 1):
                    u, v = steps[t] - c, level(prefix[t + 1]) - level(prefix[t]) - c
                    roots.append(u / (u - v) if near is low else v / (v - u))
        r = min(roots, key=lambda r: abs(r - 0.5), default=0.5)
        return min(max(i + round(r * (j - i)), i + 1), j - 1)

    lists, stack = [None] * len(grid), [(0, len(grid) - 1)]
    while stack:
        i, j = stack.pop()
        low, high = point(i), point(j)
        if j - i > 1:
            h = grid[j] - grid[i]  # squared by a product, which overflows to inf
            rung = bisect_left(ends, j)
            if not (low and high and low[:2] == high[:2]  # the same list and cut
                    and h * h / 8 < width(i, rung) and h * h / 8 < width(j, rung)):
                middle = split(i, j, low, high)
                stack += (middle, j), (i, middle)
                continue
        lists[i:j] = repeat(low and tuple(low.primaries), j - i)
        lists[j] = high and tuple(high.primaries)
    return lists
