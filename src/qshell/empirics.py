"""Observed magic-number datasets and scoring of predictions against them.

Datasets are plain text, one entry per line in the form `value`,
`value±uncertainty`, or either wrapped in parentheses to flag a weak
entry; `#` starts a comment.  Matching is a maximum one-to-one matching
under the window |predicted - observed| <= uncertainty + slack, and the
deformation parameter is fitted by exhaustive grid search on the
resulting f1 score.  The fit checks its arguments on the first grid point
through predicted_primary_magics, and reads the other points off an
event sweep.  Its record-free kernel, _fit_point, cuts or raises through
shells' _complete_cut, as build_scheme does, and the sweep carries the
kernel's state along the grid on signs of level differences that
_certified certifies from _drift_bounds' bounds on their curvature and
rounding.  It matches each run of one magic list once.
"""

import math
import operator
import os
import re
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from heapq import heappop, heappush
from itertools import accumulate, compress, groupby, repeat
from operator import itemgetter

from .qmath import DeformationParameter, _Record
from .shells import _complete_cut, build_scheme
from .spectrum import (DEFAULT_HBAR_OMEGA0, DEFAULT_N_MAX, ModelParameters, _energies_up_to,
                       _level_energy, _shape, _term_error, allowed_l)

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


class ObservedMagic(_Record, namedtuple("ObservedMagic", "value uncertainty parenthesized")):
    """One observed magic number, its ± window, and whether it is tentative."""

    __slots__ = ()

    def __new__(cls, value: int, uncertainty: int = 0, parenthesized: bool = False):
        if not value >= 2:  # nan too
            raise ValueError(f"magic number must be >= 2, got {value!r}")
        if not 0 <= uncertainty <= value:
            raise ValueError(f"uncertainty must be in [0, value], got ±{uncertainty!r}")
        return tuple.__new__(cls, (value, uncertainty, parenthesized))


class ExperimentalDataset(_Record, namedtuple("ExperimentalDataset", "source entries")):
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


def load_named_dataset(spec: str, data_dir: str | None = None) -> ExperimentalDataset:
    """Load a dataset by bundled name or by explicit file path.

    A bare name (no path separator, no .txt suffix) is resolved as
    data_dir/<name>.txt for a non-empty data_dir, else among the bundled
    datasets, so a local file or directory of the same name never shadows
    it; write ./martin to read a local file.  A bare name that is not
    bundled falls back to a local file of that name.  Anything else is a
    file path.
    """
    path = spec
    if not ("/" in spec or "\\" in spec or spec.endswith(".txt")):  # a bare name
        if data_dir:
            path = os.path.join(data_dir, f"{spec}.txt")
        elif spec in BUNDLED_DATASETS:  # installed beside this module
            path = os.path.join(os.path.dirname(__file__), "data", f"{spec}.txt")
        elif not os.path.isfile(spec):
            known = ", ".join(BUNDLED_DATASETS)
            raise FileNotFoundError(f"unknown dataset {spec!r}; bundled datasets: {known}")
    root = re.match("/*", path).group()  # spelled as pathlib spells it, as errors quote it:
    parts = [part for part in path.split("/") if part not in ("", ".")]  # no empty or "." parts
    path = (root if len(root) == 2 else root[:1]) + "/".join(parts) or "."
    with open(path, encoding="utf-8-sig") as file:  # the source is pathlib's stem of the name
        return load_dataset(file.read(), source=re.sub(r"(?s)(?<=.)\.[^.]+\Z", "", parts[-1]))


def match_magics(
    predicted: list[int],
    ds: ExperimentalDataset,
    slack: int = 0,
    include_paren: bool = False,
) -> MatchReport:
    """Maximum one-to-one matching of predictions to observations.

    Prediction p may match observed value o when |p - o| <= uncertainty(o)
    + slack, that is when p lies in o's window; slack may be math.inf.  In
    ascending order, each prediction takes the still-unmatched window that
    holds it and ends first, the smaller o on a tie: the windows that have
    started by p wait in a heap keyed by (o + uncertainty, o), which orders
    their ends at any slack, and those that ended below p leave it.  For
    points matched to intervals this greedy gives a matching of maximum
    size (Glover, "Maximum matching in a convex bipartite graph", 1967).
    """
    if not slack >= 0:
        raise ValueError(f"slack must be >= 0, got {slack!r}")
    for a, b in zip(predicted, predicted[1:]):
        if b <= a:
            raise ValueError("predicted values must be strictly increasing")
    entries = [e for e in ds.entries if include_paren or not e.parenthesized]
    windows = sorted((e.value - e.uncertainty - slack, e.value + e.uncertainty, e.value)
                     for e in entries)
    heap, pairs, j = [], [], 0
    for p in predicted:
        while j < len(windows) and windows[j][0] <= p:
            heappush(heap, windows[j][1:])
            j += 1
        while heap and heap[0][0] + slack < p:
            heappop(heap)
        if heap:
            pairs.append((p, heappop(heap)[1]))
    tp = len(pairs)
    fp = len(predicted) - tp
    fn = len(entries) - tp
    f1 = 1.0 if tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)
    return MatchReport(tp, fp, fn, tuple(pairs), f1)


def predicted_primary_magics(
    tau: float,
    primary_gap: float,
    count_limit: int,
    hbar_omega0: float = DEFAULT_HBAR_OMEGA0,
    n_max: int = DEFAULT_N_MAX,
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
    if primary_gap < 0:  # the fit's sweep holds kept gaps positive only from 0 up
        raise ValueError(f"primary_gap must be >= 0, got {primary_gap!r}")
    energies = [lev[2] for lev in levels]
    return [count for low, high, count in zip(energies, energies[1:], cumulative)
            if high - low > primary_gap]


def fit_tau(
    ds: ExperimentalDataset,
    tau_grid: list[float],
    primary_gap: float,
    count_limit: int,
    slack: int = 0,
    hbar_omega0: float = DEFAULT_HBAR_OMEGA0,
    n_max: int = DEFAULT_N_MAX,
) -> FitResult:
    """Exhaustive grid search for the tau whose primary magics best match ds.

    The objective (f1 of the matching) is a step function of tau,
    so derivative-free search over an explicit grid is the right tool.
    Ties keep the smallest tau.  The trace equals evaluating every grid
    point, but _sweep runs the kernel at few of them.
    """
    grid = [float(t) for t in tau_grid]
    if not grid:
        raise ValueError("tau_grid must be nonempty")
    for a, b in zip(grid, grid[1:]):
        if b <= a:
            raise ValueError("tau_grid must be strictly ascending")
    if grid[0] <= 0:
        raise ValueError("tau_grid values must be positive")
    # The reference path at the first point checks every argument but tau and slack.
    predicted_primary_magics(grid[0], primary_gap, count_limit, hbar_omega0, n_max)
    states = _sweep(grid, primary_gap, count_limit, hbar_omega0, n_max)
    trace = []
    for predicted, run in groupby(map(itemgetter(0), states)):  # scored once a run
        f1 = match_magics(predicted, ds, slack=slack, include_paren=False).f1
        start = len(trace)
        trace += zip(grid[start:start + len(list(run))], repeat(f1))
    tau_best, score_best = max(trace, key=itemgetter(1))  # the first, so the smallest tau
    return FitResult(tau_best, score_best, tuple(trace))


def _fit_point(p: ModelParameters, count_limit: int, primary_gap: float):
    """predicted_primary_magics' list at p, and what carries it to nearby taus.

    The list is read off the energy column of shells 0..n_max and its floor,
    cut by _complete_cut, which raises as build_scheme does where the column
    is refused or its cut incomplete.  Returns ((primaries, (k, prefix)),
    tied): the sweep's state, with k the kept count and prefix the table
    indices of the kept levels and the one above them in _cut's order, ties
    included, and whether two of those tie.  Checks no argument.
    """
    energies, order, totals = _complete_cut(p, count_limit)
    k = len(totals)
    prefix = tuple(order[:k + 1])
    ordered = list(map(energies.__getitem__, prefix))
    primaries = tuple(count for low, high, count in zip(ordered, ordered[1:k], totals)
                      if high - low > primary_gap)
    return (primaries, (k, prefix)), len(set(ordered)) < len(ordered)


def _drift_bounds(n_max: int, hbar_omega0: float, tau_hi: float) -> tuple[list[float], ...]:
    """(S2, C2, S_err, C_err) for the levels of shells 0..n_max + 1.

    Over 0 <= tau <= tau_hi, |S2[n] - S2[n']| + |C2[l] - C2[l']| bounds the
    second derivative of E(n, l) - E(n', l'), and S_err[n] + C_err[l] the
    rounding of the energy _energies_up_to gives (n, l), the floor's too:
    _term_error at tau_hi times hbar_omega0 (S_n + C_l), where E = hbar_omega0
    (S_n - C_l), S_n = [n] q^(n+1) = sum_{m=1..n} e^(2 m tau), C_l = f P_l,
    f = q tanh(tau) and P_l = [l][l+1] = sum_{i=1..l} 2 (l - i + 1) cosh((2i - 1) tau).
    For tau >= 0, S'' = sum 4 m^2 e^(2 m tau), and the differences of P, P'
    and P'' to a lower l's are positive sums of cosh and sinh terms, all
    rising with tau; with t = tanh(tau), f' = e^tau (1 + t - t^2) <= 1.25 e^tau
    and f'' = e^tau (2 - t - 2t^2 + 2t^3) is in [0, 2 e^tau], so C'' of l less
    C'' of a lower l is at most 2 e^tau dP + 2.5 e^tau dP' + f dP''.  1 + 1e-9
    covers the rounding of the sums, 2^-40 times two entries that of their
    difference (_certified adds it).  Overflow gives inf.
    """
    top = n_max + 1
    odd = [2 * i - 1 for i in range(1, top + 1)]
    s2 = [4 * m * m for m in range(1, top + 1)]
    try:
        powers = list(accumulate(repeat(math.exp(2 * tau_hi), top), operator.mul))
        cosh = [math.cosh(k * tau_hi) for k in odd]
        sinh = [math.sinh(k * tau_hi) for k in odd]
    except OverflowError:
        return ([math.inf] * (top + 1),) * 4
    y = math.exp(tau_hi)
    f = y * math.tanh(tau_hi)
    scale = hbar_omega0 * (1 + 1e-9)
    error = scale * _term_error(tau_hi, n_max)
    # Term i of 2 y P_l + 2.5 y P_l' + f P_l'', before the weight l - i + 1.
    terms = [2 * c * (2 * y + f * k * k) + 5 * y * k * s for k, c, s in zip(odd, cosh, sinh)]
    return ([scale * s for s in accumulate(map(operator.mul, s2, powers), initial=0.0)],
            [scale * c for c in accumulate(accumulate(terms), initial=0.0)],
            [error * s for s in accumulate(powers, initial=0.0)],
            [error * f * p for p in accumulate(accumulate(2 * c for c in cosh), initial=0.0)])


def _reach(h, q_a, q_s, bound, rounding) -> float:
    """How far past tau_s a quantity q keeps the sign of q_s, its computed value there.

    q_a is q's computed value at tau_s - h, both within rounding of exact, and
    |q''| <= bound.  At tau_s + d, q is within bound (d + h) d / 2 of the line
    through its exact values, itself within rounding (1 + 2 d / h) of the line
    L through q_a and q_s: so q and its computed value keep their sign while
    |L| - rounding (1 + 2 d / h) - bound (d + h) d / 2 > rounding.  A few ulps
    of |q_a| + |q_s| and of d cover the rounding of this test; the 2^-600 floor
    keeps |q_s| and every step below out of the subnormal range, where an ulp
    is no longer relative (q_s = 2.2e-309 with bound 1.1e8 gave a d past the
    sign's reach).
    """
    rounding += 2.0 ** -50 * (abs(q_a) + abs(q_s)) + 2.0 ** -600
    c0 = abs(q_s) - 2 * rounding
    if not c0 > 0:
        return 0.0
    c1 = ((q_s - q_a) if q_s > 0 else (q_a - q_s)) / h - 2 * rounding / h - bound * h / 2
    root = math.sqrt(c1 * c1 + 2 * bound * c0)
    d = (c1 + root) / bound if c1 >= 0 else 2 * c0 / (root - c1)
    return d * (1 - 2.0 ** -40) if 0 < d and math.isfinite(root) else 0.0


def _stretches(tau0, tau_last, n_max, hbar_omega0):
    """stretches(tau): (top, tables) of each stretch from tau's to tau_last's.  Stretch r, over
    which the bounds about double, ends at tau0 + r ln 2 / (2 n_max + 2): _drift_bounds' there."""
    rise = math.log(2) / (2 * n_max + 2)
    stretch = lru_cache(None)(
        lambda r: (tau0 + r * rise, _drift_bounds(n_max, hbar_omega0, tau0 + r * rise)))
    def holding(tau):  # the quotient may round down to a stretch whose top is not above tau
        r = int((tau - tau0) / rise) + 1
        return r + (tau0 + r * rise <= tau)
    return lambda tau: map(stretch, range(holding(tau), holding(tau_last) + 1))


def _certified(stretches, pair, thresholds, tau_a, v_a, tau_s, v_s) -> float:
    """The end of [tau_s, end) over which E_b - E_a, pair ((n_a, l_a), (n_b, l_b)), keeps its
    side of each threshold, from its values at tau_a and tau_s: a reach past tau_s, or a top."""
    ((na, la), (nb, lb)), end = pair, tau_s
    for top, (shell2, casimir2, shell_error, casimir_error) in stretches(tau_s):
        bound = (abs(shell2[na] - shell2[nb]) + abs(casimir2[la] - casimir2[lb])
                 + 2.0 ** -40 * (shell2[na] + shell2[nb] + casimir2[la] + casimir2[lb]))
        rounding = shell_error[na] + casimir_error[la] + shell_error[nb] + casimir_error[lb]
        d = min([_reach(tau_s - tau_a, v_a - c, v_s - c, bound, rounding) for c in thresholds])
        if tau_s + d <= top:  # each float below fl(tau_s + d) lies within d of tau_s
            return max(end, tau_s + d)
        end = top
    return end


def _sweep(grid, primary_gap, count_limit, hbar_omega0, n_max) -> list:
    """_fit_point's (primaries, cut) at each grid point, or its error at the first it cannot finish.

    A forward event sweep.  A state (the kept levels in energy order with the
    one above them, the prefix) holds while these level differences keep
    their sides: the prefix spacings, the kept gaps against primary_gap, the
    floor E(n_max + 1, n_max + 1) minus the top kept level, and each shell's
    lowest outside level minus the prefix top, up to the first shell with
    none in the prefix (E less its rounding bound rises as l falls, E(n, n)
    by (n + 1) / n per shell).  A station, the first point at or past a
    certificate's end, evaluates the expired ones alone.  A kept gap crossing
    primary_gap, or a swap of two kept levels whose new neighbours are in
    strict order, is repaired in place; any other change goes to _fit_point,
    an exact tie included.  The kernel runs where a carry breaks and goes on
    while a point is the first (a carry needs the one before), holds a tie, or
    follows a kernel point of another state (on a coarse grid, no carry pays).
    A certificate depends on its pair and thresholds alone, so the next
    carried state keeps each that reaches it on a pair of the same kind, as
    kinetic data structures do (Basch, Guibas and Hershberger, SODA 1997).
    """
    levels, floor = list(zip(*_shape(n_max)[:2])), (n_max + 1, n_max + 1)  # by index
    hbar_omega0 = float(hbar_omega0)  # as ModelParameters stores it, for the stations' energies
    index = {level: x for x, level in enumerate(levels)}

    def params(i):
        return ModelParameters(DeformationParameter(grid[i]), hbar_omega0, n_max)

    def refused(i):
        try:
            return not _energies_up_to(params(i), n_max)  # it holds the floor, so never empty
        except ValueError:
            return True

    # Carries end at the first non-finite or refused point; refusal rises with tau.
    stop = [*map(math.isfinite, grid), False].index(False)
    stop = bisect_left(range(stop), True, key=refused) if refused(stop - 1) else stop
    stretches = _stretches(grid[0], grid[stop - 1], n_max, hbar_omega0)
    states = [None] * len(grid)
    live, heap = {}, []  # pair -> [tau, value, end of its certificate (-inf expired), kind]

    def carry(s):  # from states[s], the kernel's, to the first station the kernel takes, or stop
        nonlocal live, heap
        state = states[s]
        k, order = state[1][0], [levels[x] for x in state[1][1]]

        def adjacent(lo, hi):  # pair -> kind: True a kept gap, else False (an outsider: None)
            pairs = {(order[j], order[j + 1]): j < k - 1
                     for j in range(max(lo, 0), min(hi, len(order) - 1))}
            pairs[order[k - 1], floor] = False
            return pairs

        # A kept gap: its side of primary_gap, and of 0 only below it (> 0 as primary_gap >= 0).
        def certify(pair, kind, tau_a, v_a, tau_s, v_s):
            thresholds = (0.0, primary_gap)[kind and v_s > primary_gap:1 + bool(kind)]
            end = _certified(stretches, pair, thresholds, tau_a, v_a, tau_s, v_s)
            live[pair] = [tau_s, v_s, end, kind]
            heappush(heap, (end, pair))

        def start(s, pairs, now):  # pairs new at s: values at s - 1, and at s from now, s's table
            then = _level_energy(grid[s - 1], hbar_omega0)
            for (a, b), kind in pairs.items():
                certify((a, b), kind, grid[s - 1], then(*b) - then(*a), grid[s], now(*b) - now(*a))

        def margin(x):  # an outsider's: the lower levels of x's shell lie above E_x less this
            _, _, shell_error, casimir_error = next(stretches(grid[s]))[1]
            return 2 * (shell_error[x[0]] + casimir_error[x[1]])

        pairs, inside = adjacent(0, k + 1), set(order)
        for n in range(n_max + 1 if len(order) > k else 0):
            outside = [(n, l) for l in allowed_l(n) if (n, l) not in inside][:1]
            pairs.update(((order[k], x), None) for x in outside)
            if outside == [(n, n)]:
                break
        live = {p: rec for p, rec in live.items() if pairs.get(p, 0) is rec[3] and rec[2] > grid[s]}
        heap = sorted((rec[2], p) for p, rec in live.items())  # a sorted list is a heap
        start(s, {pair: kind for pair, kind in pairs.items() if pair not in live},
              _level_energy(grid[s], hbar_omega0))
        while (s := bisect_left(grid, heap[0][0], s + 1, stop)) < stop:
            energy, expired, bad, changed = _level_energy(grid[s], hbar_omega0), [], [], False
            while heap and heap[0][0] <= grid[s]:
                end, pair = heappop(heap)
                rec = live.get(pair)
                if rec and rec[2] == end:  # live, and not popped yet at this station
                    rec[2], v = -math.inf, energy(*pair[1]) - energy(*pair[0])
                    expired.append((pair, rec, v))
                    if not 0 < v or rec[3] is None and v <= margin(pair[1]):
                        bad.append(pair)
                    changed = changed or rec[3] and (v > primary_gap) != (rec[1] > primary_gap)
            if bad:
                (a, b), t = bad[0], order.index(bad[0][0])  # a precedes b in the prefix
                if not (len(bad) == 1 and t + 1 < k):
                    break
                old, order[t], order[t + 1], changed = adjacent(t - 1, t + 2), b, a, True  # swap
                pairs = adjacent(t - 1, t + 2)
                for pair in old.keys() - pairs.keys():
                    del live[pair]
                new = {(x, y): kind for (x, y), kind in pairs.items() if (x, y) not in live}
                if not all(energy(*y) > energy(*x) for x, y in new):
                    break
                start(s, new, energy)
            for pair, rec, v in expired:
                if pair in live:
                    certify(pair, rec[3], rec[0], rec[1], grid[s], v)
            if changed:  # a state is written where it starts; a list that holds keeps its tuple
                cut = tuple(map(index.__getitem__, order))
                totals = accumulate(map(_shape(n_max)[2].__getitem__, cut))
                above = (live[pair][1] > primary_gap for pair in zip(order, order[1:k]))
                primaries = tuple(compress(totals, above))
                states[s] = state = (state[0] if primaries == state[0] else primaries, (k, cut))
        return s

    i = last = 0  # last: the kernel's point before i
    while i < len(grid):
        states[i], tied = _fit_point(params(i), count_limit, primary_gap)
        go = i and not tied and (last < i - 1 or states[i - 1] == states[i])
        last, i = i, carry(i) if go else i + 1
    return [held := new or held for new in states]  # a carried point holds the one before
