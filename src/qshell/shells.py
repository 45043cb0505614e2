"""Energy-ordered level schemes, shell gaps and magic numbers.

Levels are sorted by energy, occupancies are accumulated, and a gap
between adjacent levels larger than the primary threshold closes a shell:
the cumulative count at the closing level is a magic number.  Gaps in the
secondary band are reported as weaker closures.

The sort has one key, the energy, and is stable, so the table order it
reads decides ties; tau picks it.  For tau > 0 and l < l', E(n, l) -
E(n, l') = hbar_omega0 q tanh(tau) ([l'][l'+1] - [l][l+1]) > 0: the
table's (n, descending l) order is a shell's exact order.  At tau = 0
every level of shell n is n hbar_omega0: the reversed table gives (n, l).

_cut is the one place that sorts, cuts at the count limit and judges a
scheme complete; _complete_cut, behind build_scheme and the fit's kernel,
returns a complete cut or raises with the n_max to use.  The kept energies
are sorted and the running sum gives the totals, so build_scheme and
detect_shells skip the checks LevelScheme and MagicRecord run on a caller's
records.  _level_rows gives each level's gap and grade to every listing.
"""

import math
from collections import namedtuple
from enum import Enum
from functools import partial
from itertools import accumulate, takewhile
from operator import ge

from .qmath import _Record
from .spectrum import Level, ModelParameters, _energies_up_to, _shape, enumerate_levels

__all__ = [
    "MagicGrade",
    "MagicRecord",
    "LevelScheme",
    "InsufficientNMaxError",
    "build_scheme",
    "detect_shells",
    "render_table",
]

DEFAULT_PRIMARY_GAP = 0.39
DEFAULT_SECONDARY_GAP = 0.30
DEFAULT_COUNT_LIMIT = 1520


class InsufficientNMaxError(RuntimeError):
    """The enumeration bound n_max cannot guarantee a complete scheme."""


class MagicGrade(Enum):
    PRIMARY = "primary"
    SECONDARY = "secondary"


class MagicRecord(_Record, namedtuple("MagicRecord", "after_level gap count grade")):
    """A shell closure after a level: its gap, cumulative count and grade."""

    __slots__ = ()

    def __new__(cls, after_level: Level, gap: float, count: int, grade: MagicGrade):
        if not gap > 0:  # nan too
            raise ValueError(f"gap must be positive, got {gap!r}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count!r}")
        if not isinstance(grade, MagicGrade):  # render_table would drop a string's mark
            raise TypeError(f"grade must be a MagicGrade, got {grade!r}")
        return tuple.__new__(cls, (after_level, gap, count, grade))


class LevelScheme(_Record, namedtuple("LevelScheme", "levels cumulative params")):
    """Levels in ascending energy order with running occupancy totals."""

    __slots__ = ()

    def __new__(cls, levels: tuple[Level, ...], cumulative: tuple[int, ...],
                params: ModelParameters):
        if not levels:
            raise ValueError("a level scheme cannot be empty")
        if len(levels) != len(cumulative):
            raise ValueError("levels and cumulative must have equal length")
        total = 0
        previous = None
        for lev, cum in zip(levels, cumulative):
            if previous is not None and lev.energy < previous:
                raise ValueError("level energies must be non-decreasing")
            previous = lev.energy
            total += lev.degeneracy
            if cum != total:
                raise ValueError(f"cumulative total {cum} != running sum {total}")
        return tuple.__new__(cls, (levels, cumulative, params))


def _cut(energies: tuple[float, ...], n_hi: int, count_limit: int, tau: float):
    """(order, totals, complete) of the scheme of shells 0..n_hi at tau.

    energies is _energies_up_to's tuple for n_hi, the column of _shape(n_hi)
    and then the floor E(n_hi + 1, n_hi + 1).  order is the column's indices
    in energy order, ties in table order at tau > 0 and reversed at tau = 0
    (see above), and totals the running occupancies within count_limit:
    order[:len(totals)] is kept.  For tau >= 0 the lowest level of shell m
    is (m, m), rising with m, so the scheme is complete when count_limit,
    not n_hi, ended it (a level was left out, or the total met the limit)
    and the floor lies above the top kept energy.  Where the column is
    accepted, (0, 0) is its lowest level, so count_limit >= 2 keeps it.
    """
    degeneracies = _shape(n_hi)[2]
    table = range(len(degeneracies))
    order = sorted(table if tau else reversed(table), key=energies.__getitem__)
    running = accumulate(map(degeneracies.__getitem__, order))
    totals = list(takewhile(partial(ge, count_limit), running))
    k = len(totals)
    complete = ((k < len(order) or totals[-1] == count_limit)
                and energies[-1] > energies[order[k - 1]])
    return order, totals, complete


def _complete_cut(p: ModelParameters, count_limit: int):
    """(energies, order, totals): _cut of p's column, shells 0..n_max, where it is complete.

    Where it is not, raises InsufficientNMaxError with the reason, then the
    smallest n_max above p.n_max whose cut is complete.  Candidates whose
    shells hold fewer than count_limit particles, (n+1)(n+2)(n+3)/3, are
    skipped, and each other is cut on its own column, floor included; the
    search raises where that column is refused.
    """
    tau = p.deformation.tau
    energies = _energies_up_to(p, p.n_max)
    order, totals, complete = _cut(energies, p.n_max, count_limit, tau)
    if complete:
        return energies, order, totals
    top = energies[order[len(totals) - 1]]
    if energies[-1] > top:
        reason = f"shells 0..{p.n_max} hold only {totals[-1]} particles"
    else:  # past 1e10, .6f prints more digits than a double holds
        reason = (f"shell {p.n_max + 1} starts below the truncation energy "
                  f"{top:{'.6f' if top < 1e10 else '.6e'}}")
    n = p.n_max + 1
    while (n + 1) * (n + 2) * (n + 3) // 3 < count_limit:
        n += 1
    while not _cut(_energies_up_to(p, n), n, count_limit, tau)[2]:
        n += 1
    raise InsufficientNMaxError(f"n_max={p.n_max} is too small for count_limit={count_limit}: "
                                f"{reason}; use n_max >= {n}")


def build_scheme(p: ModelParameters, count_limit: int = DEFAULT_COUNT_LIMIT) -> LevelScheme:
    """Sort, accumulate and truncate the level scheme at count_limit.

    Levels are kept while the running occupancy stays within count_limit,
    so a total exactly equal to the limit is still included.  Raises
    InsufficientNMaxError, naming the smallest n_max that would do, when
    shells above n_max could still reach below the truncation energy or
    when shells 0..n_max cannot fill count_limit.  _cut's sort and running
    sum give what LevelScheme checks, so the scheme is built without it.
    """
    if not hasattr(count_limit, "__index__"):  # inf never ends the n_max search, nan breaks it
        raise ValueError(f"count_limit must be an integer, got {count_limit!r}")
    if (count_limit := count_limit.__index__()) < 2:
        raise ValueError(f"count_limit must be >= 2, got {count_limit!r}")
    # enumerate_levels raises where the energies overflow or cancel, the
    # floor's included, and otherwise (0, 0) is the lowest level, so kept
    # holds at least it.  _complete_cut cuts the column it keeps.
    levels = enumerate_levels(p)
    _, order, totals = _complete_cut(p, count_limit)
    kept = tuple(map(levels.__getitem__, order[:len(totals)]))
    return tuple.__new__(LevelScheme, (kept, tuple(totals), p))


def detect_shells(
    s: LevelScheme,
    primary_gap: float = DEFAULT_PRIMARY_GAP,
    secondary_gap: float = DEFAULT_SECONDARY_GAP,
) -> list[MagicRecord]:
    """Scan adjacent-level gaps and grade them against the two thresholds.

    Strict comparisons: a gap qualifies as primary when gap > primary_gap,
    as secondary when secondary_gap < gap <= primary_gap.  Thresholds must
    satisfy 0 <= secondary_gap < primary_gap, so every graded gap is
    positive, and a scheme's totals are at least 2: MagicRecord's checks
    hold, so the records are built without them.
    """
    if not (math.isfinite(primary_gap) and math.isfinite(secondary_gap)):
        raise ValueError("gap thresholds must be finite")
    if secondary_gap < 0:
        raise ValueError(f"secondary_gap must be >= 0, got {secondary_gap!r}")
    if not secondary_gap < primary_gap:
        raise ValueError(
            f"secondary_gap {secondary_gap!r} must be below primary_gap {primary_gap!r}"
        )
    primary, secondary = MagicGrade.PRIMARY, MagicGrade.SECONDARY
    return [tuple.__new__(MagicRecord, (low, gap, count, primary if gap > primary_gap else secondary))
            for low, high, count in zip(s.levels, s.levels[1:], s.cumulative)
            if (gap := high[2] - low[2]) > secondary_gap]


_LEVEL_FIELDS = ("n", "l", "energy", "degeneracy", "cumulative", "gap_to_next", "magic_grade")


def _level_rows(scheme, records) -> list[tuple]:
    """One row of _LEVEL_FIELDS per level; the last level has no gap_to_next."""
    grades = {(r.after_level.n, r.after_level.l): r.grade.value for r in records}
    levels = scheme.levels
    gaps = [b.energy - a.energy for a, b in zip(levels, levels[1:])] + [None]
    return [(lev.n, lev.l, lev.energy, lev.degeneracy, cum, gap, grades.get((lev.n, lev.l)))
            for lev, cum, gap in zip(levels, scheme.cumulative, gaps)]


_ROW = "{:>3} {:>3} {:>8} {:>8} {:>6}"


def render_table(s: LevelScheme, records: list[MagicRecord]) -> str:
    """Text table of _level_rows: n, l, energy, capacity, running total.

    Totals that close a primary shell are marked with '*' and, but on the
    last level, followed by a row holding the gap, the level difference to
    the next, as published level schemes are.  Output is deterministic.
    """
    primary = MagicGrade.PRIMARY.value
    lines = [_ROW.format("n", "l", "energy", "2(2l+1)", "total")]
    for n, l, energy, degeneracy, total, gap, grade in _level_rows(s, records):
        lines.append(_ROW.format(n, l, f"{energy:.3f}", degeneracy, total))
        if grade == primary:
            lines[-1] += " *"
            if gap is not None:
                lines.append(_ROW.format("", "", f"{gap:.3f}", "", "").rstrip())
    return "\n".join(lines) + "\n"
