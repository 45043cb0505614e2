"""Energy-ordered level schemes, shell gaps and magic numbers.

Levels are sorted by energy (ties broken by n then l), occupancies are
accumulated, and a gap between adjacent levels larger than the primary
threshold closes a shell: the cumulative count at the closing level is a
magic number.  Gaps in the secondary band are reported as weaker
closures.

The sort has one key, the energy.  It reads the table in (n, ascending l)
order, and Python's sort is stable, so levels of equal energy keep that
order: the result equals a sort on (energy, n, l), ties at tau = 0
included, without building a key tuple per level.
"""

import math
from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .spectrum import Level, ModelParameters, _levels_up_to, _shape, energy, enumerate_levels

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


class MagicRecord(namedtuple("MagicRecord", "after_level gap count grade")):
    """A shell closure after a level: its gap, cumulative count and grade."""

    __slots__ = ()

    def __new__(cls, after_level: Level, gap: float, count: int, grade: MagicGrade):
        if gap <= 0:
            raise ValueError(f"gap must be positive, got {gap!r}")
        if count < 1:
            raise ValueError(f"count must be positive, got {count!r}")
        return tuple.__new__(cls, (after_level, gap, count, grade))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LevelScheme(namedtuple("LevelScheme", "levels cumulative params")):
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

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# Shells added per step when searching for the n_max to suggest.
_N_MAX_STEP = 8


_energy = itemgetter(2)


def _sorted(table: list[Level], n_hi: int) -> list[Level]:
    # The stable one-key sort of the module docstring.
    return sorted(map(table.__getitem__, _shape(n_hi)[3]), key=_energy)


def _truncated(ordered: list[Level], count_limit: int) -> tuple[list[Level], list[int]]:
    totals = []
    running = 0
    for lev in ordered:
        running += lev[3]  # degeneracy
        if running > count_limit:
            break
        totals.append(running)
    return ordered[:len(totals)], totals


def _is_complete(next_shell_floor: float, enumerated: int, kept: list[Level],
                 totals: list[int], count_limit: int) -> bool:
    # For tau >= 0 the lowest level of shell m is (m, m), and it rises with
    # m.  So no omitted level reaches into the kept range once shell
    # n_max+1 starts above it, provided count_limit, not n_max, ended the
    # scheme: some level was left out, or the total met the limit exactly.
    cut = len(kept) < enumerated or totals[-1] == count_limit
    return cut and next_shell_floor > kept[-1].energy


def _required_n_max(p: ModelParameters, count_limit: int) -> int:
    """The smallest n_max above p.n_max whose scheme is complete.

    Levels up to a trial bound are built and sorted once, and every
    candidate below that bound is checked against them; the bound grows
    by _N_MAX_STEP shells only if no candidate passes.
    """
    n = p.n_max
    while True:
        n_hi = n + _N_MAX_STEP
        table = _levels_up_to(p, n_hi + 1)
        floors = {lev.n: lev.energy for lev in table if lev.l == lev.n}
        ordered = _sorted(table, n_hi + 1)
        while n < n_hi:
            n += 1
            levels = [lev for lev in ordered if lev.n <= n]
            kept, totals = _truncated(levels, count_limit)
            if _is_complete(floors[n + 1], len(levels), kept, totals, count_limit):
                return n


def build_scheme(p: ModelParameters, count_limit: int = DEFAULT_COUNT_LIMIT) -> LevelScheme:
    """Sort, accumulate and truncate the level scheme at count_limit.

    Levels are kept while the running occupancy stays within count_limit,
    so a total exactly equal to the limit is still included.  Raises
    InsufficientNMaxError, naming the smallest n_max that would do, when
    shells above n_max could still reach below the truncation energy or
    when shells 0..n_max cannot fill count_limit.
    """
    if count_limit < 2:
        raise ValueError(f"count_limit must be >= 2, got {count_limit!r}")
    levels = enumerate_levels(p)
    kept, totals = _truncated(_sorted(levels, p.n_max), count_limit)
    try:
        next_shell_floor = energy(p.n_max + 1, p.n_max + 1, p)
    except OverflowError:
        # Beyond float range, so above every level of the table.
        next_shell_floor = math.inf
    if not _is_complete(next_shell_floor, len(levels), kept, totals, count_limit):
        if next_shell_floor > kept[-1].energy:
            reason = f"shells 0..{p.n_max} hold only {totals[-1]} particles"
        else:
            reason = (f"shell {p.n_max + 1} starts below the truncation energy "
                      f"{kept[-1].energy:.6f}")
        raise InsufficientNMaxError(
            f"n_max={p.n_max} is too small for count_limit={count_limit}: "
            f"{reason}; use n_max >= {_required_n_max(p, count_limit)}"
        )
    return LevelScheme(tuple(kept), tuple(totals), p)


def detect_shells(
    s: LevelScheme,
    primary_gap: float = DEFAULT_PRIMARY_GAP,
    secondary_gap: float = DEFAULT_SECONDARY_GAP,
) -> list[MagicRecord]:
    """Scan adjacent-level gaps and grade them against the two thresholds.

    Strict comparisons: a gap qualifies as primary when gap > primary_gap,
    as secondary when secondary_gap < gap <= primary_gap.  Thresholds must
    satisfy 0 <= secondary_gap < primary_gap, so every graded gap is
    positive.
    """
    if not (math.isfinite(primary_gap) and math.isfinite(secondary_gap)):
        raise ValueError("gap thresholds must be finite")
    if secondary_gap < 0:
        raise ValueError(f"secondary_gap must be >= 0, got {secondary_gap!r}")
    if not secondary_gap < primary_gap:
        raise ValueError(
            f"secondary_gap {secondary_gap!r} must be below primary_gap {primary_gap!r}"
        )
    levels, cumulative = s.levels, s.cumulative
    records = []
    for i in range(len(levels) - 1):
        gap = levels[i + 1].energy - levels[i].energy
        if gap > primary_gap:
            grade = MagicGrade.PRIMARY
        elif gap > secondary_gap:
            grade = MagicGrade.SECONDARY
        else:
            continue
        records.append(MagicRecord(levels[i], gap, cumulative[i], grade))
    return records


_ROW = "{:>3} {:>3} {:>8} {:>8} {:>6}"


def render_table(s: LevelScheme, records: list[MagicRecord]) -> str:
    """Text table of the scheme: n, l, energy, capacity, running total.

    Totals that close a primary shell are marked with '*' and followed by
    a row holding the gap to the next level, mirroring the layout used
    for published level schemes.  Output is deterministic.
    """
    primary_after = {
        (r.after_level.n, r.after_level.l): r
        for r in records
        if r.grade is MagicGrade.PRIMARY
    }
    lines = [_ROW.format("n", "l", "energy", "2(2l+1)", "total")]
    last = len(s.levels) - 1
    for i, lev in enumerate(s.levels):
        row = _ROW.format(lev.n, lev.l, f"{lev.energy:.3f}", lev.degeneracy, s.cumulative[i])
        record = primary_after.get((lev.n, lev.l))
        if record is not None:
            row += " *"
        lines.append(row)
        if record is not None and i < last:
            lines.append(_ROW.format("", "", f"{record.gap:.3f}", "", "").rstrip())
    return "\n".join(lines) + "\n"
