"""Command-line front end: level schemes, magic numbers, comparisons, fits.

Exit codes: 0 success, 1 computational or data error, 2 usage error.
Data goes to stdout, diagnostics to stderr, and output for a fixed
configuration is byte-identical across runs.
"""

import argparse
import gc
import io
import math
import os
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import count, islice, takewhile

from .empirics import fit_tau, load_named_dataset, match_magics
from .qmath import DeformationParameter
from .shells import (
    DEFAULT_COUNT_LIMIT,
    DEFAULT_PRIMARY_GAP,
    DEFAULT_SECONDARY_GAP,
    InsufficientNMaxError,
    MagicGrade,
    _LEVEL_FIELDS,
    _level_rows,
    build_scheme,
    detect_shells,
    render_table,
)
from .spectrum import DEFAULT_HBAR_OMEGA0, DEFAULT_N_MAX, ModelParameters, _shape

__all__ = ["RunConfig", "parse_args", "run", "main"]

# Largest tau grid `fit --grid` may expand to.
MAX_GRID_POINTS = 100_000
# Largest --n-max and --count-limit.  Memory grows as n_max**2, and a
# count limit the shells 0..n_max cannot hold makes build_scheme search
# ever larger tables for the n_max to suggest.  1e6 particles need
# n_max <= 150 at every tau, and one scheme at these caps takes at most
# about 0.15 s; a fit builds one at its first point and at the first incomplete one.
MAX_N_MAX = 200
MAX_COUNT_LIMIT = 1_000_000
# Largest total work of a fit: tau grid points times the levels of the
# _shape(n_max) table (169 at the default n_max of 24).  A fit point costs
# about 0.3 microseconds per level, so this bounds a fit to a few seconds.
# Levels that cross or tie at every point send each to the kernel: the cap is on points.
MAX_FIT_LEVELS = 10_000_000


class RunConfig(namedtuple(
    "RunConfig",
    "command tau hbar_omega0 n_max primary_gap secondary_gap count_limit "
    "dataset_path slack format tau_grid",
    defaults=(0.038, DEFAULT_HBAR_OMEGA0, DEFAULT_N_MAX, DEFAULT_PRIMARY_GAP,
              DEFAULT_SECONDARY_GAP, DEFAULT_COUNT_LIMIT, None, 0, "text", None),
)):
    """One validated command line; tau_grid is (lo, hi, step) for fit."""

    __slots__ = ()


# The options of each group, in the order help lists them.  Each subparser
# leaves an omitted option out, so RunConfig states its default.
_OPTIONS = {
    "tau": [
        (("--tau",), dict(type=float, help="deformation parameter, >= 0 (default 0.038)")),
    ],
    "scale": [
        (("--hbar-omega0",), dict(type=float, help="energy scale (default 1.0)")),
        (("--n-max",), dict(type=int, help="shell enumeration bound (default 24)")),
    ],
    "shell": [
        (("--primary-gap", "--gap"), dict(type=float, help="primary shell-gap threshold (default 0.39)")),
        (("--secondary-gap",), dict(type=float, help="secondary shell-gap threshold (default 0.30)")),
        (("--count-limit",), dict(type=int, help="occupancy truncation of the scheme (default 1520)")),
    ],
    "dataset": [
        (("--dataset",), dict(dest="dataset_path", required=True,
                              help="bundled dataset name or path to a dataset file")),
        (("--slack",), dict(type=int, help="extra matching window on top of uncertainties (default 0)")),
    ],
    "grid": [
        (("--grid",), dict(dest="grid_spec", default="0.02:0.06:0.002",
                           help="tau grid as lo:hi:step (default %(default)s)")),
    ],
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with `command`'s alone.

    A subcommand's help, usage and errors read only its own subparser, and
    the main parser's usage names no subcommand, so `command`'s subparser
    alone parses its command lines with the same output.
    """
    parser = argparse.ArgumentParser(
        prog="qshell",
        description="Deformed-oscillator shell structure: levels, magic numbers, fits.",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text, groups, formats) in _COMMANDS.items():
        if command not in (None, name):
            continue
        sub = subs.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for group in groups:
            for flags, options in _OPTIONS[group]:
                sub.add_argument(*flags, **options)
        if formats:
            sub.add_argument("--format", choices=formats, default=formats[0])
    return parser


def _parse_grid_spec(parser: argparse.ArgumentParser, spec: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = map(float, spec.split(":"))  # a count other than 3 raises too
    except ValueError:
        lo = hi = step = math.nan
    if not all(map(math.isfinite, (lo, hi, step))):
        parser.error(f"--grid must be lo:hi:step, got {spec!r}")
    if lo <= 0 or step <= 0 or hi < lo:
        parser.error(f"--grid requires 0 < lo <= hi and step > 0, got {spec!r}")
    if (hi - lo) // step + 1 > MAX_GRID_POINTS:  # whole steps: never more than the points
        parser.error(f"--grid {spec!r} has more than {MAX_GRID_POINTS} points")
    taus = _expand_grid((lo, hi, step))
    if not taus or taus[0] <= 0:  # below a 1e-10 step, rounding may lift lo past hi
        parser.error(f"--grid {spec!r} starts at a point that rounds to 0 or past hi (10 decimals)")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        parser.error(f"--grid {spec!r} has points that round to the same tau (10 decimals)")
    if len(taus) > MAX_GRID_POINTS:  # rounding may keep a point past the estimate above
        parser.error(f"--grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return lo, hi, step


def parse_args(argv: list[str]) -> RunConfig:
    """Turn argv into a validated RunConfig; exits with status 2 on usage errors."""
    # Only the main parser's help and its command errors list every command.
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    # argparse takes a value that starts with "-" for an option unless it is a
    # plain number; a spec holds a ":", which no option does (--g also abbreviates --gap).
    args = []
    for arg in argv:
        if (argv[0] == "fit" and args[-1:] in (["--gr"], ["--gri"], ["--grid"])
                and arg[:1] == "-" and ":" in arg):
            arg = args.pop() + "=" + arg
        args.append(arg)
    options = vars(parser.parse_args(args))
    grid_spec = options.pop("grid_spec", None)
    config = RunConfig(**options)
    if not (math.isfinite(config.tau) and config.tau >= 0):
        parser.error(f"--tau must be finite and >= 0, got {config.tau!r}")
    # A subnormal scale rounds energies of different shells to ties and misorders them.
    if not sys.float_info.min <= config.hbar_omega0 <= sys.float_info.max:
        parser.error(f"--hbar-omega0 must be a normal positive float, got {config.hbar_omega0!r}")
    if not 1 <= config.n_max <= MAX_N_MAX:
        parser.error(f"--n-max must be in [1, {MAX_N_MAX}], got {config.n_max}")
    if not 2 <= config.count_limit <= MAX_COUNT_LIMIT:
        parser.error(f"--count-limit must be in [2, {MAX_COUNT_LIMIT}], got {config.count_limit}")
    if not (math.isfinite(config.primary_gap) and math.isfinite(config.secondary_gap)):
        parser.error("--primary-gap and --secondary-gap must be finite")
    if config.primary_gap < 0 or config.secondary_gap < 0:
        parser.error("--primary-gap and --secondary-gap must be >= 0")
    # levels and fit never grade secondary closures.
    if config.command not in ("levels", "fit") and not config.secondary_gap < config.primary_gap:
        parser.error("--secondary-gap must be below --primary-gap")
    if config.slack < 0:
        parser.error(f"--slack must be >= 0, got {config.slack}")
    if grid_spec is not None:
        config = config._replace(tau_grid=_parse_grid_spec(parser, grid_spec))
        work = len(_expand_grid(config.tau_grid)) * len(_shape(config.n_max)[0])
        if work > MAX_FIT_LEVELS:
            parser.error(f"fit would build {work} levels (grid points x levels per "
                         f"scheme), more than {MAX_FIT_LEVELS}; use a coarser --grid "
                         f"or a smaller --n-max")
    return config


@lru_cache(maxsize=1)  # parse_args checks the grid that fit then scans
def _expand_grid(grid: tuple[float, float, float]) -> tuple[float, ...]:
    # Points stop at hi, or up to half a step (1e-9 at most) past it to keep
    # an endpoint that rounding lifts.  Points that stall under rounding
    # repeat or round to 0, which _parse_grid_spec refuses, before twice the cap.
    lo, hi, step = grid
    end = hi + min(1e-9, step / 2)
    taus = (round(lo + i * step, 10) for i in count())
    return tuple(islice(takewhile(end.__ge__, taus), 2 * MAX_GRID_POINTS))


def _emit(config: RunConfig, header: tuple[str, ...], rows: list, payload: dict) -> str:
    """The csv (header and rows) or json (config and payload) output of a command.

    csv writes a float as its repr and None as an empty field.
    """
    if config.format == "csv":
        import csv  # json and csv load only for the formats that need them
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    import json
    payload = {"config": config._asdict(), **payload}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _dicts(header: tuple[str, ...], rows: list) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _scheme(config: RunConfig, graded: bool = True):
    """The configured scheme and, if graded, its shell closures."""
    params = ModelParameters(DeformationParameter(config.tau), config.hbar_omega0, config.n_max)
    scheme = build_scheme(params, config.count_limit)
    return scheme, detect_shells(scheme, config.primary_gap, config.secondary_gap) if graded else []


def _cmd_levels(config: RunConfig) -> str:
    # levels never grades, so it ignores the gap thresholds.
    scheme, _ = _scheme(config, graded=False)
    if config.format == "text":
        return render_table(scheme, [])
    header = _LEVEL_FIELDS[:5]
    rows = [row[:5] for row in _level_rows(scheme, [])]
    return _emit(config, header, rows, {"levels": _dicts(header, rows)})


def _cmd_export(config: RunConfig) -> str:
    rows = _level_rows(*_scheme(config))
    return _emit(config, _LEVEL_FIELDS, rows, {"levels": _dicts(_LEVEL_FIELDS, rows)})


def _cmd_magics(config: RunConfig) -> str:
    _, records = _scheme(config)
    primaries = [r for r in records if r.grade is MagicGrade.PRIMARY]
    if config.format == "text":
        return "".join(f"{r.count}\n" for r in primaries)
    header = ("count", "gap", "after_n", "after_l")
    rows = [(r.count, r.gap, r.after_level.n, r.after_level.l) for r in primaries]
    return _emit(config, header, rows, {"magics": _dicts(header, rows)})


def _cmd_table(config: RunConfig) -> str:
    return render_table(*_scheme(config))


def _load_dataset_for(config: RunConfig):
    return load_named_dataset(config.dataset_path, data_dir=os.environ.get("QSHELL_DATA_DIR"))


def _cmd_compare(config: RunConfig) -> str:
    dataset = _load_dataset_for(config)
    _, records = _scheme(config)
    predicted = [r.count for r in records if r.grade is MagicGrade.PRIMARY]
    report = match_magics(predicted, dataset, slack=config.slack, include_paren=False)
    matched_p = {p for p, _ in report.matched_pairs}
    matched_o = {o for _, o in report.matched_pairs}
    observed = dataset.values(include_paren=False)
    unmatched_p = [p for p in predicted if p not in matched_p]
    unmatched_o = [o for o in observed if o not in matched_o]
    rows = [("pair", p, o) for p, o in report.matched_pairs]
    rows += [("unmatched-predicted", p, "") for p in unmatched_p]
    rows += [("unmatched-observed", "", o) for o in unmatched_o]
    if config.format == "text":  # each row's non-empty fields
        lines = [f"dataset {dataset.source} ({len(observed)} entries, slack {config.slack})"]
        lines += [" ".join(str(field) for field in row if field != "") for row in rows]
        lines.append(f"tp {report.true_positives} fp {report.false_positives} fn {report.false_negatives}")
        lines.append(f"f1 {report.f1:.6f}")
        return "\n".join(lines) + "\n"
    return _emit(config, ("kind", "predicted", "observed"), rows, {
        "dataset": dataset.source,
        "pairs": report.matched_pairs,
        "unmatched_predicted": unmatched_p,
        "unmatched_observed": unmatched_o,
        "tp": report.true_positives,
        "fp": report.false_positives,
        "fn": report.false_negatives,
        "f1": report.f1,
    })


def _cmd_fit(config: RunConfig) -> str:
    dataset = _load_dataset_for(config)
    taus = _expand_grid(tuple(config.tau_grid))
    result = fit_tau(dataset, taus, config.primary_gap, config.count_limit, config.slack,
                     config.hbar_omega0, config.n_max)
    if config.format == "text":
        lines = [f"tau {tau:.6f} f1 {score:.6f}" for tau, score in result.grid]
        lines.append(f"best tau {result.tau_best:.6f} f1 {result.score_best:.6f}")
        return "\n".join(lines) + "\n"
    return _emit(config, ("tau", "f1"), result.grid, {
        "dataset": dataset.source,
        "grid": result.grid,
        "tau_best": result.tau_best,
        "score_best": result.score_best,
    })


_FORMATS = ("text", "csv", "json")
# command: (handler, help, option groups, --format choices with the default first)
_COMMANDS = {
    "levels": (_cmd_levels, "print the truncated level scheme", ("tau", "scale", "shell"), _FORMATS),
    "magics": (_cmd_magics, "print primary magic numbers", ("tau", "scale", "shell"), _FORMATS),
    "table": (_cmd_table, "render the level scheme with gaps marked",
              ("tau", "scale", "shell"), ()),
    "compare": (_cmd_compare, "score predictions against a dataset",
                ("tau", "scale", "shell", "dataset"), _FORMATS),
    "fit": (_cmd_fit, "grid-search the deformation against a dataset",
            ("scale", "shell", "dataset", "grid"), _FORMATS),
    "export": (_cmd_export, "machine-readable scheme with gap annotations",
               ("tau", "scale", "shell"), ("csv", "json")),
}


def run(config: RunConfig) -> int:
    """Execute one command; data to stdout, diagnostics to stderr."""
    try:
        text = _COMMANDS[config.command][0](config)
    except (InsufficientNMaxError, ValueError, OSError) as exc:
        print(f"qshell: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    status = run(parse_args(sys.argv[1:] if argv is None else argv))
    if argv is None:  # a process about to exit: its final collections skip what is alive now
        gc.freeze()
    return status
