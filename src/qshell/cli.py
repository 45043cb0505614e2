"""Command-line front end: level schemes, magic numbers, comparisons, fits.

Exit codes: 0 success, 1 computational or data error, 2 usage error.
Data goes to stdout, diagnostics to stderr, and output for a fixed
configuration is byte-identical across runs.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import namedtuple
from functools import lru_cache

from .empirics import (
    DatasetParseError,
    DatasetValidationError,
    fit_tau,
    load_named_dataset,
    match_magics,
)
from .qmath import DeformationParameter
from .shells import (
    DEFAULT_COUNT_LIMIT,
    DEFAULT_PRIMARY_GAP,
    DEFAULT_SECONDARY_GAP,
    InsufficientNMaxError,
    MagicGrade,
    build_scheme,
    detect_shells,
    render_table,
)
from .spectrum import ModelParameters

__all__ = ["RunConfig", "parse_args", "run", "main"]

COMMANDS = ("levels", "magics", "table", "compare", "fit", "export")

# Largest tau grid `fit --grid` may expand to.
MAX_GRID_POINTS = 100_000
# Largest --n-max and --count-limit.  Memory grows as n_max**2, and a
# count limit the shells 0..n_max cannot hold makes build_scheme search
# ever larger tables for the n_max to suggest.  1e6 particles need
# n_max <= 150 at every tau, and one scheme at these caps takes at most
# about 0.15 s; a fit costs that once per grid point.
MAX_N_MAX = 200
MAX_COUNT_LIMIT = 1_000_000


class RunConfig(namedtuple(
    "RunConfig",
    "command tau hbar_omega0 n_max primary_gap secondary_gap count_limit "
    "dataset_path slack format tau_grid",
    defaults=(0.038, 1.0, 24, DEFAULT_PRIMARY_GAP, DEFAULT_SECONDARY_GAP,
              DEFAULT_COUNT_LIMIT, None, 0, "text", None),
)):
    """One validated command line; tau_grid is (lo, hi, step) for fit."""

    __slots__ = ()


def _add_model_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tau", type=float, default=0.038,
                     help="deformation parameter, >= 0 (default 0.038)")
    _add_scale_options(sub)


def _add_scale_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--hbar-omega0", dest="hbar_omega0", type=float, default=1.0,
                     help="energy scale (default 1.0)")
    sub.add_argument("--n-max", dest="n_max", type=int, default=24,
                     help="shell enumeration bound (default 24)")


def _add_shell_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--primary-gap", "--gap", dest="primary_gap", type=float,
                     default=DEFAULT_PRIMARY_GAP,
                     help="primary shell-gap threshold (default 0.39)")
    sub.add_argument("--secondary-gap", dest="secondary_gap", type=float,
                     default=DEFAULT_SECONDARY_GAP,
                     help="secondary shell-gap threshold (default 0.30)")
    sub.add_argument("--count-limit", dest="count_limit", type=int,
                     default=DEFAULT_COUNT_LIMIT,
                     help="occupancy truncation of the scheme (default 1520)")


def _add_dataset_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dataset", dest="dataset_path", required=True,
                     help="bundled dataset name or path to a dataset file")
    sub.add_argument("--slack", type=int, default=0,
                     help="extra matching window on top of uncertainties (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshell",
        description="Deformed-oscillator shell structure: levels, magic numbers, fits.",
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    levels = subs.add_parser("levels", help="print the truncated level scheme")
    _add_model_options(levels)
    _add_shell_options(levels)
    levels.add_argument("--format", choices=("text", "csv", "json"), default="text")

    magics = subs.add_parser("magics", help="print primary magic numbers")
    _add_model_options(magics)
    _add_shell_options(magics)
    magics.add_argument("--format", choices=("text", "csv", "json"), default="text")

    table = subs.add_parser("table", help="render the level scheme with gaps marked")
    _add_model_options(table)
    _add_shell_options(table)

    compare = subs.add_parser("compare", help="score predictions against a dataset")
    _add_model_options(compare)
    _add_shell_options(compare)
    _add_dataset_options(compare)
    compare.add_argument("--format", choices=("text", "csv", "json"), default="text")

    fit = subs.add_parser("fit", help="grid-search the deformation against a dataset")
    _add_scale_options(fit)
    _add_shell_options(fit)
    _add_dataset_options(fit)
    fit.add_argument("--grid", dest="grid_spec", default="0.02:0.06:0.002",
                     help="tau grid as lo:hi:step (default 0.02:0.06:0.002)")
    fit.add_argument("--format", choices=("text", "csv", "json"), default="text")

    export = subs.add_parser("export", help="machine-readable scheme with gap annotations")
    _add_model_options(export)
    _add_shell_options(export)
    export.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _parse_grid_spec(parser: argparse.ArgumentParser, spec: str) -> tuple[float, float, float]:
    parts = spec.split(":")
    try:
        lo, hi, step = (float(part) for part in parts)
    except ValueError:
        lo = hi = step = math.nan
    if len(parts) != 3 or not all(map(math.isfinite, (lo, hi, step))):
        parser.error(f"--grid must be lo:hi:step, got {spec!r}")
    if lo <= 0 or step <= 0 or hi < lo:
        parser.error(f"--grid requires 0 < lo <= hi and step > 0, got {spec!r}")
    if (hi - lo) / step + 1 > MAX_GRID_POINTS:
        parser.error(f"--grid {spec!r} has more than {MAX_GRID_POINTS} points")
    taus = _expand_grid((lo, hi, step))
    if any(b <= a for a, b in zip(taus, taus[1:])):
        parser.error(f"--grid {spec!r} has points that round to the same tau (10 decimals)")
    return lo, hi, step


def parse_args(argv: list[str]) -> RunConfig:
    """Turn argv into a validated RunConfig; exits with status 2 on usage errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    if hasattr(ns, "tau") and not (math.isfinite(ns.tau) and ns.tau >= 0):
        parser.error(f"--tau must be finite and >= 0, got {ns.tau!r}")
    if hasattr(ns, "hbar_omega0") and not (
        math.isfinite(ns.hbar_omega0) and ns.hbar_omega0 > 0
    ):
        parser.error(f"--hbar-omega0 must be positive, got {ns.hbar_omega0!r}")
    if hasattr(ns, "n_max") and not 1 <= ns.n_max <= MAX_N_MAX:
        parser.error(f"--n-max must be in [1, {MAX_N_MAX}], got {ns.n_max}")
    if hasattr(ns, "count_limit") and not 2 <= ns.count_limit <= MAX_COUNT_LIMIT:
        parser.error(f"--count-limit must be in [2, {MAX_COUNT_LIMIT}], got {ns.count_limit}")
    if hasattr(ns, "primary_gap"):
        if not (math.isfinite(ns.primary_gap) and math.isfinite(ns.secondary_gap)):
            parser.error("--primary-gap and --secondary-gap must be finite")
        if not ns.secondary_gap < ns.primary_gap:
            parser.error("--secondary-gap must be below --primary-gap")
    if hasattr(ns, "slack") and ns.slack < 0:
        parser.error(f"--slack must be >= 0, got {ns.slack}")
    if hasattr(ns, "grid_spec"):
        ns.tau_grid = _parse_grid_spec(parser, ns.grid_spec)

    return RunConfig(**{k: v for k, v in vars(ns).items() if k in RunConfig._fields})


@lru_cache(maxsize=1)  # parse_args checks the grid that fit then scans
def _expand_grid(grid: tuple[float, float, float]) -> tuple[float, ...]:
    lo, hi, step = grid
    taus = []
    i = 0
    while True:
        tau = round(lo + i * step, 10)
        if tau > hi + 1e-9:
            return tuple(taus)
        taus.append(tau)
        i += 1


def _config_dict(config: RunConfig) -> dict:
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in zip(config._fields, config)}


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _grade_after(records) -> dict:
    return {(r.after_level.n, r.after_level.l): r for r in records}


_LEVEL_ROW = "{:>3} {:>3} {:>8} {:>8} {:>6}"


def _cmd_levels(config: RunConfig) -> str:
    params = ModelParameters(DeformationParameter(config.tau), config.hbar_omega0, config.n_max)
    scheme = build_scheme(params, config.count_limit)
    if config.format == "text":
        lines = [_LEVEL_ROW.format("n", "l", "energy", "2(2l+1)", "total")]
        for lev, cum in zip(scheme.levels, scheme.cumulative):
            lines.append(
                _LEVEL_ROW.format(lev.n, lev.l, f"{lev.energy:.3f}", lev.degeneracy, cum)
            )
        return "\n".join(lines) + "\n"
    if config.format == "csv":
        rows = [
            [lev.n, lev.l, repr(lev.energy), lev.degeneracy, cum]
            for lev, cum in zip(scheme.levels, scheme.cumulative)
        ]
        return _csv_text(["n", "l", "energy", "degeneracy", "cumulative"], rows)
    payload = {
        "config": _config_dict(config),
        "levels": [
            {
                "n": lev.n,
                "l": lev.l,
                "energy": lev.energy,
                "degeneracy": lev.degeneracy,
                "cumulative": cum,
            }
            for lev, cum in zip(scheme.levels, scheme.cumulative)
        ],
    }
    return _json_text(payload)


def _cmd_export(config: RunConfig) -> str:
    params = ModelParameters(DeformationParameter(config.tau), config.hbar_omega0, config.n_max)
    scheme = build_scheme(params, config.count_limit)
    records = detect_shells(scheme, config.primary_gap, config.secondary_gap)
    graded = _grade_after(records)
    rows = []
    for i, (lev, cum) in enumerate(zip(scheme.levels, scheme.cumulative)):
        nxt = scheme.levels[i + 1].energy - lev.energy if i + 1 < len(scheme.levels) else None
        record = graded.get((lev.n, lev.l))
        rows.append(
            {
                "n": lev.n,
                "l": lev.l,
                "energy": lev.energy,
                "degeneracy": lev.degeneracy,
                "cumulative": cum,
                "gap_to_next": nxt,
                "magic_grade": record.grade.value if record else None,
            }
        )
    if config.format == "csv":
        csv_rows = [
            [
                r["n"],
                r["l"],
                repr(r["energy"]),
                r["degeneracy"],
                r["cumulative"],
                "" if r["gap_to_next"] is None else repr(r["gap_to_next"]),
                r["magic_grade"] or "",
            ]
            for r in rows
        ]
        header = ["n", "l", "energy", "degeneracy", "cumulative", "gap_to_next", "magic_grade"]
        return _csv_text(header, csv_rows)
    return _json_text({"config": _config_dict(config), "levels": rows})


def _cmd_magics(config: RunConfig) -> str:
    params = ModelParameters(DeformationParameter(config.tau), config.hbar_omega0, config.n_max)
    scheme = build_scheme(params, config.count_limit)
    records = detect_shells(scheme, config.primary_gap, config.secondary_gap)
    primaries = [r for r in records if r.grade is MagicGrade.PRIMARY]
    if config.format == "text":
        return "".join(f"{r.count}\n" for r in primaries)
    if config.format == "csv":
        rows = [[r.count, repr(r.gap), r.after_level.n, r.after_level.l] for r in primaries]
        return _csv_text(["count", "gap", "after_n", "after_l"], rows)
    payload = {
        "config": _config_dict(config),
        "magics": [
            {"count": r.count, "gap": r.gap, "after_n": r.after_level.n, "after_l": r.after_level.l}
            for r in primaries
        ],
    }
    return _json_text(payload)


def _cmd_table(config: RunConfig) -> str:
    params = ModelParameters(DeformationParameter(config.tau), config.hbar_omega0, config.n_max)
    scheme = build_scheme(params, config.count_limit)
    records = detect_shells(scheme, config.primary_gap, config.secondary_gap)
    return render_table(scheme, records)


def _load_dataset_for(config: RunConfig):
    return load_named_dataset(config.dataset_path, data_dir=os.environ.get("QSHELL_DATA_DIR"))


def _cmd_compare(config: RunConfig) -> str:
    dataset = _load_dataset_for(config)
    params = ModelParameters(DeformationParameter(config.tau), config.hbar_omega0, config.n_max)
    scheme = build_scheme(params, config.count_limit)
    records = detect_shells(scheme, config.primary_gap, config.secondary_gap)
    predicted = [r.count for r in records if r.grade is MagicGrade.PRIMARY]
    report = match_magics(predicted, dataset, slack=config.slack, include_paren=False)
    matched_p = {p for p, _ in report.matched_pairs}
    matched_o = {o for _, o in report.matched_pairs}
    observed = dataset.values(include_paren=False)
    unmatched_p = [p for p in predicted if p not in matched_p]
    unmatched_o = [o for o in observed if o not in matched_o]
    if config.format == "text":
        lines = [f"dataset {dataset.source} ({len(observed)} entries, slack {config.slack})"]
        lines += [f"pair {p} {o}" for p, o in report.matched_pairs]
        lines += [f"unmatched-predicted {p}" for p in unmatched_p]
        lines += [f"unmatched-observed {o}" for o in unmatched_o]
        lines.append(f"tp {report.true_positives} fp {report.false_positives} fn {report.false_negatives}")
        lines.append(f"f1 {report.f1:.6f}")
        return "\n".join(lines) + "\n"
    if config.format == "csv":
        rows = [["pair", p, o] for p, o in report.matched_pairs]
        rows += [["unmatched-predicted", p, ""] for p in unmatched_p]
        rows += [["unmatched-observed", "", o] for o in unmatched_o]
        return _csv_text(["kind", "predicted", "observed"], rows)
    payload = {
        "config": _config_dict(config),
        "dataset": dataset.source,
        "pairs": [list(pair) for pair in report.matched_pairs],
        "unmatched_predicted": unmatched_p,
        "unmatched_observed": unmatched_o,
        "tp": report.true_positives,
        "fp": report.false_positives,
        "fn": report.false_negatives,
        "f1": report.f1,
    }
    return _json_text(payload)


def _cmd_fit(config: RunConfig) -> str:
    dataset = _load_dataset_for(config)
    taus = _expand_grid(tuple(config.tau_grid))
    result = fit_tau(dataset, taus, config.primary_gap, config.count_limit, config.slack,
                     config.hbar_omega0, config.n_max)
    if config.format == "text":
        lines = [f"tau {tau:.6f} f1 {score:.6f}" for tau, score in result.grid]
        lines.append(f"best tau {result.tau_best:.6f} f1 {result.score_best:.6f}")
        return "\n".join(lines) + "\n"
    if config.format == "csv":
        rows = [[repr(tau), repr(score)] for tau, score in result.grid]
        return _csv_text(["tau", "f1"], rows)
    payload = {
        "config": _config_dict(config),
        "dataset": dataset.source,
        "grid": [list(point) for point in result.grid],
        "tau_best": result.tau_best,
        "score_best": result.score_best,
    }
    return _json_text(payload)


_DISPATCH = {
    "levels": _cmd_levels,
    "magics": _cmd_magics,
    "table": _cmd_table,
    "compare": _cmd_compare,
    "fit": _cmd_fit,
    "export": _cmd_export,
}


def run(config: RunConfig, out=None) -> int:
    """Execute one command; data to out (stdout), diagnostics to stderr."""
    sink = sys.stdout if out is None else out
    try:
        text = _DISPATCH[config.command](config)
    except (InsufficientNMaxError, DatasetParseError, DatasetValidationError,
            ValueError, OSError) as exc:
        print(f"qshell: error: {exc}", file=sys.stderr)
        return 1
    sink.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return run(config)
