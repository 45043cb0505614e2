"""Correctness checks for every workload, and a self-test of the checkers.

CLI outputs are compared byte for byte with golden stdout captured by
capture_golden.py, and a few outputs must also satisfy invariants stated
by the paper.  Scheme-sweep results are compared with reference.py.
Each checker returns None for a correct output and a reason otherwise.
"""

import gzip
import re
from pathlib import Path

import reference

GOLDEN = Path(__file__).resolve().parent / "golden"

# Criterion 11's CLI_RUNS: every short command in every output format.
CLI_RUNS = (
    ("levels",), ("levels", "--format", "csv"), ("levels", "--format", "json"),
    ("magics",), ("magics", "--format", "csv"), ("magics", "--format", "json"),
    ("table",),
    ("compare", "--dataset", "martin"),
    ("compare", "--dataset", "martin", "--format", "csv"),
    ("compare", "--dataset", "martin", "--format", "json"),
    ("fit", "--dataset", "martin", "--grid", "0.03:0.046:0.004"),
    ("fit", "--dataset", "martin", "--grid", "0.03:0.046:0.004", "--format", "json"),
    ("fit", "--dataset", "martin", "--grid", "0.03:0.046:0.004", "--format", "csv"),
    ("export",), ("export", "--format", "json"),
)
EXPERIMENTS = ("martin", "bjornholm", "knight", "pedersen", "brechignac")
FINE_GRID = "0.02:0.06:0.00001"
FINE_POINTS = 4001

# The 25 primary magic numbers of the reference scheme at tau = 0.038.
PRIMARY_MAGICS = (
    2, 8, 20, 34, 40, 58, 92, 138, 198, 254, 268, 338, 440, 556, 676,
    694, 832, 912, 1012, 1100, 1206, 1284, 1314, 1410, 1502,
)
MARTIN_F1 = "0.772727"
MARTIN_TAU_WINDOW = (0.0379, 0.0393)


def fit_argv(dataset):
    return ("fit", "--dataset", dataset, "--grid", FINE_GRID)


def golden_path(argv):
    if argv[:1] == ("fit",) and argv[-1] == FINE_GRID:
        return GOLDEN / "fit-fine" / f"{argv[2]}.out.gz"
    slug = "_".join(a.lstrip("-") for a in argv).replace(":", "-")
    return GOLDEN / "cli-mix" / f"{slug}.out"


def read_golden(argv):
    path = golden_path(argv)
    data = path.read_bytes()
    return gzip.decompress(data) if path.suffix == ".gz" else data


def _check_magics(stdout):
    got = tuple(int(line) for line in stdout.decode().split())
    if got != PRIMARY_MAGICS:
        return f"primary magics at tau=0.038 are {got}, expected the 25 reference values"
    return None


def _check_martin_f1(stdout):
    last = stdout.decode().rstrip("\n").rsplit("\n", 1)[-1]
    if last != f"f1 {MARTIN_F1}":
        return f"martin compare ends with {last!r}, expected 'f1 {MARTIN_F1}'"
    return None


def _check_martin_tau(stdout):
    last = stdout.decode().rstrip("\n").rsplit("\n", 1)[-1]
    match = re.fullmatch(r"best tau (\S+) f1 \S+", last)
    lo, hi = MARTIN_TAU_WINDOW
    if match is None or not lo <= float(match.group(1)) <= hi:
        return f"martin fit ends with {last!r}, expected best tau in [{lo}, {hi}]"
    return None


INVARIANTS = {
    ("magics",): _check_magics,
    ("compare", "--dataset", "martin"): _check_martin_f1,
    fit_argv("martin"): _check_martin_tau,
}


class CliChecker:
    """Golden-stdout and invariant checks for cli-mix and fit-fine commands."""

    def __init__(self, argvs):
        self.golden = {argv: read_golden(argv) for argv in argvs}
        for argv, data in self.golden.items():
            reason = INVARIANTS.get(argv, lambda _: None)(data)
            if reason is not None:
                raise ValueError(f"golden output of {' '.join(argv)} is wrong: {reason}")

    def check(self, argv, returncode, stdout):
        if returncode != 0:
            return f"exit code {returncode}"
        if stdout != self.golden[argv]:
            return "stdout differs from golden"
        return INVARIANTS.get(argv, lambda _: None)(stdout)


_REQUIRED_RE = re.compile(r"n_max\s*>=\s*(\d+)")


def sweep_outcome(scheme, records):
    """Hashable summary of a scheme-sweep result, comparable to the reference."""
    levels = tuple((lev.n, lev.l, lev.energy, cum)
                   for lev, cum in zip(scheme.levels, scheme.cumulative))
    return hash(("ok", levels, tuple((r.count, r.grade.value, r.gap) for r in records)))


def sweep_raised(exc):
    match = _REQUIRED_RE.search(str(exc))
    return hash(("raised", int(match.group(1)) if match else None))


def sweep_expected(tau, n_max, count_limit, primary_gap, secondary_gap):
    """(hashes of the acceptable outcomes, whether the scheme is under-filled)."""
    results, underfilled = reference.outcomes(tau, n_max, count_limit,
                                              primary_gap, secondary_gap)
    return frozenset(hash(r) for r in results), underfilled


def self_test(qshell):
    """Feed each checker one correct and one corrupted output.

    Returns a list of (case, caught) pairs; every corrupted case must be
    caught and every correct one passed.
    """
    cases = []
    cli = CliChecker([("magics",), fit_argv("martin")])
    magics = cli.golden[("magics",)]
    dropped = magics.replace(b"\n254\n", b"\n", 1)
    cases.append(("cli-mix: golden magics passes", cli.check(("magics",), 0, magics) is None))
    cases.append(("cli-mix: one magic dropped fails",
                  cli.check(("magics",), 0, dropped) is not None))
    fit = cli.golden[fit_argv("martin")]
    flipped = bytearray(fit)
    flipped[len(flipped) // 2] ^= 0x01
    cases.append(("fit-fine: golden martin fit passes",
                  cli.check(fit_argv("martin"), 0, fit) is None))
    cases.append(("fit-fine: one stdout byte flipped fails",
                  cli.check(fit_argv("martin"), 0, bytes(flipped)) is not None))
    cases.append(("fit-fine: exit code 1 fails",
                  cli.check(fit_argv("martin"), 1, fit) is not None))

    # n_max = 16 at tau = 0.038 with the default count limit needs n_max >= 17.
    params = qshell.ModelParameters(qshell.DeformationParameter(0.038), 1.0, 16)
    got = wrong = None
    try:
        qshell.build_scheme(params, 1520)
    except qshell.InsufficientNMaxError as exc:
        got = sweep_raised(exc)
        wrong = sweep_raised(_REQUIRED_RE.sub(
            lambda m: f"n_max >= {int(m.group(1)) + 1}", str(exc)))
    want, _ = sweep_expected(0.038, 16, 1520, 0.39, 0.30)
    cases.append(("scheme-sweep: correct suggested n_max passes", got in want))
    cases.append(("scheme-sweep: wrong suggested n_max fails",
                  got is not None and wrong not in want))
    params = qshell.ModelParameters(qshell.DeformationParameter(0.038))
    scheme = qshell.build_scheme(params, 1520)
    records = qshell.detect_shells(scheme, 0.39, 0.30)
    want, _ = sweep_expected(0.038, 24, 1520, 0.39, 0.30)
    cases.append(("scheme-sweep: default scheme passes", sweep_outcome(scheme, records) in want))
    cases.append(("scheme-sweep: one magic dropped fails",
                  sweep_outcome(scheme, records[:5] + records[6:]) not in want))
    return cases
