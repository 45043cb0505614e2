"""The three benchmark workloads: seeded inputs, timed loops, traced op lists.

cli-mix      closed loop, one client: criterion 11's 15 short CLI commands
             as subprocesses, each pass in a new seeded order.  Start-up
             and imports bound it.
fit-fine     closed loop, one client: `qshell fit` over the 4001-point grid
             0.02:0.06:0.00001 on the five experimental datasets in a
             seeded order.  Energy evaluation bounds it.
scheme-sweep in-process build_scheme + detect_shells over seeded inputs:
             tau uniform in [0.001, 0.12], count_limit log-uniform in
             [40, 10000], n_max uniform in [16, 40].  About 12% of inputs
             take the InsufficientNMaxError path.

Every op is checked; an op whose output is wrong or whose exit code is
unexpected counts as failed.  A correct InsufficientNMaxError is a success.
"""

import io
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import checks

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
PRIMARY_GAP, SECONDARY_GAP = 0.39, 0.30
DEFAULT_COUNT_LIMIT, DEFAULT_N_MAX = 1520, 24
SWEEP_POOL = 1024
CLI_TRACE_PASSES = 40


def child_env():
    """The caller's environment without PYTHON* settings and QSHELL_DATA_DIR.

    Children then import ./src, use the bundled datasets, and read and
    write bytecode caches as an installed package would.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "QSHELL_DATA_DIR"}
    env["PYTHONPATH"] = SRC
    return env


class Sample:
    """One op: wall seconds, schemes built, failure reason or None, and the
    input properties a scheme-sweep op has (see reference.py for under-filled)."""

    __slots__ = ("seconds", "schemes", "error", "nondefault", "raised", "underfilled")

    def __init__(self, seconds, schemes, error, nondefault=False, raised=False,
                 underfilled=False):
        self.seconds = seconds
        self.schemes = schemes
        self.error = error
        self.nondefault = nondefault
        self.raised = raised
        self.underfilled = underfilled


def _schemes_of(argv):
    """Level schemes a CLI command builds: one per tau point of a fit."""
    if argv[0] != "fit":
        return 1
    if argv[-1] == checks.FINE_GRID:
        return checks.FINE_POINTS
    return 5  # criterion 11's grid 0.03:0.046:0.004


class CliWorkload:
    """cli-mix and fit-fine: CLI commands, as subprocesses or in-process."""

    def __init__(self, name, rng):
        self.name = name
        self.rng = rng
        if name == "cli-mix":
            self.argvs = checks.CLI_RUNS
        else:
            self.argvs = tuple(checks.fit_argv(ds) for ds in checks.EXPERIMENTS)
        self.checker = checks.CliChecker(self.argvs)
        self.env = child_env()

    def _passes(self):
        """The commands, pass after pass, each pass in a new seeded order."""
        while True:
            order = list(self.argvs)
            self.rng.shuffle(order)
            yield from order

    def run_timed(self, seconds, between):
        """Ops until `seconds` have passed; `between()` runs after each op, untimed."""
        samples = []
        deadline = time.perf_counter() + seconds
        for argv in self._passes():
            if time.perf_counter() >= deadline:
                return samples
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "qshell", *argv], env=self.env,
                                  cwd=ROOT, capture_output=True, timeout=170)
            elapsed = time.perf_counter() - start
            between()
            error = self.checker.check(argv, proc.returncode, proc.stdout)
            if error:
                error = f"{' '.join(argv)}: {error}"
            samples.append(Sample(elapsed, _schemes_of(argv), error))

    def trace_ops(self):
        """Ops for the in-process traced run, fixed by the seed: 40 passes of
        cli-mix, or two fit-fine commands."""
        count = CLI_TRACE_PASSES * len(self.argvs) if self.name == "cli-mix" else 2
        passes = self._passes()
        return [(self._inprocess, next(passes)) for _ in range(count)]

    def _inprocess(self, argv):
        from qshell import cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        error = self.checker.check(argv, code, out.getvalue().encode())
        return f"{' '.join(argv)}: {error}" if error else None


class SweepWorkload:
    """scheme-sweep: build_scheme + detect_shells in-process."""

    name = "scheme-sweep"

    def __init__(self, rng):
        from qshell import DeformationParameter, ModelParameters

        self.inputs = _stratified_inputs(rng, SWEEP_POOL)
        self.params = [ModelParameters(DeformationParameter(tau), 1.0, n_max)
                       for tau, _, n_max in self.inputs]
        self._reference = {}

    def _op(self, i):
        """(result, raised): the library's scheme and records, or its exception."""
        # Looked up on each call, so the tracer's wrappers are used when installed.
        from qshell import InsufficientNMaxError, build_scheme, detect_shells

        try:
            scheme = build_scheme(self.params[i], self.inputs[i][1])
            records = detect_shells(scheme, PRIMARY_GAP, SECONDARY_GAP)
        except InsufficientNMaxError as exc:
            return exc, True
        return (scheme, records), False

    @staticmethod
    def _outcome(result, raised):
        return checks.sweep_raised(result) if raised else checks.sweep_outcome(*result)

    def _expected(self, i):
        if i not in self._reference:
            tau, count_limit, n_max = self.inputs[i]
            self._reference[i] = checks.sweep_expected(tau, n_max, count_limit,
                                                       PRIMARY_GAP, SECONDARY_GAP)
        return self._reference[i]

    def _verify(self, i, outcome):
        if outcome not in self._expected(i)[0]:
            tau, count_limit, n_max = self.inputs[i]
            return (f"tau={tau!r} count_limit={count_limit} n_max={n_max}: "
                    "result differs from the reference")
        return None

    def _nondefault(self, i):
        _, count_limit, n_max = self.inputs[i]
        return count_limit > DEFAULT_COUNT_LIMIT or n_max != DEFAULT_N_MAX

    def run_timed(self, seconds, between):
        # The loop cycles through the pool.  Outcomes are hashed between ops,
        # outside each op's timing, and checked against the reference after
        # the timed loop ends.  `between()` runs after each op, untimed.
        clock = time.perf_counter
        done = []
        deadline = clock() + seconds
        i = 0
        while clock() < deadline:
            start = clock()
            result, raised = self._op(i)
            elapsed = clock() - start
            done.append((i, elapsed, self._outcome(result, raised), raised))
            between()
            i = (i + 1) % len(self.inputs)
        return [Sample(elapsed, 1, self._verify(i, outcome), self._nondefault(i), raised,
                       self._expected(i)[1])
                for i, elapsed, outcome, raised in done]

    def trace_ops(self):
        for i in range(len(self.inputs)):
            self._expected(i)  # compute the reference before anything is timed
        return [(self._traced_op, i) for i in range(len(self.inputs))]

    def _traced_op(self, i):
        return self._verify(i, self._outcome(*self._op(i)))


def _stratified_inputs(rng, n):
    """n (tau, count_limit, n_max) triples, each coordinate stratified.

    Each marginal takes one value from each of n equal strata and is
    shuffled independently, so different seeds give pools with nearly the
    same distribution of scheme sizes and error-path share.
    """
    def strata(lo, hi):
        values = [lo + (k + rng.random()) * (hi - lo) / n for k in range(n)]
        rng.shuffle(values)
        return values

    taus = strata(0.001, 0.12)
    limits = [round(math.exp(x)) for x in strata(math.log(40), math.log(10000))]
    n_maxes = [16 + int(x) for x in strata(0, 25)]
    return list(zip(taus, limits, n_maxes))


def make(name, rng):
    if name == "scheme-sweep":
        return SweepWorkload(rng)
    return CliWorkload(name, rng)


WORKLOADS = ("cli-mix", "fit-fine", "scheme-sweep")
