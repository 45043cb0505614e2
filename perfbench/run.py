"""qshell benchmark: end-to-end metrics, or per-layer metrics from a trace.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Run it from the repository root; it runs the qshell sources under ./src.
Workloads are described in workloads.py.  With --trace 0 it measures the
end-to-end metrics untraced: set-up time, sampled between ops across the
timed window, and p90 op latency; it also prints the median op latency
and the schemes built per second.  With --trace 1 it runs the workload's ops in-process three times: untraced, with spans, and with call
counters (see tracer.py), and reports per-layer metrics; the trace
overhead compares the span pass with the untraced one.  Every op's output
is checked.  Human-readable lines come first; the last line of stdout is
one JSON object with correct, attempted, failed and metrics.  --self-test
only runs the checkers' self-test.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
import timeit

import checks
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 21
STARTUP_REPEATS = 15
MICRO_REPEATS = 5
TRACE_CHUNKS = 8

# Only set-up time and p90 are metrics; the median op time and the rate are
# printed.  On a machine that switches between a fast and a slow state
# every 10 s to several minutes, the median of a 30 s run jumps with the
# share of time spent in each state and a rate moves with that share, while
# p90 stays in the slow state, which almost every run visits.
END_TO_END = {
    "setup_s": "s",
    "p90_ms": "ms",
}


def subprocess_walls(args, repeats, env):
    """Wall seconds of each of `repeats` runs of `python3 <args>`."""
    # Output goes to a pipe: with no pipe to select on, waiting with a
    # timeout polls and rounds the wall time up to steps of up to 50 ms.
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], env=env, cwd=workloads.ROOT,
                       check=True, capture_output=True, timeout=170)
        walls.append(time.perf_counter() - start)
    return walls


def import_seconds(repeats, env):
    """`import qshell.cli` timed inside each of `repeats` fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import qshell.cli; "
            "print(repr(time.perf_counter() - t))")
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=workloads.ROOT,
                              check=True, capture_output=True, timeout=170)
        out.append(float(proc.stdout))
    return out


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


class SetupSampler:
    """Times `repeats` fresh `import qshell.cli` runs spread over the timed window.

    Called between ops, it takes a run whenever one is due, so the median
    sees the machine in the same states as the ops do.
    """

    def __init__(self, seconds, repeats, env):
        self.step = seconds / repeats
        self.repeats = repeats
        self.env = env
        self.walls = []
        self.next_at = time.perf_counter()

    def __call__(self):
        while len(self.walls) < self.repeats and time.perf_counter() >= self.next_at:
            self.walls += subprocess_walls(["-c", "import qshell.cli"], 1, self.env)
            self.next_at += self.step

    def finish(self):
        """The median wall, after taking any runs still missing."""
        self.walls += subprocess_walls(["-c", "import qshell.cli"],
                                       self.repeats - len(self.walls), self.env)
        return statistics.median(self.walls)


def end_to_end(workload, seconds):
    env = workloads.child_env()
    subprocess_walls(["-c", "import qshell.cli"], 1, env)  # compile bytecode once
    setup = SetupSampler(seconds, SETUP_REPEATS, env)
    samples = workload.run_timed(seconds, setup)
    walls = [s.seconds for s in samples]
    metrics = {
        "setup_s": setup.finish(),
        "p90_ms": _p90(walls) * 1e3,
    }
    notes = {
        "ops timed": len(samples),
        "p50 ms": statistics.median(walls) * 1e3,
        "schemes per s": sum(s.schemes for s in samples) / sum(walls),
        "set-up repeats": SETUP_REPEATS,
    }
    if workload.name == "scheme-sweep":
        notes.update({
            "error-path share": sum(s.raised for s in samples) / len(samples),
            "nondefault share (count_limit > 1520 or n_max != 24)":
                sum(s.nondefault for s in samples) / len(samples),
            "under-filled share (accepted, see reference.py)":
                sum(s.underfilled for s in samples) / len(samples),
        })
    errors = [s.error for s in samples if s.error]
    return metrics, END_TO_END, len(samples), errors, notes


def per_call(stmt, namespace, calls, repeats):
    """Seconds per call, one value per timeit repeat; stmt makes `calls` calls."""
    timer = timeit.Timer(stmt, globals=namespace)
    number, _ = timer.autorange()
    return [t / (number * calls) for t in timer.repeat(repeat=repeats, number=number)]


def microbench(repeats):
    """Seconds per `energy` and per `q_bracket` call, one value per repeat,
    over every (n, l) of the default scheme and its q-bracket arguments."""
    from qshell import DeformationParameter, ModelParameters, allowed_l, energy, q_bracket

    params = ModelParameters(DeformationParameter(0.038))
    pairs = [(n, l) for n in range(params.n_max + 1) for l in allowed_l(n)]
    xs = [float(x) for x in range(params.n_max + 2)]
    namespace = {"energy": energy, "q_bracket": q_bracket, "p": params,
                 "d": params.deformation, "pairs": pairs, "xs": xs}
    return {
        "spectrum.energy.us":
            per_call("for n, l in pairs: energy(n, l, p)", namespace, len(pairs), repeats),
        "qmath.q_bracket.us":
            per_call("for x in xs: q_bracket(x, d)", namespace, len(xs), repeats),
    }


def _run_ops(ops, tracer=None, first_id=0):
    errors = []
    start = time.perf_counter()
    for op_id, (fn, arg) in enumerate(ops, start=first_id):
        error = fn(arg) if tracer is None else tracer.op(op_id, fn, arg)
        if error:
            errors.append(error)
    return time.perf_counter() - start, errors


def per_layer(workload, seed):
    env = workloads.child_env()
    startup = statistics.median(subprocess_walls(["-c", "pass"], STARTUP_REPEATS, env)) * 1e3
    import_ms = statistics.median(import_seconds(STARTUP_REPEATS, env)) * 1e3
    micro = {name: statistics.median(values) * 1e6
             for name, values in microbench(MICRO_REPEATS).items()}
    ops = workload.trace_ops()
    # Untraced and span-traced runs alternate chunk by chunk, so a change in
    # machine speed between them does not show up as tracing overhead.
    tracer = Tracer()
    untraced = traced = 0.0
    errors = []
    size = -(-len(ops) // TRACE_CHUNKS)
    for lo in range(0, len(ops), size):
        chunk = ops[lo:lo + size]
        wall, more_errors = _run_ops(chunk)
        untraced += wall
        errors += more_errors
        tracer.install_spans()
        try:
            wall, more_errors = _run_ops(chunk, tracer, first_id=lo)
        finally:
            tracer.uninstall()
        traced += wall
        errors += more_errors
    counter = Tracer()
    counter.install_counters()
    try:
        _, more_errors = _run_ops(ops)
    finally:
        counter.uninstall()
    errors += more_errors

    totals = tracer.totals()
    n_ops = len(ops)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[2] * 1e3 / n_ops

    schemes = calls("shells.build_scheme")
    fits = calls("empirics.fit_tau")
    metrics = {
        "interp.startup_ms": (startup, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.parse_args.ms": (self_ms("cli.parse_args"), "ms/op"),
        "cli.run.self_ms": (self_ms("cli.run"), "ms/op"),
        "shells.render_table.self_ms": (self_ms("shells.render_table"), "ms/op"),
        "spectrum.enumerate_levels.calls":
            (calls("spectrum.enumerate_levels") / n_ops, "calls/op"),
        "spectrum.enumerate_levels.self_ms": (self_ms("spectrum.enumerate_levels"), "ms/op"),
        "spectrum.energy.calls": (counter.calls["spectrum.energy"] / schemes, "calls/scheme"),
        "qmath.q_bracket.calls": (counter.calls["qmath.q_bracket"] / schemes, "calls/scheme"),
        "spectrum.energy.us": (micro["spectrum.energy.us"], "us"),
        "qmath.q_bracket.us": (micro["qmath.q_bracket.us"], "us"),
        "shells.build_scheme.calls": (schemes / n_ops, "calls/op"),
        "shells.build_scheme.self_ms": (self_ms("shells.build_scheme"), "ms/op"),
        "shells.build_scheme.kept_ratio": (tracer.levels_kept / tracer.levels_enumerated, "ratio"),
        "shells.build_scheme.enumerations_per_call":
            (calls("spectrum.enumerate_levels") / schemes, "ratio"),
        "shells.build_scheme.raised":
            (tracer.raised[("shells.build_scheme", "InsufficientNMaxError")] / schemes, "share"),
        "shells.detect_shells.self_ms": (self_ms("shells.detect_shells"), "ms/op"),
        "empirics.load_named_dataset.self_ms": (self_ms("empirics.load_named_dataset"), "ms/op"),
        "empirics.match_magics.self_ms": (self_ms("empirics.match_magics"), "ms/op"),
        "empirics.fit_tau.self_ms": (self_ms("empirics.fit_tau"), "ms/op"),
        "empirics.fit_tau.points": (tracer.fit_points / fits if fits else 0.0, "points/call"),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{workload.name}-seed{seed}.spans.jsonl")
    tracer.write(spans_path, {"workload": workload.name, "seed": seed, "ops": n_ops,
                              "fields": ["id", "name", "start_us", "end_us", "parent", "op"]})
    notes = {
        "ops traced": n_ops,
        "untraced wall s": untraced,
        "traced wall s": traced,
        "spans": len(tracer.spans),
        "spans file": os.path.relpath(spans_path, workloads.ROOT),
        "energy calls": counter.calls["spectrum.energy"],
        "q_bracket calls": counter.calls["qmath.q_bracket"],
        "levels kept / enumerated": f"{tracer.levels_kept}/{tracer.levels_enumerated}",
    }
    values = {name: value for name, (value, _) in metrics.items()}
    units = {name: unit for name, (_, unit) in metrics.items()}
    return values, units, 3 * n_ops, errors, notes


def self_test_or_exit(qshell, verbose):
    cases = checks.self_test(qshell)
    for case, ok in cases:
        if verbose or not ok:
            print(f"self-test {'ok  ' if ok else 'FAIL'} {case}",
                  file=sys.stdout if verbose else sys.stderr)
    if not all(ok for _, ok in cases):
        sys.exit("perfbench: checker self-test failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the checkers' self-test and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(workloads.SRC, "qshell", "cli.py")):
        sys.exit("perfbench: no qshell sources under ./src; run from the repository root")
    sys.path.insert(0, workloads.SRC)
    import qshell

    self_test_or_exit(qshell, verbose=args.self_test)
    if args.self_test:
        return

    load_start = os.getloadavg()
    workload = workloads.make(args.workload, random.Random(args.seed))
    if args.trace:
        values, units, attempted, errors, notes = per_layer(workload, args.seed)
    else:
        values, units, attempted, errors, notes = end_to_end(workload, args.seconds)
    load_end = os.getloadavg()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {sys.version.split()[0]} nproc {os.cpu_count()}")
    print(f"load average start {load_start[0]:.2f} end {load_end[0]:.2f}")
    for key, value in notes.items():
        print(f"{key}: {value:.4g}" if isinstance(value, float) else f"{key}: {value}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed {len(errors)} of {attempted} ops (fail ratio {len(errors) / attempted:.4g})")
    for error in errors[:10]:
        print(f"FAILED {error}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
