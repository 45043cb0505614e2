"""Record the environment and a per-layer baseline of qshell.

    python3 perfbench/baseline.py

Run from the repository root; it writes perfbench/BASELINE.json.
In-process layers are timed with timeit (per call, each repeat long enough
by timeit's autorange), CLI commands and interpreter start-up as
subprocess wall times.  The numbers run.py also reports as per-layer
metrics (energy, q_bracket, start-up, import) come from run.py's own
helpers and carry its metric names.  Each number is stored with its min and
median over the repeats, next to the Python version, platform, CPU count
and the load average at start and end.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys

import checks
import workloads
from run import import_seconds, microbench, per_call, subprocess_walls

REPEATS = 5
OUT = os.path.join("perfbench", "BASELINE.json")


def _stats(values, unit, scale):
    values = [v * scale for v in values]
    return {"min": min(values), "median": statistics.median(values), "unit": unit,
            "repeats": len(values)}


def _site_import_ms(repeats, env):
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"], env=env,
                              check=True, capture_output=True, text=True, timeout=60)
        match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \| site$", proc.stderr, re.M)
        out.append(int(match.group(1)) / 1e3)
    return out


def main():
    r = REPEATS
    sys.path.insert(0, workloads.SRC)
    from qshell import (DeformationParameter, ModelParameters, build_scheme, detect_shells,
                        enumerate_levels, fit_tau, load_named_dataset, match_magics)
    from qshell.shells import MagicGrade

    load_start = os.getloadavg()
    params = ModelParameters(DeformationParameter(0.038))
    scheme = build_scheme(params)
    records = detect_shells(scheme)
    predicted = [x.count for x in records if x.grade is MagicGrade.PRIMARY]
    martin = load_named_dataset("martin")
    grid = [0.02 + 0.004 * k for k in range(11)]
    ns = dict(params=params, scheme=scheme, predicted=predicted, martin=martin, grid=grid,
              enumerate_levels=enumerate_levels, build_scheme=build_scheme,
              detect_shells=detect_shells, match_magics=match_magics,
              load_named_dataset=load_named_dataset, fit_tau=fit_tau)
    layers = {name: _stats(values, "us", 1e6) for name, values in microbench(r).items()}
    layers.update({
        "spectrum.enumerate_levels": _stats(
            per_call("enumerate_levels(params)", ns, 1, r), "ms", 1e3),
        "shells.build_scheme": _stats(
            per_call("build_scheme(params, 1520)", ns, 1, r), "ms", 1e3),
        "shells.detect_shells": _stats(
            per_call("detect_shells(scheme)", ns, 1, r), "us", 1e6),
        "empirics.match_magics": _stats(
            per_call("match_magics(predicted, martin)", ns, 1, r), "us", 1e6),
        "empirics.load_named_dataset": _stats(
            per_call("load_named_dataset('martin')", ns, 1, r), "us", 1e6),
        "empirics.fit_tau per tau point": _stats(
            per_call("fit_tau(martin, grid, 0.39, 1520)", ns, len(grid), r), "ms", 1e3),
    })

    env = workloads.child_env()
    subprocess_walls(["-c", "import qshell.cli"], 1, env)  # compile bytecode once
    startup = {
        "interp.startup_ms (python -c pass)":
            _stats(subprocess_walls(["-c", "pass"], 3 * r, env), "ms", 1e3),
        "python -S -c pass (no site)": _stats(
            subprocess_walls(["-S", "-c", "pass"], 3 * r, env), "ms", 1e3),
        "site import (-X importtime)": _stats(_site_import_ms(3 * r, env), "ms", 1),
        "cli.import_ms (import qshell.cli, timed inside)":
            _stats(import_seconds(3 * r, env), "ms", 1e3),
        "python -c 'import qshell.cli' wall (one setup_s sample)": _stats(
            subprocess_walls(["-c", "import qshell.cli"], 3 * r, env), "ms", 1e3),
    }
    cli = {" ".join(argv): _stats(subprocess_walls(["-m", "qshell", *argv], 3 * r, env),
                                  "ms", 1e3)
           for argv in checks.CLI_RUNS}
    fine = checks.fit_argv("martin")
    cli[" ".join(fine)] = _stats(subprocess_walls(["-m", "qshell", *fine], r, env), "ms", 1e3)

    record = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        "in_process_layers": layers,
        "startup": startup,
        "cli_commands": cli,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
