"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fit-fine --seeds 1-10

Each run is untraced and lasts BENCHMARK.json's run_seconds.  For each
end-to-end metric: the median, the quartiles (statistics.quantiles, n=4) and
the spread, the distance between the quartiles as a share of the median,
next to the bound BENCHMARK.json fixes for it.  Runs one seed at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def _seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a range such as 101-110")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in _seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        load = os.getloadavg()[0]
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} load {load:.2f} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
              + (f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})" if bound else ""))


if __name__ == "__main__":
    sys.exit(main())
