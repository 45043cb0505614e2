"""Capture the golden stdout that the benchmark checks outputs against.

Run from the repository root, once, at the commit whose behaviour is the
contract:  python3 perfbench/capture_golden.py
Fine-fit outputs (4002 lines each) are stored gzip-compressed.
"""

import gzip
import subprocess
import sys

from checks import CLI_RUNS, EXPERIMENTS, fit_argv, golden_path
from workloads import child_env


def main():
    env = child_env()
    for argv in CLI_RUNS + tuple(fit_argv(ds) for ds in EXPERIMENTS):
        proc = subprocess.run([sys.executable, "-m", "qshell", *argv], env=env,
                              capture_output=True, check=True, timeout=170)
        path = golden_path(argv)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = proc.stdout
        if path.suffix == ".gz":
            data = gzip.compress(data, compresslevel=9, mtime=0)
        path.write_bytes(data)
        print(f"{path.name}: {len(proc.stdout)} bytes")


if __name__ == "__main__":
    main()
