"""Benchmark command: run one workload in a fresh child process.

    python3 benchmark/run.py --workload grid_paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository. The child imports the
package from ``src/`` of that checkout, with BLAS and OpenMP pinned to one
thread, so its peak resident memory and its timings are its own. Everything
the child prints is passed on; the last line is the JSON result. Without the
package sources next to this directory the command fails before measuring.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_paper", "grid_arms", "estimate_sweep")
CHILD_TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "labelshift" / "__init__.py").is_file():
        print(f"error: no package sources at {src}/labelshift", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(src))
    env.update((name, "1") for name in PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"error: {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: {args.workload} exited {child.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
