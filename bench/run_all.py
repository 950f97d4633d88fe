"""Run every benchmark workload, one fresh process each, and print their results.

Usage (from the repository root):

    python3 bench/run_all.py --seed 1 --seconds 30 --trace 0

Each workload's own output is passed through; the exit code is the first
non-zero one, or 0.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from run_bench import WORKLOADS

RUN_BENCH = Path(__file__).resolve().parent / "run_bench.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN_BENCH), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
