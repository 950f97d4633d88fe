"""Record the sha256 of report.json for each workload and seed.

Usage (from the repository root):

    python3 bench/record_golden.py 0 40

runs every workload once for each seed in range(0, 40) and writes the
hashes to bench/golden.json, which run_bench.py checks every report
against. Re-record only when a change is meant to alter report bytes, and
say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run_bench


def report_hash(satdkit, workload: run_bench.Workload, seed: int) -> str:
    with run_bench.work_dir(f"golden-{workload.name}-{seed}"):
        config, _ = run_bench.prepare(satdkit, workload, seed)
        run_dir = run_bench.run_experiment(satdkit, workload, config)
        return hashlib.sha256((run_dir / "report.json").read_bytes()).hexdigest()


def main() -> int:
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    satdkit = run_bench.import_satdkit()
    table = {
        name: {str(seed): report_hash(satdkit, workload, seed) for seed in range(first, stop)}
        for name, workload in run_bench.WORKLOADS.items()
    }
    run_bench.GOLDEN.write_text(
        json.dumps({"report_sha256": table}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
