"""Record the traced per-layer numbers of the checked-out program.

    python3 perfbench/baseline.py

Runs ``run.py --trace 1`` once per workload of BENCHMARK.json (seed 1) and writes
``perfbench/baseline.json``: the environment (Python version, usable CPUs,
the commit of ``src/``) and every per-layer metric of each workload, so a
later change can compare its traced run layer by layer.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1


def main() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=HERE.parent, capture_output=True, text=True
    ).stdout.strip()
    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit or "unknown",
        },
        "seed": SEED,
        "seconds": bench["run_seconds"],
        "per_layer": {},
    }
    for workload in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", str(SEED), "--seconds", str(bench["run_seconds"]), "--trace", "1"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload['name']}: outputs failed the correctness gate")
        record["per_layer"][workload["name"]] = {
            name: metric["value"] for name, metric in sorted(result["metrics"].items())
        }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
