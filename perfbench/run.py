"""Benchmark of crystalposets: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {certify,whole_crystal,interval_queries} \
        --seed N --seconds S --trace 0|1

Run it from anywhere; it uses the checkout it lives in and imports the
library straight from ``src/``.  Each workload runs single-threaded in a
fresh interpreter (``workloads.py``) that repeats the workload's fixed work
while another pass fits into ``--seconds``.  End-to-end metrics:

- ``setup_s``: process start to inputs ready (interpreter start, import,
  seeded input generation); median over SETUPS set-up-only processes and
  the measuring one.
- ``wall_s``: one pass of the fixed work; median over the passes.
- ``query_p50_ms``, ``query_p99_ms``: median and nearest-rank p99 request
  latency, each request taking its best time over the passes.  A request
  is one (u, v) query in ``interval_queries``; ``certify`` and
  ``whole_crystal`` are a single request each, so both read its latency.
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.
- ``failed_ratio`` (report only; it is 0 when the outputs are right):
  operations that raised or failed the workload's correctness gate, over
  operations attempted.  The JSON line carries it as ``failed`` and
  ``attempted``.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
BENCHMARK.json, per pass, from a traced run, plus ``trace.overhead_s``, the
traced minus the untraced wall time of the same inputs.  The lines before it
are the same numbers for people, with units and sample counts.  Spans of a
traced run are written to ``.bench_out/`` in the checkout.  Exit code 2
means the benchmark could not run; a run whose outputs were wrong still
prints its result, with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 2  # set-up-only processes per untraced run
DEADLINE_S = 170.0  # the whole run, all processes included


def _child(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start one workload process; return its start time and its result."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return started, json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "crystalposets" / "__init__.py").is_file():
        print(f"no crystalposets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            _, plain = _child(args, ["--trace", "0"], deadline)
            _, result = _child(args, ["--trace", "1"], deadline)
        else:
            setups = []
            for _ in range(SETUPS):
                started, ready = _child(args, ["--setup-only"], deadline)
                setups.append(ready["ready"] - started)
            started, result = _child(args, ["--trace", "0"], deadline)
            setups.append(result["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark did not complete: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    if args.trace:  # the untraced run that sets the overhead's baseline counts too
        attempted, failed = attempted + plain["attempted"], failed + plain["failed"]
    walls = result["walls"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    if args.trace:
        measured = dict(result["layers"], **result["properties"])
        measured["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain["walls"])
        declared = bench["per_layer"]
        rows = [(m["name"], measured.get(m["name"], 0.0), m["unit"], "per pass") for m in declared]
    else:
        queries = result["query_samples"]
        measured = {
            "setup_s": (statistics.median(setups), f"n={len(setups)} processes, median"),
            "wall_s": (statistics.median(walls), f"n={len(walls)} passes, median"),
            "query_p50_ms": (result["query_p50_ms"], queries),
            "query_p99_ms": (result["query_p99_ms"], queries),
            "peak_rss_mb": (result["peak_rss_mb"], "n=1 process"),
        }
        declared = bench["end_to_end"]
        rows = [(m["name"], measured[m["name"]][0], m["unit"], measured[m["name"]][1]) for m in declared]
    for name, value, unit, note in rows:
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    print(f"  {'failed_ratio':<32} {failed / attempted:>14.6g} {'':<6} {failed}/{attempted} operations")
    if result["properties"] and not args.trace:
        print("  properties: " + "  ".join(f"{k}={v:.6g}" for k, v in sorted(result["properties"].items())))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
