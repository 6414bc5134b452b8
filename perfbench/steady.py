"""Run every workload, print each end-to-end metric, and measure its spread.

    python3 perfbench/steady.py                      # each workload once, seed 0
    python3 perfbench/steady.py --seeds 10 --record perfbench/steadiness.json

Each (workload, seed) pair is one `perfbench/run.py --trace 0` process,
run one after another. The table gives, per workload and metric, the
median over the seeds and the spread: the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound from BENCHMARK.json. The exit code is
1 if any run failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from env import blas_threads, pin_blas_threads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    info = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench-info "):
            info = json.loads(line.split(" ", 1)[1])
        elif line.strip():
            print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    result["correct"] = result["correct"] and proc.returncode == 0
    return {"seed": seed, **result, "info": info}


def environment() -> dict:
    pin_blas_threads()  # as run.py does, so the count read below is the runs' count
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "processes": "one benchmark process at a time",
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1, help="seeds 0..N-1 per workload")
    parser.add_argument("--record", help="write the runs, spreads and environment as JSON here")
    args = parser.parse_args(argv)
    metrics = spec["end_to_end"]

    seconds = spec["run_seconds"]
    record = {"environment": environment(), "seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.seeds):
            runs.append(run_one(workload, seed, seconds))
        all_correct &= all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} seeds, sessions attempted {attempted}, failed {failed}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<20} {'unit':<14} {'median':>12} {'spread':>8} {'bound':>6}")
        summary = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if not values:
                print(f"  {m['name']:<20} {m['unit']:<14} {'missing':>12}")
                continue
            med, spr = statistics.median(values), spread(values)
            summary[m["name"]] = {"median": med, "spread": spr, "bound": m["bound"]}
            print(f"  {m['name']:<20} {m['unit']:<14} {med:>12.4f} {spr:>8.4f} {m['bound']:>6.2f}")
        record["workloads"][workload] = {"runs": runs, "summary": summary}

    print(f"\n  {'metric':<20} {'max spread':>10} {'3x, rounded up':>15} {'bound':>6}")
    record["bounds"] = {}
    for m in metrics:
        spreads = [w["summary"][m["name"]]["spread"] for w in record["workloads"].values()
                   if m["name"] in w["summary"]]
        worst = max(spreads, default=0.0)
        wanted = math.ceil(300 * worst) / 100
        record["bounds"][m["name"]] = {"max_spread": worst, "three_times": wanted, "bound": m["bound"]}
        print(f"  {m['name']:<20} {worst:>10.4f} {wanted:>15.2f} {m['bound']:>6.2f}")

    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
