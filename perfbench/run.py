"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload incr_small --seed 0 --seconds 40 --trace 0

Run from a source checkout: `krt` is imported from `src/` next to this
directory, and each measured run calls `krt.cli.run` in this process.

`--trace 0` measures the end-to-end metrics. The process runs the
workload once on each of its data sets (`workloads.data_seeds`) and keeps
cycling through them while another run fits in `--seconds`, with only
session and step boundaries wrapped. Before the first run and after each
run it probes set-up (a run stopped at its first session) for `setup_s`,
in batches that together take about a tenth of `--seconds`. `--trace 1` does the same
with pairs of an untraced and a fully traced run, and reports the
per-layer metrics averaged over the traced runs, plus `trace.overhead_s`.

Every session is checked (see `probe.check_run`); runs on the same data
must agree exactly, also when one of them is traced. After the measured
stretch, either mode runs the workload's accuracy guard (`guard.py`),
whose mAPs must not fall below the pinned ones. The last line of
stdout is
`{"correct", "attempted", "failed", "metrics"}`; the exit code is 1 when
`correct` is false, and non-zero without a result when `src/krt` is absent.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from env import blas_threads, pin_blas_threads
from workloads import WORKLOADS, data_seeds, run_config

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SHARE = 0.1  # of --seconds, spent on set-up probes
SETUP_MIN = 4  # probes per batch


def metric_units(trace: bool) -> dict:
    """Name -> unit of every metric BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_krt():
    src = ROOT / "src"
    if not (src / "krt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no krt package under {src}; run from a source checkout")
    pin_blas_threads()
    sys.path.insert(0, str(src))


def _agree(samples) -> list:
    """Problems if two runs on the same data did not give identical results."""
    first = {}
    for s in samples:
        if s.aggregates is None:
            continue
        ref = first.setdefault(s.seed, s)
        if s.aggregates != ref.aggregates or s.sessions != ref.sessions:
            return [f"two runs with seed {s.seed} gave different results"]
    return []


def _configs(name: str, seed: int) -> list:
    import krt.cli as krt_cli

    out = str(OUT / f"{name}-{os.getpid()}")
    return [krt_cli.parse_config(run_config(name, s, out)) for s in data_seeds(name, seed)]


def _repeat(configs, seconds: float, run):
    """Call `run(cfg)` once per config, then cycle through them while another call fits."""
    deadline = perf_counter() + seconds
    results, longest = [], 0.0
    while len(results) < len(configs) or perf_counter() + longest <= deadline:
        t0 = perf_counter()
        results.append(run(configs[len(results) % len(configs)]))
        longest = max(longest, perf_counter() - t0)
    return results


def measure_e2e(name: str, seed: int, seconds: float):
    import probe

    sessions = WORKLOADS[name]["sessions"]
    configs = _configs(name, seed)
    t0 = perf_counter()
    # set-up is probed in batches spread over the stretch, one before the
    # first run and one after each run: the machine's speed drifts over
    # seconds, and one burst of probes would sample a single moment of it
    batch_s = SETUP_SHARE * seconds / (len(configs) + 1)
    setups = []

    def probe_setup(cfg):
        deadline = perf_counter() + batch_s
        for i in itertools.count():
            if i >= SETUP_MIN and perf_counter() >= deadline:
                return
            setups.append(probe.measure_setup(cfg))

    def run(cfg):
        sample = probe.run_once(cfg, probe.BOUNDARY, sessions)[0]
        probe_setup(cfg)
        return sample

    probe_setup(configs[0])

    samples = _repeat(configs, seconds - (perf_counter() - t0), run)

    problems = [p for s in samples for p in s.problems] + _agree(samples)
    ok = [s for s in samples if s.aggregates is not None]
    if len(ok) < len(samples):
        return samples, problems, {}, {"runs": len(samples)}
    gaps_ms = [1e3 * g for s in ok for session in s.step_gaps_s for g in session]
    session_medians = [statistics.median(session) for s in ok for session in s.step_gaps_s if session]
    distinct = ok[: len(configs)]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(s.run_s for s in ok),
        "train_items_per_s": statistics.median(s.train_items / s.train_s for s in ok),
        "step_ms_p50": 1e3 * statistics.median(session_medians),
        "step_ms_p90": probe.percentile(gaps_ms, 90),
        "eval_images_per_s": statistics.median(s.eval_images / s.eval_s for s in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "avg_map": statistics.fmean(s.aggregates["avg_map"] for s in distinct),
        "last_map": statistics.fmean(s.aggregates["last_map"] for s in distinct),
    }
    p90 = metrics["step_ms_p90"]
    info = {
        "runs": len(samples),
        "blas_threads": blas_threads(),
        "data_seeds": [c.seed for c in configs],
        "setup_samples": len(setups),
        "step_samples": len(gaps_ms),
        "step_samples_beyond_p90": sum(g > p90 for g in gaps_ms),
        "step_session_medians": len(session_medians),
    }
    return samples, problems, metrics, info


def measure_trace(name: str, seed: int, seconds: float):
    import probe

    sessions = WORKLOADS[name]["sessions"]
    # a name gone from krt makes the tracer raise KeyError: the run fails
    # without a result instead of reporting a layer of zeros
    traced = probe.BOUNDARY + probe.LAYERS

    # alternate which run of a pair goes first, so warm-up and drift do not
    # land on one side of trace.overhead_s
    traced_first = itertools.cycle((False, True))

    def pair(cfg):
        first = next(traced_first)
        if first:
            sample, tracer = probe.run_once(cfg, traced, sessions)
        plain = probe.run_once(cfg, probe.BOUNDARY, sessions)[0]
        if not first:
            sample, tracer = probe.run_once(cfg, traced, sessions)
        return plain, sample, probe.layer_metrics(tracer, sample)

    pairs = _repeat(_configs(name, seed), seconds, pair)

    samples = [s for p in pairs for s in p[:2]]
    problems = [p for s in samples for p in s.problems] + _agree(samples)
    per_run = [p[2] for p in pairs]
    metrics = {key: statistics.fmean(m[key] for m in per_run) for key in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(p[1].run_s for p in pairs) - statistics.median(
        p[0].run_s for p in pairs
    )
    return samples, problems, metrics, {"runs": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_krt()

    import guard

    measure = measure_trace if args.trace else measure_e2e
    samples, problems, values, info = measure(args.workload, args.seed, args.seconds)
    guard_out = str(OUT / f"{args.workload}-{os.getpid()}-guard")
    guard_sample = guard.run_guard(args.workload, guard_out)
    samples.append(guard_sample)
    problems += guard_sample.problems + guard.check(args.workload, guard_sample.aggregates)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    units = metric_units(bool(args.trace))
    missing_metrics = sorted(set(units) - set(values))
    if missing_metrics:
        problems.append(f"metrics not measured: {missing_metrics}")
    correct = failed == 0 and not problems
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench-info {json.dumps(info, sort_keys=True)}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
