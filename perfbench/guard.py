"""The accuracy guard: each workload's config on pinned data, against pinned mAPs.

    python3 perfbench/guard.py > perfbench/reference.json   # re-pin from the current code

A workload's `avg_map` and `last_map` are exact for a seed but differ
between seeds by more than a bound may allow (up to 15% on `incr_paper`),
so their bounds in BENCHMARK.json cannot catch a small accuracy loss. The
guard can. Every `run.py` invocation also runs the workload's config at its
`guard` size on data from `workloads.GUARD_SEED`, whatever `--seed` is;
the invocation is incorrect if the guard's `avg_map` or `last_map` moves
away from its value in `reference.json` by more than `TOLERANCE` of that
value, in either direction: the benchmark times code whose results must
not change. The tolerance leaves room for floating-point reordering (such
as an online softmax), not for a changed model. Scaling ICA's attention
logits by 1 + 1e-6 left every guard mAP bit-identical, and by 1.001 moved
them by at most 0.3%. Zeroing the gradient of `softmax_rows` moved one
mAP of every workload by 0.57% to 10%, and so fails the guard.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS, guard_config

REFERENCE = Path(__file__).resolve().with_name("reference.json")
TOLERANCE = 0.005
KEYS = ("avg_map", "last_map")


def check(name: str, aggregates) -> list:
    """Problems if `aggregates` differ from workload `name`'s pinned mAPs."""
    if aggregates is None:  # the guard run failed; its sessions count that
        return []
    pinned = json.loads(REFERENCE.read_text())[name]
    return [
        f"accuracy guard: {key} {aggregates[key]:.4f} is more than {TOLERANCE:.1%} "
        f"away from the pinned {pinned[key]:.4f}"
        for key in KEYS
        if abs(aggregates[key] - pinned[key]) > TOLERANCE * pinned[key]
    ]


def run_guard(name: str, out: str):
    """One checked run (a `probe.RunSample`) of workload `name`'s guard."""
    import krt.cli as krt_cli
    import probe

    cfg = krt_cli.parse_config(guard_config(name, out))
    return probe.run_once(cfg, probe.BOUNDARY, WORKLOADS[name]["sessions"])[0]


def main() -> int:
    from run import OUT, import_krt

    import_krt()
    pinned = {}
    for name in WORKLOADS:
        sample = run_guard(name, str(OUT / f"guard-{name}"))
        if sample.failed or sample.problems:
            print(f"guard {name}: {sample.problems}", file=sys.stderr)
            return 1
        pinned[name] = {key: sample.aggregates[key] for key in KEYS}
    print(json.dumps(pinned, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
