"""One digest of `krt run`'s results per benchmark workload and arm.

    PYTHONPATH=src python3 tests/identity.py   # about 6 s on a 2-core Xeon

For each workload of `perfbench/workloads.py` and each arm of
`krt.cli._ARM_TABLE`, the script runs the workload's guard config (its
pinned data seed and guard size) with that arm, in this process, and prints
one line: workload, arm and the sha256 of the run's `results.json` without
`wall_clock_sec`, `config.out` and `environment`, which change from run to
run or machine to machine while the results do not. An arm that requires a
rehearsal buffer gets `BUFFER` where the workload has none, and an arm that
forbids one runs without it.

Run it on two trees at one OpenBLAS thread count (`OPENBLAS_NUM_THREADS`)
and diff the outputs: a change that keeps every arm's results bit for bit
prints the same lines. pytest does not collect it (its name does not start
with `test_`); the tier-1 CLI tests hold guard-size runs to equal results
across BLAS thread counts.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import tempfile
from pathlib import Path

from krt import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
BUFFER = {"per_class": 5}  # incr_small's


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def arm_config(config: dict, arm: str) -> dict:
    """config run as `arm`: with `BUFFER` where the arm requires a buffer, with no buffer where it forbids one."""
    config = {**config, "arm": arm}
    need = cli._ARM_TABLE[arm][3]
    if need == "forbid":
        config.pop("buffer", None)
    elif need == "require":
        config.setdefault("buffer", BUFFER)
    return config


def digest(results: Path) -> str:
    result = json.loads(results.read_text())
    del result["wall_clock_sec"], result["environment"], result["config"]["out"]
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def main() -> None:
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            for arm in cli._ARM_TABLE:
                out = Path(tmp) / name / arm
                cli.run(cli.parse_config(arm_config(workloads.guard_config(name, str(out)), arm)))
                print(name, arm, digest(out / "results.json"), flush=True)


if __name__ == "__main__":
    main()
