"""The pinned benchmark workloads.

Each workload is a `krt run` config without `seed` and `out`; the
benchmark adds the master seed from `--seed` and a scratch output
directory. No config sets `dataset.seed`, so the data is derived from the
master seed. Runs are sized with `n_train`, `n_test` and `epochs` only;
the arm, the shape, the grid and the session count define what each
workload stresses and stay fixed.

One invocation runs the workload on `datasets` data sets, each from its
own master seed derived from `--seed`, so that its figures average over
data instead of resting on one draw; see `data_seeds`.

Each workload also has a `guard` size: its config on pinned data
(`GUARD_SEED`, whatever `--seed` is) at that size, whose mAPs are pinned in
`reference.json`; see `guard.py`.
"""

_DEFAULT_SHAPE = {"n_classes": 20, "grid_h": 8, "grid_w": 8, "channels": 8}
GUARD_SEED = 7

_PAPER_SHAPE = {"n_classes": 40, "grid_h": 14, "grid_w": 14, "channels": 8}

WORKLOADS = {
    "incr_small": {
        "why": "krt_r with a per-class buffer on the default d=32 shape, 4 sessions, 3 epochs: "
        "per-op Python overhead, the per-epoch frozen teacher, DPL exclude sets and buffer updates",
        "sessions": 4,
        "datasets": 4,
        "guard": {"n_train": 160, "n_test": 100, "epochs": 1},
        "config": {
            "arm": "krt_r",
            "buffer": {"per_class": 5},
            "dataset": {**_DEFAULT_SHAPE, "n_train": 600, "n_test": 200},
            "plan": {"base": 0, "inc": 5},
            "ica": {"d": 32, "heads": 4},
            "batch_size": 16,
            "epochs": 3,
        },
    },
    "incr_paper": {
        "why": "krt on the paper shape (40 classes, 14x14, d=128, 8 sessions): ICA cost grows with "
        "the session count, DPL scores 40 classes over 7 walks, eval covers a growing test union",
        "sessions": 8,
        "datasets": 1,
        "guard": {"n_train": 48, "n_test": 40, "epochs": 1},
        "config": {
            "arm": "krt",
            "dataset": {**_PAPER_SHAPE, "n_train": 172, "n_test": 120},
            "plan": {"base": 0, "inc": 5},
            "ica": {"d": 128, "heads": 8},
            "batch_size": 16,
            "epochs": 4,
        },
    },
    "joint": {
        "why": "upper_bound on the paper shape, one session with all 40 classes: no teacher, DPL or "
        "token loss, ICA at t=1; the bypass workload for teacher, DPL and fused-attention changes",
        "sessions": 1,
        "datasets": 6,
        "guard": {"n_train": 80, "n_test": 100, "epochs": 1},
        "config": {
            "arm": "upper_bound",
            "dataset": {**_PAPER_SHAPE, "n_train": 400, "n_test": 200},
            "ica": {"d": 128, "heads": 8},
            "batch_size": 16,
            "epochs": 2,
        },
    },
}


def data_seeds(name: str, seed: int) -> list:
    """The master seeds of the data sets workload `name` runs for `--seed seed`."""
    return [1000 * seed + k for k in range(WORKLOADS[name]["datasets"])]


def run_config(name: str, seed: int, out: str) -> dict:
    """The raw `krt run` config of workload `name` for master seed `seed`."""
    return {**WORKLOADS[name]["config"], "seed": seed, "out": out}


def guard_config(name: str, out: str) -> dict:
    """The raw `krt run` config of workload `name`'s accuracy guard."""
    config, size = WORKLOADS[name]["config"], WORKLOADS[name]["guard"]
    dataset = {**config["dataset"], "n_train": size["n_train"], "n_test": size["n_test"]}
    return {**config, "dataset": dataset, "epochs": size["epochs"], "seed": GUARD_SEED, "out": out}
