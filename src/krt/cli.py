"""Experiment runner.

`krt run` executes one full incremental run for one method arm and writes
results.json / summary.csv / curves.tsv into the output directory.
`krt compare` tabulates several results files of the same plan.
`krt dpl` runs the pseudo-labeler standalone over a score CSV + label JSONL.

Config is strict JSON (unknown keys rejected, errors carry field paths);
any field can be overridden with --set key.path=value, and the common ones
have dedicated flags. Precedence: flags > config file > defaults.
Exit codes: 0 ok, 2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ._version import VERSION
from .datagen import DatasetFormatError, GenSpec, generate, load_dataset
from .dpl import (
    DplConfig,
    dynamic_threshold_search,
    merge_labels,
    read_labels_jsonl,
    read_score_csv,
    session_target,
    write_merged_jsonl,
)
from .ica import IcaConfig
from .losses import LossConfig
from .metrics import MetricsRecord, aggregate
from .protocol import ArmFlags, SessionPlan, TrainConfig, assign_examples, build_plan, run_incremental
from .seeds import substream_seed

log = logging.getLogger("krt")

ARMS = ("ft", "er", "kd_baseline", "krt", "krt_r", "krt_no_dpl", "krt_no_ica", "upper_bound")

# arm -> (use_dpl, use_ica, use_kd, buffer requirement: "forbid"|"require"|"allow")
_ARM_TABLE = {
    "ft": (False, False, False, "forbid"),
    "er": (False, False, False, "require"),
    "kd_baseline": (False, False, True, "allow"),
    "krt": (True, True, False, "forbid"),
    "krt_r": (True, True, False, "require"),
    "krt_no_dpl": (False, True, False, "allow"),
    "krt_no_ica": (True, False, False, "allow"),
    "upper_bound": (False, True, False, "forbid"),
}


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: dict = field(default_factory=lambda: GenSpec().to_dict())
    dataset_paths: dict = None  # {"train_path", "test_path"} alternative
    base: int = 0
    inc: int = 5
    arm: str = "krt"
    buffer: tuple = ("none",)
    ica: IcaConfig = field(default_factory=lambda: IcaConfig(d=32, heads=4))
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out: str = "runs/out"

    def flags(self) -> ArmFlags:
        use_dpl, use_ica, use_kd, _ = _ARM_TABLE[self.arm]
        return ArmFlags(use_dpl=use_dpl, use_ica=use_ica, use_kd=use_kd, buffer_policy=self.buffer)

    def echo(self) -> dict:
        """The config as `parse_config` reads it back."""
        train, loss, dpl = self.train, self.train.loss, self.train.dpl
        return {
            "dataset": self.dataset_paths or self.dataset,
            "plan": {"base": self.base, "inc": self.inc},
            "arm": self.arm,
            "buffer": None if self.buffer[0] == "none" else {self.buffer[0]: self.buffer[1]},
            "loss": {
                "lambda": loss.lam,
                "gamma_pos": loss.gamma_pos,
                "gamma_neg": loss.gamma_neg,
                "neg_margin": loss.neg_margin,
            },
            "dpl": {
                "eta0": dpl.eta_init,
                "mu": dpl.mu,
                "eta_step": dpl.eta_step,
                "tolerance": dpl.tolerance,
                "eta_bounds": list(dpl.eta_bounds),
                "max_iters": dpl.max_iters,
            },
            "ica": {"d": self.ica.d, "heads": self.ica.heads, "mlp_hidden": self.ica.mlp_hidden},
            "optimizer": {"lr": train.lr, "beta1": train.beta1, "beta2": train.beta2},
            "epochs": train.epochs,
            "batch_size": train.batch_size,
            "seed": self.seed,
            "out": self.out,
        }


@dataclass
class RunResult:
    config: dict
    sessions: list  # MetricsRecord dicts
    aggregates: dict
    dpl_reports: list
    pseudo_recall: list
    wall_clock_sec: float
    version: str = VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "sessions": self.sessions,
            "aggregates": self.aggregates,
            "dpl_reports": self.dpl_reports,
            "pseudo_recall": self.pseudo_recall,
            "wall_clock_sec": self.wall_clock_sec,
        }

    @staticmethod
    def from_dict(d: dict) -> "RunResult":
        return RunResult(
            config=d["config"],
            sessions=d["sessions"],
            aggregates=d["aggregates"],
            dpl_reports=d["dpl_reports"],
            pseudo_recall=d["pseudo_recall"],
            wall_clock_sec=d["wall_clock_sec"],
            version=d["version"],
        )


# ---------------------------------------------------------------------------
# strict config parsing

_GENSPEC_KEYS = set(GenSpec().to_dict())
_SCHEMA = {
    "dataset": dict,
    "plan": dict,
    "arm": str,
    "buffer": (dict, type(None)),
    "loss": dict,
    "dpl": dict,
    "ica": dict,
    "optimizer": dict,
    "epochs": int,
    "batch_size": int,
    "seed": int,
    "out": str,
}


def _reject_unknown(obj: dict, allowed, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _take(obj: dict, key: str, kind, path: str, default):
    if key not in obj:
        return default
    val = obj[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"{path}.{key}: expected {getattr(kind, '__name__', kind)}")
    return val


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    _reject_unknown(raw, set(_SCHEMA), "config")
    cfg = RunConfig()
    cfg.seed = _take(raw, "seed", int, "config", cfg.seed)
    cfg.out = _take(raw, "out", str, "config", cfg.out)

    ds = raw.get("dataset", {})
    _reject_unknown(ds, _GENSPEC_KEYS | {"train_path", "test_path"}, "config.dataset")
    if "train_path" in ds or "test_path" in ds:
        _reject_unknown(ds, {"train_path", "test_path"}, "config.dataset")
        if "train_path" not in ds or "test_path" not in ds:
            raise ConfigError("config.dataset: need both train_path and test_path")
        cfg.dataset_paths = {"train_path": ds["train_path"], "test_path": ds["test_path"]}
    else:
        _reject_unknown(ds, _GENSPEC_KEYS, "config.dataset")
        cfg.dataset.update(ds)
        if "seed" not in ds:
            # derive the dataset stream from the master seed so method arms
            # compared under one seed share their data
            cfg.dataset["seed"] = substream_seed(cfg.seed, "datagen")
    plan = raw.get("plan", {})
    _reject_unknown(plan, {"base", "inc"}, "config.plan")
    cfg.base = _take(plan, "base", int, "config.plan", cfg.base)
    cfg.inc = _take(plan, "inc", int, "config.plan", cfg.inc)

    cfg.arm = _take(raw, "arm", str, "config", cfg.arm)
    if cfg.arm not in ARMS:
        raise ConfigError(f"config.arm: {cfg.arm!r} not one of {sorted(ARMS)}")

    buf = raw.get("buffer")
    if buf is not None:
        if not isinstance(buf, dict):
            raise ConfigError("config.buffer: expected an object or null")
        _reject_unknown(buf, {"per_class", "total"}, "config.buffer")
        if len(buf) != 1:
            raise ConfigError("config.buffer: give exactly one of per_class/total")
        kind, size = next(iter(buf.items()))
        if not isinstance(size, int) or size <= 0:
            raise ConfigError(f"config.buffer.{kind}: expected a positive integer")
        cfg.buffer = (kind, size)

    loss = raw.get("loss", {})
    _reject_unknown(loss, {"lambda", "gamma_pos", "gamma_neg", "neg_margin"}, "config.loss")
    loss_config = LossConfig(
        gamma_pos=_take(loss, "gamma_pos", float, "config.loss", LossConfig.gamma_pos),
        gamma_neg=_take(loss, "gamma_neg", float, "config.loss", LossConfig.gamma_neg),
        lam=_take(loss, "lambda", float, "config.loss", LossConfig.lam),
        neg_margin=_take(loss, "neg_margin", float, "config.loss", LossConfig.neg_margin),
    )

    dpl = raw.get("dpl", {})
    _reject_unknown(dpl, {"eta0", "mu", "eta_step", "tolerance", "eta_bounds", "max_iters"}, "config.dpl")
    bounds = dpl.get("eta_bounds", list(DplConfig.eta_bounds))
    if not (isinstance(bounds, list) and len(bounds) == 2):
        raise ConfigError("config.dpl.eta_bounds: expected [low, high]")
    try:
        dpl_config = DplConfig(
            eta_init=_take(dpl, "eta0", float, "config.dpl", DplConfig.eta_init),
            mu=_take(dpl, "mu", float, "config.dpl", DplConfig.mu),
            eta_step=_take(dpl, "eta_step", float, "config.dpl", DplConfig.eta_step),
            tolerance=_take(dpl, "tolerance", float, "config.dpl", DplConfig.tolerance),
            eta_bounds=(float(bounds[0]), float(bounds[1])),
            max_iters=_take(dpl, "max_iters", int, "config.dpl", DplConfig.max_iters),
        )
    except ValueError as e:
        raise ConfigError(f"config.dpl: {e}") from None

    ica = raw.get("ica", {})
    _reject_unknown(ica, {"d", "heads", "mlp_hidden"}, "config.ica")
    try:
        cfg.ica = IcaConfig(
            d=_take(ica, "d", int, "config.ica", cfg.ica.d),
            heads=_take(ica, "heads", int, "config.ica", cfg.ica.heads),
            mlp_hidden=_take(ica, "mlp_hidden", int, "config.ica", 0),
        )
    except ValueError as e:
        raise ConfigError(f"config.ica: {e}") from None

    opt = raw.get("optimizer", {})
    _reject_unknown(opt, {"lr", "beta1", "beta2"}, "config.optimizer")
    cfg.train = TrainConfig(
        epochs=_take(raw, "epochs", int, "config", TrainConfig.epochs),
        batch_size=_take(raw, "batch_size", int, "config", TrainConfig.batch_size),
        lr=_take(opt, "lr", float, "config.optimizer", TrainConfig.lr),
        beta1=_take(opt, "beta1", float, "config.optimizer", TrainConfig.beta1),
        beta2=_take(opt, "beta2", float, "config.optimizer", TrainConfig.beta2),
        loss=loss_config,
        dpl=dpl_config,
    )

    _validate_arm_buffer(cfg)
    return cfg


def _validate_arm_buffer(cfg: RunConfig):
    requirement = _ARM_TABLE[cfg.arm][3]
    has_buffer = cfg.buffer[0] != "none"
    if requirement == "forbid" and has_buffer:
        raise ConfigError(f"config.buffer: arm {cfg.arm!r} forbids a rehearsal buffer")
    if requirement == "require" and not has_buffer:
        raise ConfigError(f"config.buffer: arm {cfg.arm!r} requires a rehearsal buffer")


def apply_overrides(raw: dict, overrides: list) -> dict:
    """Apply key.path=value strings onto the raw config dict."""
    out = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected key.path=value")
        path, text = item.split("=", 1)
        keys = path.split(".")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # bare strings allowed
        node = out
        for k in keys[:-1]:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {path}: {k} is not an object")
        node[keys[-1]] = value
    return out


# ---------------------------------------------------------------------------
# run


def _load_data(cfg: RunConfig):
    if cfg.dataset_paths:
        try:
            train = load_dataset(cfg.dataset_paths["train_path"])
            test = load_dataset(cfg.dataset_paths["test_path"])
        except (OSError, DatasetFormatError) as e:
            raise DataError(str(e)) from None
        if train.class_names != test.class_names:
            raise DataError("train/test class tables differ")
        return train, test, train.class_names
    try:
        spec = GenSpec(**cfg.dataset)
    except ValueError as e:
        raise ConfigError(f"config.dataset: {e}") from None
    return generate(spec)


def run(cfg: RunConfig) -> RunResult:
    """Execute the configured run and write its artifacts under cfg.out."""
    t0 = time.monotonic()
    train, test, names = _load_data(cfg)
    base = len(names) if cfg.arm == "upper_bound" else cfg.base
    inc = 0 if cfg.arm == "upper_bound" else cfg.inc
    try:
        plan = build_plan(names, base=base, inc=inc)
    except ValueError as e:
        raise ConfigError(f"config.plan: {e}") from None
    assign_examples(plan, train, test)
    log.info("arm=%s sessions=%d train=%d test=%d", cfg.arm, plan.n_sessions, len(train), len(test))

    outcomes = run_incremental(train, test, plan, cfg.flags(), cfg.ica, cfg.train, cfg.seed)

    records = [o.metrics for o in outcomes]
    avg_map, last_map, last_cf1, last_of1 = aggregate(records)
    result = RunResult(
        config=cfg.echo(),
        sessions=[r.to_dict() for r in records],
        aggregates={
            "avg_map": avg_map,
            "last_map": last_map,
            "last_cf1": last_cf1,
            "last_of1": last_of1,
        },
        dpl_reports=[o.dpl_report.to_dict() if o.dpl_report else None for o in outcomes],
        pseudo_recall=[o.pseudo_recall for o in outcomes],
        wall_clock_sec=time.monotonic() - t0,
    )
    _write_outputs(cfg.out, result)
    return result


def _write_outputs(out_dir: str, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(result.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("session,map,cf1,of1\n")
        for s in result.sessions:
            fh.write(f"{s['session']},{s['map']:.4f},{s['cf1']:.4f},{s['of1']:.4f}\n")
    with open(os.path.join(out_dir, "curves.tsv"), "w") as fh:
        fh.write("session\tmap\n")
        for s in result.sessions:
            fh.write(f"{s['session']}\t{s['map']:.4f}\n")


def load_result(path: str) -> RunResult:
    try:
        with open(path) as fh:
            return RunResult.from_dict(json.load(fh))
    except OSError as e:
        raise DataError(str(e)) from None
    except (KeyError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: not a results file ({e})") from None


# ---------------------------------------------------------------------------
# compare


def compare(paths: list) -> str:
    """Tabulate runs of one plan: aggregates plus deltas vs the first entry."""
    if len(paths) < 2:
        raise ConfigError("compare needs at least two results files")
    results = [load_result(p) for p in paths]
    ref_plan = results[0].config["plan"]
    ref_data = results[0].config["dataset"]
    for p, r in zip(paths[1:], results[1:]):
        if r.config["plan"] != ref_plan:
            raise DataError(f"{p}: plan {r.config['plan']} differs from {ref_plan}")
        if r.config["dataset"] != ref_data:
            raise DataError(f"{p}: dataset differs from the first run")
    header = f"{'arm':<12} {'avg_map':>8} {'last_map':>9} {'last_cf1':>9} {'last_of1':>9} {'d_last':>8}"
    lines = [header, "-" * len(header)]
    ref_last = results[0].aggregates["last_map"]
    for r in results:
        agg = r.aggregates
        delta = agg["last_map"] - ref_last
        lines.append(
            f"{r.config['arm']:<12} {agg['avg_map']:>8.2f} {agg['last_map']:>9.2f} "
            f"{agg['last_cf1']:>9.2f} {agg['last_of1']:>9.2f} {delta:>+8.2f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# standalone pseudo-labeling


def dpl_standalone(
    scores_path: str,
    labels_path: str,
    out_path: str,
    dpl_config: DplConfig,
    total_classes: int = None,
) -> dict:
    try:
        class_ids, scores = read_score_csv(scores_path)
        records = read_labels_jsonl(labels_path)
    except ValueError as e:
        raise DataError(str(e)) from None
    if len(records) != scores.shape[0]:
        raise DataError(
            f"{labels_path}: {len(records)} label rows vs {scores.shape[0]} score rows"
        )
    if scores.size and (scores.min() < 0 or scores.max() > 1):
        raise DataError(f"{scores_path}: scores outside [0, 1]")

    current_label_ids = {lbl for _, labels in records for lbl in labels}
    if total_classes is None:
        total_classes = len(set(class_ids) | current_label_ids)
    col_of = {cid: k for k, cid in enumerate(class_ids)}
    exclude = [
        {col_of[lbl] for lbl in labels if lbl in col_of} for _, labels in records
    ]
    mu_t = session_target(len(class_ids), total_classes, dpl_config.mu)
    report = dynamic_threshold_search(scores, dpl_config, mu_t, exclude=exclude)
    true_sets = [set(labels) for _, labels in records]
    pseudo_sets = [{class_ids[k] for k in cols} for cols in report.label_sets]
    merged = merge_labels(true_sets, pseudo_sets, current_classes=None)
    write_merged_jsonl(out_path, records, merged)
    return report.to_dict()


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="krt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one incremental run")
    p_run.add_argument("--config", help="JSON config file")
    p_run.add_argument("--arm", choices=ARMS)
    p_run.add_argument("--base", type=int)
    p_run.add_argument("--inc", type=int)
    p_run.add_argument("--buffer-per-class", type=int)
    p_run.add_argument("--buffer-total", type=int)
    p_run.add_argument("--lambda", dest="lam", type=float)
    p_run.add_argument("--eta0", type=float)
    p_run.add_argument("--mu", type=float)
    p_run.add_argument("--gamma-pos", type=float)
    p_run.add_argument("--gamma-neg", type=float)
    p_run.add_argument("--epochs", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                       help="override any config field")

    p_cmp = sub.add_parser("compare", help="tabulate several results.json files")
    p_cmp.add_argument("results", nargs="+")

    p_dpl = sub.add_parser("dpl", help="standalone pseudo-labeling over files")
    p_dpl.add_argument("--scores", required=True, help="CSV with a class-id header row")
    p_dpl.add_argument("--labels", required=True, help="JSONL of {image_id, labels}")
    p_dpl.add_argument("--out", required=True, help="merged JSONL output path")
    p_dpl.add_argument("--eta0", type=float, default=0.8)
    p_dpl.add_argument("--mu", type=float, default=2.9)
    p_dpl.add_argument("--total-classes", type=int)
    return parser


def _flag_overrides(args) -> list:
    pairs = [
        ("arm", args.arm, "arm"),
        ("base", args.base, "plan.base"),
        ("inc", args.inc, "plan.inc"),
        ("lam", args.lam, "loss.lambda"),
        ("eta0", args.eta0, "dpl.eta0"),
        ("mu", args.mu, "dpl.mu"),
        ("gamma_pos", args.gamma_pos, "loss.gamma_pos"),
        ("gamma_neg", args.gamma_neg, "loss.gamma_neg"),
        ("epochs", args.epochs, "epochs"),
        ("seed", args.seed, "seed"),
        ("out", args.out, "out"),
    ]
    overrides = [f"{path}={json.dumps(val)}" for _, val, path in pairs if val is not None]
    if args.buffer_per_class is not None and args.buffer_total is not None:
        raise ConfigError("give only one of --buffer-per-class / --buffer-total")
    if args.buffer_per_class is not None:
        overrides.append(f"buffer={json.dumps({'per_class': args.buffer_per_class})}")
    if args.buffer_total is not None:
        overrides.append(f"buffer={json.dumps({'total': args.buffer_total})}")
    return overrides


def _setup_logging():
    level = os.environ.get("KRT_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"KRT_LOG={level!r} not one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            raw = {}
            if args.config:
                try:
                    with open(args.config) as fh:
                        raw = json.load(fh)
                except OSError as e:
                    raise ConfigError(str(e)) from None
                except json.JSONDecodeError as e:
                    raise ConfigError(f"{args.config}: invalid JSON ({e.msg}, line {e.lineno})") from None
            raw = apply_overrides(raw, _flag_overrides(args) + args.set)
            cfg = parse_config(raw)
            result = run(cfg)
            agg = result.aggregates
            print(
                f"{cfg.arm}: avg_map={agg['avg_map']:.2f} last_map={agg['last_map']:.2f} "
                f"last_cf1={agg['last_cf1']:.2f} last_of1={agg['last_of1']:.2f} -> {cfg.out}"
            )
        elif args.command == "compare":
            print(compare(args.results))
        elif args.command == "dpl":
            report = dpl_standalone(
                args.scores,
                args.labels,
                args.out,
                DplConfig(eta_init=args.eta0, mu=args.mu),
                total_classes=args.total_classes,
            )
            print(json.dumps(report, sort_keys=True))
        return 0
    except ConfigError as e:
        print(f"E_CONFIG: {e}", file=sys.stderr)
        return 2
    except (DataError, DatasetFormatError) as e:
        print(f"E_DATA: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports, never raises
        print(f"E_RUNTIME: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
