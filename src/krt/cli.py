"""Experiment runner.

`krt run` executes one full incremental run for one method arm and writes
results.json and summary.csv (its per-session mAP, CF1 and OF1) into the
output directory. results.json also records the environment float32
results can depend on: the numpy version, its BLAS and that BLAS's thread
count.
`krt compare` tabulates several results files of the same plan, and warns
on stderr when their environments differ.
`krt dpl` runs the pseudo-labeler standalone over a score CSV + label JSONL,
through the same driver as a training session (`protocol.run_dpl`).

Config is strict JSON: unknown keys are rejected, every value is
type-checked, and errors carry field paths. `_KEYS` is the one list of
settable keys. Each row maps a JSON path to the dataclass field it sets,
whose annotation gives the type, and names its dedicated `krt run` flag, if
it has one. `parse_config`, `RunConfig.echo` and the `run` flags all walk
that table; only `buffer` and the `dataset` train_path/test_path
alternative are read by hand. Any key can be overridden with
--set key.path=value. Precedence: flags > config file > defaults.
Exit codes: 0 ok, 2 config error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Optional, get_args, get_origin, get_type_hints

import numpy as np

from ._version import VERSION
from .datagen import DatasetFormatError, GenSpec, generate, load_dataset
from .dpl import DplConfig, read_labels_jsonl, read_score_csv, write_merged_jsonl
from .ica import IcaConfig
from .losses import LossConfig
from .metrics import aggregate
from .protocol import ArmFlags, DataError, TrainConfig, build_plan, run_dpl, run_incremental
from .seeds import substream_seed

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
ARMS = tuple(_ARM_TABLE)

# `krt run`'s block is smaller than IcaConfig's paper default (d=384)
_RUN_ICA_SHAPE = {"d": 32, "heads": 4}


_FLOAT32_MAX = float(np.finfo(np.float32).max)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dataset: GenSpec = field(default_factory=GenSpec)
    dataset_paths: dict = None  # {"train_path", "test_path"} alternative
    base: int = 0
    inc: int = 5
    arm: str = "krt"
    buffer: tuple = ("none",)
    ica: IcaConfig = field(default_factory=lambda: IcaConfig(**_RUN_ICA_SHAPE))
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    out: str = "runs/out"

    def flags(self) -> ArmFlags:
        use_dpl, use_ica, use_kd, _ = _ARM_TABLE[self.arm]
        return ArmFlags(use_dpl=use_dpl, use_ica=use_ica, use_kd=use_kd, buffer_policy=self.buffer)

    def echo(self) -> dict:
        """The config as `parse_config` reads it back."""
        owners = {
            RunConfig: self,
            GenSpec: self.dataset,
            IcaConfig: self.ica,
            TrainConfig: self.train,
            LossConfig: self.train.loss,
            DplConfig: self.train.dpl,
        }
        out = {}
        for key in _KEYS:
            value = getattr(owners[key.owner], key.attr)
            _put(out, key.path, list(value) if isinstance(value, tuple) else value)
        if self.dataset_paths:
            out["dataset"] = dict(self.dataset_paths)
        out["buffer"] = None if self.buffer[0] == "none" else {self.buffer[0]: self.buffer[1]}
        return out


@dataclass
class RunResult:
    config: dict
    sessions: list  # MetricsRecord dicts
    aggregates: dict
    dpl_reports: list
    pseudo_recall: list
    wall_clock_sec: float
    version: str = VERSION
    environment: Optional[dict] = None  # see `environment()`; absent from older files


# ---------------------------------------------------------------------------
# strict config parsing


class Key(NamedTuple):
    """One settable config leaf."""

    path: str  # JSON path, e.g. "loss.lambda"
    owner: type  # the dataclass whose field it sets
    attr: str  # that field
    flag: Optional[str] = None  # dedicated `krt run` flag
    choices: Optional[tuple] = None  # the allowed values, where they are few

    @property
    def kind(self):
        return get_type_hints(self.owner)[self.attr]


_KEYS = (
    *(Key(f"dataset.{f.name}", GenSpec, f.name) for f in fields(GenSpec)),
    Key("plan.base", RunConfig, "base", "--base"),
    Key("plan.inc", RunConfig, "inc", "--inc"),
    Key("arm", RunConfig, "arm", "--arm", ARMS),
    Key("loss.lambda", LossConfig, "lam", "--lambda"),
    Key("loss.gamma_pos", LossConfig, "gamma_pos", "--gamma-pos"),
    Key("loss.gamma_neg", LossConfig, "gamma_neg", "--gamma-neg"),
    Key("loss.neg_margin", LossConfig, "neg_margin"),
    Key("dpl.eta0", DplConfig, "eta_init", "--eta0"),
    Key("dpl.mu", DplConfig, "mu", "--mu"),
    Key("dpl.eta_step", DplConfig, "eta_step"),
    Key("dpl.tolerance", DplConfig, "tolerance"),
    Key("dpl.eta_bounds", DplConfig, "eta_bounds"),
    Key("dpl.max_iters", DplConfig, "max_iters"),
    Key("ica.d", IcaConfig, "d"),
    Key("ica.heads", IcaConfig, "heads"),
    Key("ica.mlp_hidden", IcaConfig, "mlp_hidden"),
    Key("optimizer.lr", TrainConfig, "lr"),
    Key("optimizer.beta1", TrainConfig, "beta1"),
    Key("optimizer.beta2", TrainConfig, "beta2"),
    Key("epochs", TrainConfig, "epochs", "--epochs"),
    Key("batch_size", TrainConfig, "batch_size"),
    Key("seed", RunConfig, "seed", "--seed"),
    Key("out", RunConfig, "out", "--out"),
)


def _put(tree: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for name in parents:
        tree = tree.setdefault(name, {})
    tree[leaf] = value


def _key_tree() -> dict:
    """The table's paths as nested dicts of Keys; None marks a leaf read by hand."""
    tree = {"buffer": None, "dataset": {"train_path": None, "test_path": None}}
    for key in _KEYS:
        _put(tree, key.path, key)
    return tree


_TREE = _key_tree()


def _reject_unknown(obj: dict, allowed, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _typed(value, kind, path: str):
    """`value` checked against the annotation `kind`; ints widen to float, floats are finite in float32.

    The model runs in float32 (`protocol.MODEL_DTYPE`), so a float knob
    beyond its range would reach training as an overflow.
    """
    if get_origin(kind) is tuple:
        items = get_args(kind)
        if not (isinstance(value, list) and len(value) == len(items)):
            raise ConfigError(f"{path}: expected [{', '.join(k.__name__ for k in items)}]")
        return tuple(_typed(v, k, path) for v, k in zip(value, items))
    if kind is float and type(value) in (int, float):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite float")
        if abs(value) > _FLOAT32_MAX:
            raise ConfigError(f"{path}: {value!r} is beyond the float32 range")
        return value
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}: expected {kind.__name__}")
    return value


def _read_leaves(node: dict, tree: dict, path: str, values: dict) -> None:
    """Check `node` against `tree` and collect each table leaf's value into `values`."""
    _reject_unknown(node, tree, path)
    for name, value in node.items():
        sub, where = tree[name], f"{path}.{name}"
        if isinstance(sub, Key):
            values[sub] = _typed(value, sub.kind, where)
            if sub.choices and values[sub] not in sub.choices:
                raise ConfigError(f"{where}: {value!r} not one of {sorted(sub.choices)}")
        elif sub is not None:
            _read_leaves(value, sub, where, values)


def _read_buffer(buf) -> tuple:
    if buf is None:
        return ("none",)
    if not isinstance(buf, dict):
        raise ConfigError("config.buffer: expected an object or null")
    _reject_unknown(buf, {"per_class", "total"}, "config.buffer")
    if len(buf) != 1:
        raise ConfigError("config.buffer: give exactly one of per_class/total")
    kind, size = next(iter(buf.items()))
    if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
        raise ConfigError(f"config.buffer.{kind}: expected a positive integer")
    return (kind, size)


def _read_dataset_paths(ds: dict) -> dict:
    _reject_unknown(ds, {"train_path", "test_path"}, "config.dataset")
    if "train_path" not in ds or "test_path" not in ds:
        raise ConfigError("config.dataset: need both train_path and test_path")
    return {name: _typed(ds[name], str, f"config.dataset.{name}") for name in ds}


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    values = {}
    _read_leaves(raw, _TREE, "config", values)

    def build(owner, where: str, **defaults):
        given = {key.attr: value for key, value in values.items() if key.owner is owner}
        try:
            return owner(**{**defaults, **given})
        except ValueError as e:
            raise ConfigError(f"{where}: {e}") from None

    cfg = build(
        RunConfig,
        "config",
        buffer=_read_buffer(raw.get("buffer")),
        ica=build(IcaConfig, "config.ica", **_RUN_ICA_SHAPE),
        train=build(
            TrainConfig,
            "config",
            loss=build(LossConfig, "config.loss"),
            dpl=build(DplConfig, "config.dpl"),
        ),
    )
    ds = raw.get("dataset", {})
    if "train_path" in ds or "test_path" in ds:
        cfg.dataset_paths = _read_dataset_paths(ds)
    else:
        # derive the dataset stream from the master seed so method arms
        # compared under one seed share their data
        cfg.dataset = build(GenSpec, "config.dataset", seed=substream_seed(cfg.seed, "datagen"))
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
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
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
        grids = [d.features.shape[1:] for d in (train, test)]
        if grids[0] != grids[1]:
            raise DataError(f"train grid {grids[0]} and test grid {grids[1]} differ")
        return train, test, train.class_names
    try:
        return generate(cfg.dataset)
    except OverflowError:  # noise_sigma fits float32, but the noise it scales may not
        sigma = cfg.dataset.noise_sigma
        raise ConfigError(f"config.dataset.noise_sigma: {sigma!r} puts features beyond the float32 range") from None


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
        environment=environment(),
    )
    _write_outputs(cfg.out, result)
    return result


def _blas_threads() -> Optional[int]:
    """Threads numpy's bundled OpenBLAS reports using, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # not loadable here; the record says None rather than fail the run
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """What a run's float32 results can depend on beyond its config and seed.

    Exact GELU's erf is `tensor._erf`, written in numpy, so no scipy
    version matters. Results do rest on numpy's float64 `exp`, which
    `_erf` uses only where |x / sqrt(2)| > 1 and whose SIMD path depends
    on the CPU; the record gives numpy's version, not the CPU.
    """
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
    }


def _write_outputs(out_dir: str, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(asdict(result), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("session,map,cf1,of1\n")
        for s in result.sessions:
            fh.write(f"{s['session']},{s['map']:.4f},{s['cf1']:.4f},{s['of1']:.4f}\n")


def load_result(path: str) -> RunResult:
    """A results.json, checked for every field `compare` reads; aggregates are percentages.

    A file written before runs recorded their environment loads with
    `environment` None.
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
        given = {f.name: d[f.name] for f in fields(RunResult) if f.name != "environment"}
        result = RunResult(**given, environment=d.get("environment"))
    except OSError as e:
        raise DataError(str(e)) from None
    except (KeyError, TypeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: not a results file ({e})") from None
    wanted = [("config", "plan", dict), ("config", "dataset", dict), ("config", "arm", str)]
    aggregates = ("avg_map", "last_map", "last_cf1", "last_of1")
    for section, key, kind in wanted + [("aggregates", key, (int, float)) for key in aggregates]:
        record = getattr(result, section)
        value = record.get(key) if isinstance(record, dict) else None
        bad = not isinstance(value, kind) or isinstance(value, bool)
        if bad or (section == "aggregates" and not 0.0 <= value <= 100.0):  # NaN fails too
            raise DataError(f"{path}: not a results file (bad or missing {section}.{key})")
    return result


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
        if r.environment != results[0].environment:  # scores may differ in their last bits
            print(
                f"W_ENV: {p}: environment {r.environment} differs from the first run's "
                f"{results[0].environment}",
                file=sys.stderr,
            )
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

    # header ids are strings, and a label 3 names the class "3"
    known = [{str(label) for label in labels} for _, labels in records]
    if total_classes is None:
        total_classes = len(set(class_ids).union(*known))
    elif total_classes < len(class_ids):
        raise ConfigError(
            f"dpl: --total-classes {total_classes} is below the {len(class_ids)} score columns"
        )
    exclude = np.array([[c in labels for c in class_ids] for labels in known], dtype=bool)
    report = run_dpl(scores, exclude, total_classes, dpl_config)
    write_merged_jsonl(out_path, records, class_ids, report.labels)
    return report.to_dict()


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="krt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one incremental run")
    p_run.add_argument("--config", help="JSON config file")
    for key in _KEYS:
        if key.flag:
            p_run.add_argument(key.flag, dest=key.path, type=key.kind, choices=key.choices)
    p_run.add_argument("--buffer-per-class", type=int)
    p_run.add_argument("--buffer-total", type=int)
    p_run.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                       help="override any config field")

    p_cmp = sub.add_parser("compare", help="tabulate several results.json files")
    p_cmp.add_argument("results", nargs="+")

    p_dpl = sub.add_parser("dpl", help="standalone pseudo-labeling over files")
    p_dpl.add_argument("--scores", required=True, help="CSV with a class-id header row")
    p_dpl.add_argument("--labels", required=True, help="JSONL of {image_id, labels}")
    p_dpl.add_argument("--out", required=True, help="merged JSONL output path")
    p_dpl.add_argument("--eta0", type=float, default=DplConfig.eta_init)
    p_dpl.add_argument("--mu", type=float, default=DplConfig.mu)
    p_dpl.add_argument("--total-classes", type=int)
    return parser


def _flag_overrides(args) -> list:
    given = [(key.path, getattr(args, key.path)) for key in _KEYS if key.flag]
    overrides = [f"{path}={json.dumps(val)}" for path, val in given if val is not None]
    if args.buffer_per_class is not None and args.buffer_total is not None:
        raise ConfigError("give only one of --buffer-per-class / --buffer-total")
    if args.buffer_per_class is not None:
        overrides.append(f"buffer={json.dumps({'per_class': args.buffer_per_class})}")
    if args.buffer_total is not None:
        overrides.append(f"buffer={json.dumps({'total': args.buffer_total})}")
    return overrides


def main(argv=None) -> int:
    try:
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
            try:
                dpl_config = DplConfig(eta_init=args.eta0, mu=args.mu)
            except ValueError as e:
                raise ConfigError(f"dpl: {e}") from None
            if args.total_classes is not None and args.total_classes <= 0:
                raise ConfigError(f"dpl: --total-classes {args.total_classes} must be positive")
            report = dpl_standalone(
                args.scores, args.labels, args.out, dpl_config, total_classes=args.total_classes
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
