import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krt
from krt import DplConfig, GenSpec, IcaConfig, LossConfig, cli
from krt.cli import RunConfig, main, parse_config
from krt.datagen import Dataset, generate, save_dataset
from krt.protocol import TrainConfig
from krt.seeds import substream_seed

from identity import load_workloads


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_python_dash_m_krt_prints_help():
    src = str(Path(krt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "krt", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "usage: krt" in proc.stdout


def test_every_public_name_resolves_on_the_package():
    assert len(set(krt.__all__)) == len(krt.__all__)
    assert [name for name in krt.__all__ if not hasattr(krt, name)] == []


def test_krt_imports_and_runs_without_scipy(tmp_path):
    # numpy is krt's only runtime dependency; scipy alone would add about 26 MB of RSS
    src = str(Path(krt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import json, sys\n"
        "import krt.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "loaded = {'import': scipy_modules()}\n"
        f"assert krt.cli.main({TINY_RUN + ['--out', 'run']!r}) == 0\n"
        "loaded['run'] = scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"import": [], "run": []}


def test_results_are_identical_across_process_restarts(tmp_path):
    src = str(Path(krt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # one BLAS thread count; the next test varies it
    threads = {var: "1" for var in BLAS_THREADS}
    env = {**os.environ, "PYTHONPATH": path, **threads}
    argv = [sys.executable, "-m", "krt"] + TINY_RUN + ["--arm", "krt", "--seed", "7"]
    results = []
    for name in ("a", "b"):
        # one relative --out from two directories, so the echoed configs match
        cwd = tmp_path / name
        cwd.mkdir()
        proc = subprocess.run(
            argv + ["--out", "run"], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads((cwd / "run" / "results.json").read_text()))
    for r in results:
        assert r.pop("wall_clock_sec") >= 0
    assert results[0]["dpl_reports"]  # the run reached a DPL session
    assert results[0] == results[1]


def test_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # incr_paper at its accuracy guard's size: the paper shape, whose weight
    # gradients sum over B*14*14 patch rows
    _assert_equal_results_at_one_and_two_threads("incr_paper", tmp_path)


def test_incr_small_results_do_not_depend_on_the_blas_thread_count(tmp_path):
    # incr_small at its accuracy guard's size: d=32, krt_r's per-class buffer
    # and batches with a remainder
    _assert_equal_results_at_one_and_two_threads("incr_small", tmp_path)


def _assert_equal_results_at_one_and_two_threads(workload, tmp_path):
    results = [_guard_run(workload, tmp_path / threads, threads) for threads in ("1", "2")]
    for r, threads in zip(results, (1, 2)):
        assert r.pop("environment")["blas"]["threads"] == threads
    assert results[0] == results[1]


def _guard_run(workload, cwd, blas_threads):
    """results.json, less its wall clock, of `krt run` of workload's guard config at seed 0 in a child."""
    src = str(Path(krt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **{var: blas_threads for var in BLAS_THREADS}}
    cwd.mkdir()
    config = {**load_workloads().guard_config(workload, "run"), "seed": 0}
    (cwd / "config.json").write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "krt", "run", "--config", "config.json"],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((cwd / "run" / "results.json").read_text())
    assert result.pop("wall_clock_sec") >= 0
    return result


TINY_RUN = [
    "run", "--arm", "ft", "--epochs", "1",
    "--set", 'dataset={"n_classes": 10, "grid_h": 4, "grid_w": 4, "channels": 4, '
    '"n_train": 40, "n_test": 20}',
    "--set", "ica.d=8", "--set", "ica.heads=2",
]


@pytest.mark.parametrize(
    "override, path",
    [
        ("ica.l=32", "config.ica.l"),
        ("ica.eps_norm=1e-5", "config.ica.eps_norm"),
        ("ica.kr_init_from_kt=false", "config.ica.kr_init_from_kt"),
        ("loss.per_session_average=false", "config.loss.per_session_average"),
        ("extractor_width=0", "config.extractor_width"),
        ("pos_enc_scale=0.1", "config.pos_enc_scale"),
    ],
)
def test_removed_keys_are_config_errors(override, path, tmp_path, capsys):
    assert main(TINY_RUN + ["--set", override, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"E_CONFIG: {path}: unknown key\n"


@pytest.mark.parametrize(
    "override, path",
    [
        ("plan=5", "config.plan"),
        ("loss=5", "config.loss"),
        ("dpl=2", "config.dpl"),
        ("optimizer=3", "config.optimizer"),
        ("ica=[1]", "config.ica"),
    ],
)
def test_non_object_sections_are_config_errors(override, path, tmp_path, capsys):
    assert main(TINY_RUN + ["--set", override, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"E_CONFIG: {path}: expected an object\n"


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"krt"', "null"])
def test_a_config_file_that_is_not_an_object_is_a_config_error(text, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(text)
    for flags in ([], ["--out", str(tmp_path / "out")]):
        assert main(["run", "--config", str(path)] + flags) == 2
        assert capsys.readouterr().err == "E_CONFIG: config: expected a JSON object\n"


def test_buffer_on_an_arm_that_forbids_it_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--arm", "krt", "--buffer-per-class", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("E_CONFIG: config.buffer:")
    assert main(TINY_RUN + ["--set", "buffer=5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "E_CONFIG: config.buffer: expected an object or null\n"


def test_missing_dataset_file_is_a_data_error(tmp_path, capsys):
    paths = {"train_path": str(tmp_path / "missing.bin"), "test_path": str(tmp_path / "t.bin")}
    argv = ["run", "--set", f"dataset={json.dumps(paths)}", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("E_DATA: ")


BAD_DATA_SPEC = GenSpec(n_classes=4, grid_h=4, grid_w=4, channels=4, n_train=8, n_test=4)


def _nan_feature(test):
    test.features[0, 0, 0, 0] = np.nan
    return test


def _no_labels(test):
    test.labels[0] = False
    return test


def _repeated_names(test):
    test.class_names = ["a", "a", "b", "b"]
    return test


def _repeated_ids(test):
    test.image_ids[3] = test.image_ids[1]
    return test


def _other_grid(test):
    return generate(dataclasses.replace(BAD_DATA_SPEC, grid_h=5))[1]


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_nan_feature, "test.bin: image 8 has non-finite features"),
        (_no_labels, "test.bin: image 8 has no labels"),
        (_other_grid, "train grid (4, 4, 4) and test grid (5, 4, 4) differ"),
        (_repeated_names, "test.bin: class names repeat"),
        (_repeated_ids, "test.bin: image ids repeat"),
    ],
    ids=["nan_feature", "empty_label_set", "grid_mismatch", "repeated_names", "repeated_ids"],
)
def test_bad_dataset_files_fail_at_load(spoil, message, tmp_path, capsys):
    train, test, _ = generate(BAD_DATA_SPEC)
    paths = {"train_path": str(tmp_path / "train.bin"), "test_path": str(tmp_path / "test.bin")}
    save_dataset(train, paths["train_path"])
    save_dataset(spoil(test), paths["test_path"])
    argv = TINY_RUN + ["--set", f"dataset={json.dumps(paths)}", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("E_DATA: ") and message in err, err


def _four_class_split(labels):
    """A 4x4x2 dataset of classes a..d whose rows carry the given label columns."""
    rows = np.zeros((len(labels), 4), dtype=bool)
    for i, columns in enumerate(labels):
        rows[i, columns] = True
    features = np.ones((len(labels), 4, 4, 2), dtype=np.float32)
    return Dataset(["a", "b", "c", "d"], np.arange(1, len(labels) + 1, dtype=np.uint64), features, rows)


@pytest.mark.parametrize(
    "train_labels, test_labels, message",
    [
        ([[0], [1, 2], [3]], [[2], [3]], "session 1 has no test rows"),
        ([[0], [1], [0, 1]], [[0], [2, 3]], "session 2 has no train rows"),
    ],
    ids=["test_split_without_session_1", "train_split_without_session_2"],
)
def test_a_session_without_rows_fails_before_training(
    train_labels, test_labels, message, tmp_path, capsys
):
    paths = {"train_path": str(tmp_path / "train.bin"), "test_path": str(tmp_path / "test.bin")}
    save_dataset(_four_class_split(train_labels), paths["train_path"])
    save_dataset(_four_class_split(test_labels), paths["test_path"])
    out = tmp_path / "out"
    argv = TINY_RUN + ["--set", f"dataset={json.dumps(paths)}", "--set", "plan.inc=2"]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("E_DATA: ") and message in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "scores, labels, message",
    [
        ("c0,c1\n0.5,nan\n", '{"image_id": 1, "labels": []}\n', "s.csv:2: non-finite score"),
        ("c0,c1\n0.5,0.2\n", "5\n", "l.jsonl:1: need an object with image_id and a labels list"),
        (
            "c0,c1\n0.5,0.2\n0.1,0.9\n",
            '{"image_id": 1, "labels": ["c0"]}\n{"image_id": 2, "labels": [[1]]}\n',
            "l.jsonl:2: label [1] is not a string or an integer",
        ),
        (
            "c0,c1\n0.5,0.2\n",
            '{"image_id": 1, "labels": [true]}\n',
            "l.jsonl:1: label true is not a string or an integer",
        ),
    ],
    ids=["nan_score", "non_object_label_line", "list_label", "bool_label"],
)
def test_dpl_command_rejects_bad_input_files(scores, labels, message, tmp_path, capsys):
    (tmp_path / "s.csv").write_text(scores)
    (tmp_path / "l.jsonl").write_text(labels)
    argv = ["dpl", "--scores", str(tmp_path / "s.csv"), "--labels", str(tmp_path / "l.jsonl")]
    assert main(argv + ["--out", str(tmp_path / "out.jsonl")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("E_DATA: ") and message in err, err


def test_compare_rejects_runs_on_data_from_different_master_seeds(tmp_path, capsys):
    results = {}
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        out = tmp_path / name
        assert main(TINY_RUN + ["--seed", str(seed), "--out", str(out)]) == 0
        results[name] = str(out / "results.json")
    capsys.readouterr()
    assert main(["compare", results["a"], results["b"]]) == 0
    assert main(["compare", results["a"], results["c"]]) == 3
    assert "dataset differs" in capsys.readouterr().err


def test_a_run_directory_holds_the_results_and_the_summary_only(tmp_path):
    out = tmp_path / "run"
    assert main(TINY_RUN + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["results.json", "summary.csv"]
    sessions = json.loads((out / "results.json").read_text())["sessions"]
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == "session,map,cf1,of1"
    assert [int(row.split(",")[0]) for row in rows[1:]] == [s["session"] for s in sessions]


def test_results_record_the_environment(tmp_path):
    out = tmp_path / "run"
    assert main(TINY_RUN + ["--out", str(out)]) == 0
    env = json.loads((out / "results.json").read_text())["environment"]
    assert env == cli.environment()
    assert env["numpy"] == np.__version__
    assert set(env) == {"numpy", "blas"}
    assert set(env["blas"]) == {"name", "version", "threads"}


def test_compare_warns_when_environments_differ_and_reads_files_without_one(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(TINY_RUN + ["--out", str(out)]) == 0
    good = out / "results.json"
    result = json.loads(good.read_text())
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**result, "environment": {**result["environment"], "numpy": "0"}}))
    older = tmp_path / "older.json"
    older.write_text(json.dumps({k: v for k, v in result.items() if k != "environment"}))
    capsys.readouterr()
    assert main(["compare", str(good), str(good)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["compare", str(good), str(other), str(older)]) == 0
    warnings = capsys.readouterr().err.splitlines()
    assert [w.split(":")[:2] for w in warnings] == [["W_ENV", f" {other}"], ["W_ENV", f" {older}"]]
    assert cli.load_result(str(older)).environment is None


def _fixed_results(path, arm, aggregates):
    result = {
        "config": {"arm": arm, "plan": {"base": 0, "inc": 5}, "dataset": {"seed": 1}},
        "sessions": [], "aggregates": aggregates, "dpl_reports": [], "pseudo_recall": [],
        "wall_clock_sec": 1.5, "version": "0", "environment": {"numpy": "1"},
    }
    path.write_text(json.dumps(result))
    return str(path)


def test_the_compare_table_and_the_run_line_keep_their_text(tmp_path, monkeypatch, capsys):
    a = _fixed_results(
        tmp_path / "a.json", "krt", {"avg_map": 41.23456, "last_map": 7.5, "last_cf1": 100.0, "last_of1": 0.0},
    )
    b = _fixed_results(
        tmp_path / "b.json", "krt_no_dpl",
        {"avg_map": 9.995, "last_map": 19.125, "last_cf1": 33.333, "last_of1": 66.6666},
    )
    header = (
        "arm           avg_map  last_map  last_cf1  last_of1   d_last\n"
        "------------------------------------------------------------\n"
    )
    assert main(["compare", a, b]) == 0
    assert capsys.readouterr().out == header + (
        "krt             41.23      7.50    100.00      0.00    +0.00\n"
        "krt_no_dpl       9.99     19.12     33.33     66.67   +11.62\n"
    )
    assert main(["compare", b, a]) == 0
    assert capsys.readouterr().out == header + (
        "krt_no_dpl       9.99     19.12     33.33     66.67    +0.00\n"
        "krt             41.23      7.50    100.00      0.00   -11.62\n"
    )
    monkeypatch.setattr(cli, "run", lambda cfg: cli.load_result(b))
    assert main(["run", "--arm", "ft", "--out", "runs/x"]) == 0
    assert capsys.readouterr().out == "ft: avg_map=9.99 last_map=19.12 last_cf1=33.33 last_of1=66.67 -> runs/x\n"


@pytest.mark.parametrize(
    "out, errno",
    [("file", "[Errno 17]"), ("file/sub", "[Errno 20]"), ("", "[Errno 2]")],
    ids=["file", "under_a_file", "empty"],
)
def test_an_unusable_out_fails_before_training(out, errno, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)

    def no_training(*args):
        raise AssertionError("run_incremental called")

    monkeypatch.setattr(cli, "run_incremental", no_training)
    assert main(TINY_RUN + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"E_CONFIG: config.out: {errno} ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_echo_derives_the_dataset_seed_from_the_master_seed():
    for seed in (0, 1):
        echoed = parse_config({"seed": seed}).echo()
        assert echoed["dataset"]["seed"] == substream_seed(seed, "datagen")


def _echo_round_trip_configs():
    workloads = load_workloads()
    configs = [workloads.run_config(name, 3, "runs/x") for name in workloads.WORKLOADS]
    configs.append({"dataset": {"train_path": "train.krtd", "test_path": "test.krtd"}})
    return configs


@pytest.mark.parametrize("raw", _echo_round_trip_configs())
def test_echo_parses_back_to_the_same_config(raw):
    cfg = parse_config(raw)
    assert parse_config(cfg.echo()).echo() == cfg.echo()


DATASET_SIZES = "config.dataset: grid_h, grid_w, channels, n_train and n_test must be positive"
CO_OCCURRENCE = "config.dataset: co_occurrence {} takes the label affinity out of float range"


@pytest.mark.parametrize(
    "override, message",
    [
        ("dpl.eta_bounds=[null,1]", "config.dpl.eta_bounds: expected float"),
        ('dpl.eta_bounds=["0.1",0.9]', "config.dpl.eta_bounds: expected float"),
        ("dpl.eta_bounds=[true,0.9]", "config.dpl.eta_bounds: expected float"),
        ("dpl.eta_bounds=[0.9,0.1]", "config.dpl: eta_bounds low 0.9 above high 0.1"),
        ("dpl.eta_bounds=[0.1]", "config.dpl.eta_bounds: expected [float, float]"),
        ("batch_size=0", "config: epochs 1 and batch_size 0 must be positive"),
        ("epochs=0", "config: epochs 0 and batch_size 16 must be positive"),
        (
            "optimizer.beta1=1",
            "config: lr 0.001 must be non-negative, beta1 1.0 and beta2 0.999 in [0, 1)",
        ),
        ("ica.heads=0", "config.ica: d 8 and heads 0 must be positive"),
        ("ica.d=0", "config.ica: d 0 and heads 2 must be positive"),
        ("ica.mlp_hidden=-1", "config.ica: mlp_hidden -1 must be non-negative"),
        ("dataset.n_train=1.5", "config.dataset.n_train: expected int"),
        ('dataset.n_train="x"', "config.dataset.n_train: expected int"),
        ("dataset.channels=0", DATASET_SIZES),
        ("dataset.n_test=0", DATASET_SIZES),
        ('dataset={"train_path": 0, "test_path": 1}', "config.dataset.train_path: expected str"),
        ('dataset={"train_path": null, "test_path": "t"}', "config.dataset.train_path: expected str"),
        ("loss.gamma_neg=-1", "config.loss: focusing parameters must be non-negative"),
        ("dpl.max_iters=0", "config.dpl: max_iters 0 must be positive"),
        ("dpl.max_iters=-1", "config.dpl: max_iters -1 must be positive"),
        ("dataset.noise_sigma=-1", "config.dataset: noise_sigma -1.0 must be non-negative"),
        ("epochs=true", "config.epochs: expected int"),
        ('buffer={"total": true}', "config.buffer.total: expected a positive integer"),
        ("dpl.mu=NaN", "config.dpl.mu: expected a finite float"),
        ("loss.lambda=NaN", "config.loss.lambda: expected a finite float"),
        ("optimizer.lr=NaN", "config.optimizer.lr: expected a finite float"),
        ("dpl.tolerance=NaN", "config.dpl.tolerance: expected a finite float"),
        ("dpl.eta_bounds=[NaN,0.9]", "config.dpl.eta_bounds: expected a finite float"),
        ("dataset.noise_sigma=NaN", "config.dataset.noise_sigma: expected a finite float"),
        ("loss.gamma_neg=Infinity", "config.loss.gamma_neg: expected a finite float"),
        ("optimizer.lr=-1e400", "config.optimizer.lr: expected a finite float"),
        # finite in float64, but not in the float32 model
        ("loss.lambda=1e308", "config.loss.lambda: 1e+308 is beyond the float32 range"),
        ("loss.gamma_pos=1e308", "config.loss.gamma_pos: 1e+308 is beyond the float32 range"),
        ("dataset.noise_sigma=1e308", "config.dataset.noise_sigma: 1e+308 is beyond the float32 range"),
        ("optimizer.lr=1e39", "config.optimizer.lr: 1e+39 is beyond the float32 range"),
        ("dpl.mu=-1", "config.dpl: mu -1.0 must be finite and non-negative"),
        ("loss.neg_margin=-1", "config.loss: neg_margin -1.0 must be in [0, 1)"),
        ("loss.neg_margin=1", "config.loss: neg_margin 1.0 must be in [0, 1)"),
        ("dataset.co_occurrence=1000", CO_OCCURRENCE.format(1000.0)),
        ("dataset.co_occurrence=-1000", CO_OCCURRENCE.format(-1000.0)),
        (  # finite entries whose sum overflows: the label draw's means would too
            'dataset={"n_classes": 5, "grid_h": 4, "grid_w": 4, "channels": 2, "seed": 901, '
            '"avg_labels_per_image": 5, "co_occurrence": 584.090054, "n_train": 200, "n_test": 20}',
            CO_OCCURRENCE.format(584.090054),
        ),
    ],
)
def test_bad_values_fail_at_the_boundary(override, message, tmp_path, capsys):
    assert main(TINY_RUN + ["--set", override, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"E_CONFIG: {message}\n"


def test_an_overflow_in_training_fails_naming_adams_step(tmp_path, capsys):
    # within the float32 range, but the token loss's gradient squared overflows in Adam's second
    # moment; the token loss starts in session 2, so Adam's count restarts there
    argv = TINY_RUN + ["--arm", "krt", "--set", "loss.lambda=3e38", "--out", str(tmp_path)]
    assert main(argv) == 4
    where = "session 2, epoch 1, batch 1: Adam step 1"
    assert capsys.readouterr().err.startswith(f"E_RUNTIME: {where}: overflow updating a parameter of shape (")


@pytest.mark.parametrize("warning_action", ["error", "ignore"])
def test_a_row_variance_that_overflows_fails_naming_the_step(warning_action, tmp_path, capsys):
    # at this rate batch 1's update sends the weights so far that batch 2's patch rows'
    # variance overflows float32 in norm1
    argv = TINY_RUN + ["--arm", "krt", "--set", "optimizer.lr=1e7", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter(warning_action, RuntimeWarning)
        assert main(argv) == 4
    where = "session 1, epoch 1, batch 2"
    assert capsys.readouterr().err == f"E_RUNTIME: {where}: layer norm: a row's variance overflows float32\n"


def test_a_gelu_input_whose_square_overflows_trains_on_to_adam(tmp_path, capsys):
    # conv outputs beyond about 2.6e19 overflow -x^2 / 2 in gelu's slope, which is then exactly
    # Phi and raises no warning (pytest makes one an error); the step fails in Adam, as without -W error
    assert main(TINY_RUN + ["--set", "dataset.noise_sigma=3e37", "--out", str(tmp_path)]) == 4
    where = "session 1, epoch 1, batch 1: Adam step 1"
    assert capsys.readouterr().err.startswith(f"E_RUNTIME: {where}: overflow updating a parameter of shape (")


def test_noise_beyond_the_float32_range_is_a_config_error(tmp_path, capsys):
    # noise_sigma itself fits float32, but some noise draws times it do not
    assert main(TINY_RUN + ["--set", "dataset.noise_sigma=1e38", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "E_CONFIG: config.dataset.noise_sigma: 1e+38 puts features beyond the float32 range\n"


def test_an_int_beyond_the_float_range_is_not_a_finite_float(tmp_path, capsys):
    assert main(TINY_RUN + ["--set", f"loss.lambda={10**400}", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "E_CONFIG: config.loss.lambda: expected a finite float\n"


def test_dpl_command_rejects_a_threshold_outside_the_unit_interval(tmp_path, capsys):
    argv = ["dpl", "--scores", "s.csv", "--labels", "l.jsonl", "--out", str(tmp_path / "o")]
    assert main(argv + ["--eta0", "1.5"]) == 2
    assert capsys.readouterr().err == "E_CONFIG: dpl: eta_init 1.5 outside (0, 1)\n"


@pytest.mark.parametrize("mu", ["-1", "nan", "inf"])
def test_dpl_command_rejects_a_negative_or_non_finite_mu(mu, tmp_path, capsys):
    argv = ["dpl", "--scores", "s.csv", "--labels", "l.jsonl", "--out", str(tmp_path / "o")]
    assert main(argv + ["--mu", mu]) == 2
    want = f"E_CONFIG: dpl: mu {float(mu)} must be finite and non-negative\n"
    assert capsys.readouterr().err == want


DPL_SCORES = "c0,c1,c2\n0.95,0.9,0.1\n0.2,0.85,0.3\n"
DPL_LABELS = '{"image_id": 1, "labels": ["c0", "c7"]}\n{"image_id": 2, "labels": ["c8"]}\n'


def _dpl_argv(tmp_path, scores=DPL_SCORES):
    (tmp_path / "s.csv").write_text(scores)
    (tmp_path / "l.jsonl").write_text(DPL_LABELS)
    return [
        "dpl", "--scores", str(tmp_path / "s.csv"), "--labels", str(tmp_path / "l.jsonl"),
        "--out", str(tmp_path / "out.jsonl"),
    ]


@pytest.mark.parametrize(
    "total, message",
    [
        ("0", "dpl: --total-classes 0 must be positive"),
        ("-3", "dpl: --total-classes -3 must be positive"),
        ("2", "dpl: --total-classes 2 is below the 3 score columns"),
    ],
)
def test_dpl_command_rejects_a_total_class_count_below_the_score_columns(
    total, message, tmp_path, capsys
):
    assert main(_dpl_argv(tmp_path) + ["--total-classes", total]) == 2
    assert capsys.readouterr().err == f"E_CONFIG: {message}\n"
    assert not (tmp_path / "out.jsonl").exists()


def test_dpl_command_restores_old_classes_the_labels_lack(tmp_path, capsys):
    # 3 old classes of 5 (c0..c2, c7, c8) and mu 2.5: a target of 1.5 labels per image
    assert main(_dpl_argv(tmp_path) + ["--mu", "2.5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu_t"] == 1.5 and report["converged"] and report["final_eta"] == 0.3
    lines = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
    assert lines == [
        {"image_id": 1, "labels": ["c0", "c7"], "pseudo": ["c1"]},  # c0 is annotated already
        {"image_id": 2, "labels": ["c8"], "pseudo": ["c1", "c2"]},
    ]


def test_dpl_command_compares_integer_labels_as_class_ids(tmp_path, capsys):
    # header ids are strings: the label 3 is the annotated class "3", never its pseudo label
    (tmp_path / "s.csv").write_text("3,4\n0.9,0.1\n")
    (tmp_path / "l.jsonl").write_text('{"image_id": 1, "labels": [3]}\n')
    argv = ["dpl", "--scores", str(tmp_path / "s.csv"), "--labels", str(tmp_path / "l.jsonl")]
    assert main(argv + ["--out", str(tmp_path / "out.jsonl"), "--mu", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["mu_t"] == 2.0  # 3 and "3" are one class
    (line,) = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
    assert line["labels"] == [3] and "3" not in line["pseudo"]


def test_dpl_command_rejects_repeated_class_ids(tmp_path, capsys):
    assert main(_dpl_argv(tmp_path, scores="c0,c1,c0\n0.9,0.1,0.9\n0.1,0.1,0.1\n")) == 3
    assert "class ids repeat in the header" in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"version": "0", "config": {}}', "[1, 2]"])
def test_compare_reports_a_file_that_is_not_a_results_file(content, tmp_path, capsys):
    bad = tmp_path / "results.json"
    bad.write_text(content)
    assert main(["compare", str(bad), str(bad)]) == 3
    assert capsys.readouterr().err.startswith(f"E_DATA: {bad}: not a results file")


@pytest.mark.parametrize(
    "spoil, field",
    [
        (lambda r: r["config"].pop("plan"), "config.plan"),
        (lambda r: r["config"].pop("dataset"), "config.dataset"),
        (lambda r: r["config"].update(arm=None), "config.arm"),
        (lambda r: r["aggregates"].pop("last_map"), "aggregates.last_map"),
        (lambda r: r["aggregates"].update(avg_map="high"), "aggregates.avg_map"),
        (lambda r: r.update(aggregates=[]), "aggregates.avg_map"),
        (lambda r: r["aggregates"].update(avg_map=float("nan")), "aggregates.avg_map"),
        (lambda r: r["aggregates"].update(last_cf1=float("inf")), "aggregates.last_cf1"),
        (lambda r: r["aggregates"].update(last_map=-1e308), "aggregates.last_map"),
        (lambda r: r["aggregates"].update(last_of1=100.5), "aggregates.last_of1"),
    ],
    ids=[
        "no_plan", "no_dataset", "null_arm", "no_last_map", "text_avg_map", "list_aggregates",
        "nan_avg_map", "infinite_last_cf1", "negative_last_map", "last_of1_above_100",
    ],
)
def test_compare_rejects_a_results_file_without_a_field_it_reads(spoil, field, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(TINY_RUN + ["--out", str(out)]) == 0
    good = out / "results.json"
    result = json.loads(good.read_text())
    spoil(result)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(result))
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 3
    assert capsys.readouterr().err == f"E_DATA: {bad}: not a results file (bad or missing {field})\n"


def test_run_flags_are_the_documented_set(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"}
    assert flags == set(
        "--config --arm --base --inc --buffer-per-class --buffer-total --lambda --eta0 --mu "
        "--gamma-pos --gamma-neg --epochs --seed --out --set".split()
    )


# every leaf `krt run` accepts besides `buffer` and the dataset file paths
SETTABLE_PATHS = {
    *(f"dataset.{name}" for name in (
        "n_classes", "grid_h", "grid_w", "channels", "avg_labels_per_image", "noise_sigma",
        "co_occurrence", "n_train", "n_test", "seed",
    )),
    "plan.base", "plan.inc", "arm",
    "loss.lambda", "loss.gamma_pos", "loss.gamma_neg", "loss.neg_margin",
    "dpl.eta0", "dpl.mu", "dpl.eta_step", "dpl.tolerance", "dpl.eta_bounds", "dpl.max_iters",
    "ica.d", "ica.heads", "ica.mlp_hidden",
    "optimizer.lr", "optimizer.beta1", "optimizer.beta2",
    "epochs", "batch_size", "seed", "out",
}


def test_every_section_field_is_reached_by_exactly_one_table_path():
    assert {key.path for key in cli._KEYS} == SETTABLE_PATHS
    assert len(cli._KEYS) == len(SETTABLE_PATHS)
    reached = [(key.owner, key.attr) for key in cli._KEYS]
    assert len(set(reached)) == len(reached)
    for owner in (TrainConfig, LossConfig, DplConfig, IcaConfig, GenSpec):
        subsections = {"loss", "dpl"} if owner is TrainConfig else set()
        names = {f.name for f in dataclasses.fields(owner)} - subsections
        assert {attr for o, attr in reached if o is owner} == names, owner.__name__
    assert {attr for o, attr in reached if o is RunConfig} <= {f.name for f in dataclasses.fields(RunConfig)}


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_non_negative = st.one_of(st.integers(0, 100), st.floats(0, 100))
_unit = st.floats(0.01, 0.99)
# values the section dataclasses accept; other paths draw any value of their type
_VALID = {
    "dataset.n_classes": st.integers(3, 40),
    "dataset.grid_h": st.integers(2, 16),
    "dataset.grid_w": st.integers(2, 16),
    "dataset.channels": st.integers(1, 64),
    "dataset.avg_labels_per_image": st.floats(1, 2),
    "dataset.n_train": st.integers(1, 10**6),
    "dataset.n_test": st.integers(1, 10**6),
    "dataset.noise_sigma": _non_negative,
    "dataset.co_occurrence": st.floats(-100, 100),
    "loss.lambda": _non_negative,
    "loss.gamma_pos": _non_negative,
    "loss.gamma_neg": _non_negative,
    "loss.neg_margin": st.floats(0, 1, exclude_max=True),
    "dpl.eta0": _unit,
    "dpl.mu": _non_negative,
    "dpl.eta_step": st.floats(1e-4, 0.5),
    "dpl.tolerance": st.floats(1e-4, 0.5),
    "dpl.eta_bounds": st.tuples(st.floats(0, 0.5), st.floats(0.5, 1)).map(list),
    "dpl.max_iters": st.integers(1, 10**6),
    "ica.d": st.sampled_from([8, 16, 32]),
    "ica.heads": st.sampled_from([1, 2, 4, 8]),
    "ica.mlp_hidden": st.integers(1, 512),
    "optimizer.lr": st.floats(0, 1),
    "optimizer.beta1": st.floats(0, 0.999),
    "optimizer.beta2": st.floats(0, 0.999),
    "epochs": st.integers(1, 1000),
    "batch_size": st.integers(1, 256),
    "out": st.text(max_size=20),
}
_BY_KIND = {int: st.integers(-(2**40), 2**40), float: st.one_of(st.integers(-1000, 1000), _finite)}


def _valid_value(key):
    if key.choices:
        return st.sampled_from(key.choices)
    return _VALID.get(key.path, _BY_KIND.get(key.kind))


def _get(tree, path):
    for name in path.split("."):
        tree = tree[name]
    return tree


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_echo_holds_every_table_value_and_parses_back(data):
    raw = {}
    for key in cli._KEYS:
        if data.draw(st.booleans(), label=f"give {key.path}"):
            cli._put(raw, key.path, data.draw(_valid_value(key), label=key.path))
    requirement = cli._ARM_TABLE[raw.get("arm", RunConfig.arm)][3]
    if requirement == "require" or requirement == "allow" and data.draw(st.booleans()):
        raw["buffer"] = {data.draw(st.sampled_from(["per_class", "total"])): data.draw(st.integers(1, 50))}
    echoed = parse_config(raw).echo()
    for key in cli._KEYS:
        try:
            given_value = _get(raw, key.path)
        except KeyError:
            continue
        held = _get(echoed, key.path)
        assert held == given_value, key.path
        assert type(held) is (float if key.kind is float else type(given_value)), key.path
    assert echoed["buffer"] == raw.get("buffer")
    assert parse_config(echoed).echo() == echoed


# draws lean to the first entries, so the arms that run DPL and ICA lead
_ARMS_DPL_FIRST = ("krt", "krt_no_ica", "krt_r", "kd_baseline", "upper_bound", "ft", "krt_no_dpl", "er")


def _label_rows(k: int):
    """Label matrices of one to five images over k classes; no row is empty (that fails at load)."""
    row = st.sets(st.integers(0, k - 1), min_size=1).map(lambda s: [c in s for c in range(k)])
    return st.lists(row, min_size=1, max_size=5).map(lambda rows: np.array(rows, dtype=bool))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_any_small_dataset_file_runs_or_fails_at_the_boundary(data):
    # empty label columns, one-image splits, classes with no test positive and
    # all-true rows reach training; any of them may fail, but only as a
    # config (2) or data (3) error, and a finished run reports percentages
    assert sorted(_ARMS_DPL_FIRST) == sorted(cli.ARMS)
    k = data.draw(st.integers(2, 5), label="classes")
    names = data.draw(st.permutations([f"c{i}" for i in range(k)]), label="names")
    labels = {split: data.draw(_label_rows(k), label=split) for split in ("train", "test")}
    arm = data.draw(st.sampled_from(_ARMS_DPL_FIRST), label="arm")
    base = data.draw(st.integers(0, k), label="base")
    inc = data.draw(st.sampled_from([i for i in range(1, k + 1) if (k - base) % i == 0]), label="inc")
    raw = {
        "arm": arm,
        "plan": {"base": base, "inc": inc},
        "ica": {"d": 8, "heads": 2},
        "epochs": 1,
        "batch_size": data.draw(st.integers(1, 4), label="batch_size"),
        "seed": 0,
    }
    if cli._ARM_TABLE[arm][3] == "require":
        raw["buffer"] = {"per_class": data.draw(st.integers(1, 2), label="per_class")}
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis reruns the body; tmp_path would be shared
        tmp = Path(tmp)
        raw["dataset"] = {f"{split}_path": str(tmp / f"{split}.bin") for split in labels}
        raw["out"] = str(tmp / "out")
        for first_id, (split, rows) in zip((1, 100), labels.items()):
            features = rng.standard_normal((len(rows), 2, 2, 2)).astype(np.float32)
            ids = np.arange(first_id, first_id + len(rows), dtype=np.uint64)
            save_dataset(Dataset(names, ids, features, rows), raw["dataset"][f"{split}_path"])
        (tmp / "config.json").write_text(json.dumps(raw))
        code = main(["run", "--config", str(tmp / "config.json")])
        assert code in (0, 2, 3)
        if code == 0:
            aggregates = json.loads((tmp / "out" / "results.json").read_text())["aggregates"]
            assert all(0.0 <= value <= 100.0 for value in aggregates.values()), aggregates
