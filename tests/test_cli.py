import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import krt
from krt.cli import main, parse_config
from krt.seeds import substream_seed


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


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_echo_derives_the_dataset_seed_from_the_master_seed():
    for seed in (0, 1):
        echoed = parse_config({"seed": seed}).echo()
        assert echoed["dataset"]["seed"] == substream_seed(seed, "datagen")


def _echo_round_trip_configs():
    workloads = _load_workloads()
    configs = [workloads.run_config(name, 3, "runs/x") for name in workloads.WORKLOADS]
    configs.append({"dataset": {"train_path": "train.krtd", "test_path": "test.krtd"}})
    return configs


@pytest.mark.parametrize("raw", _echo_round_trip_configs())
def test_echo_parses_back_to_the_same_config(raw):
    cfg = parse_config(raw)
    assert parse_config(cfg.echo()).echo() == cfg.echo()
