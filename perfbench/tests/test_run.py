import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import guard
import krt.cli as krt_cli
import probe
import run
from test_tracer import tiny_config
from tracer import Tracer
from workloads import WORKLOADS, data_seeds, run_config

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def three_sessions(out, seed=3):
    return tiny_config(out, seed=seed, plan={"base": 0, "inc": 2})


def test_failing_session_is_counted(tmp_path, monkeypatch):
    real = probe.krt_protocol.evaluate_cumulative

    def nan_on_session_two(model, plan, t, test, *args, **kwargs):
        record = real(model, plan, t, test, *args, **kwargs)
        if t == 2:
            record.map = math.nan
        return record

    monkeypatch.setattr(probe.krt_protocol, "evaluate_cumulative", nan_on_session_two)
    sample, _ = probe.run_once(three_sessions(tmp_path / "nan"), probe.BOUNDARY, planned=3)
    assert (sample.attempted, sample.failed) == (3, 1)
    assert any("session 2" in p for p in sample.problems)


def test_raising_session_fails_it_and_the_rest(tmp_path, monkeypatch):
    real = probe.krt_protocol.evaluate_cumulative

    def raise_on_session_two(model, plan, t, test, *args, **kwargs):
        if t == 2:
            raise RuntimeError("injected")
        return real(model, plan, t, test, *args, **kwargs)

    monkeypatch.setattr(probe.krt_protocol, "evaluate_cumulative", raise_on_session_two)
    sample, _ = probe.run_once(three_sessions(tmp_path / "raise"), probe.BOUNDARY, planned=3)
    assert (sample.attempted, sample.failed) == (3, 2)
    assert sample.aggregates is None


def test_results_file_must_match_the_returned_result(tmp_path, monkeypatch):
    real = probe.krt_cli._write_outputs

    def write_then_corrupt(out_dir, result):
        real(out_dir, result)
        path = Path(out_dir) / "results.json"
        data = json.loads(path.read_text())
        data["sessions"][0]["map"] += 1.0
        path.write_text(json.dumps(data))

    monkeypatch.setattr(probe.krt_cli, "_write_outputs", write_then_corrupt)
    sample, _ = probe.run_once(three_sessions(tmp_path / "bad"), probe.BOUNDARY, planned=3)
    assert sample.failed == 1


def test_same_seed_same_maps(tmp_path):
    a, _ = probe.run_once(three_sessions(tmp_path / "a"), probe.BOUNDARY, planned=3)
    b, _ = probe.run_once(three_sessions(tmp_path / "b"), probe.BOUNDARY, planned=3)
    c, _ = probe.run_once(three_sessions(tmp_path / "c", seed=4), probe.BOUNDARY, planned=3)
    assert a.failed == b.failed == c.failed == 0
    assert a.aggregates["avg_map"] == b.aggregates["avg_map"]
    assert a.aggregates["last_map"] == b.aggregates["last_map"]
    assert a.aggregates != c.aggregates
    assert run._agree([a, b, c]) == []
    changed = dataclasses.replace(b, aggregates={**b.aggregates, "last_map": 0.0})
    assert run._agree([a, changed]) != []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_workload_data(name):
    assert "seed" not in WORKLOADS[name]["config"]["dataset"]
    assert set(data_seeds(name, 0)).isdisjoint(data_seeds(name, 1))
    data = []
    for seed in (0, 1):
        cfg = krt_cli.parse_config(run_config(name, seed, "unused"))
        train, _, _ = krt_cli._load_data(cfg)
        data.append(np.stack([ex.features for ex in train.examples[:50]]))
    again = krt_cli._load_data(krt_cli.parse_config(run_config(name, 0, "unused")))[0]
    assert not np.array_equal(data[0], data[1])
    assert np.array_equal(data[0], np.stack([ex.features for ex in again.examples[:50]]))


def test_setup_stops_at_the_first_session(tmp_path):
    cfg = three_sessions(tmp_path / "setup")
    assert 0 < probe.measure_setup(cfg) < 5
    assert probe.krt_protocol.train_session.__name__ == "train_session"
    assert not (tmp_path / "setup").exists()


def test_step_gaps_skip_the_first_step_of_each_session(tmp_path):
    sample, tracer = probe.run_once(three_sessions(tmp_path / "gaps"), probe.BOUNDARY, planned=3)
    steps = tracer.calls[probe.STEP_SPAN]
    assert len(sample.step_gaps_s) == 3
    assert sum(len(gaps) for gaps in sample.step_gaps_s) == steps - 3
    assert 0 < sample.setup_s < sample.run_s
    assert sample.train_items > 0 and sample.eval_images > 0


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "joint", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]]["why"] for w in spec["workloads"])

    class NoRun:
        pseudo_recall = None

    layer_names = list(probe.layer_metrics(Tracer([]), NoRun())) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names


def test_a_name_gone_from_krt_fails_the_traced_run(tmp_path, monkeypatch):
    from test_tracer import ALL, originals

    monkeypatch.delattr(probe.krt_tensor, "gelu")
    before = originals([t for t in ALL if t.attr != "gelu"])
    with pytest.raises(KeyError):
        probe.run_once(three_sessions(tmp_path / "gone"), ALL, planned=3)
    assert originals([t for t in ALL if t.attr != "gelu"]) == before


def test_guard_flags_maps_away_from_the_pinned_ones():
    pinned = json.loads(guard.REFERENCE.read_text())["incr_small"]

    def scaled(share):
        return {key: share * pinned[key] for key in guard.KEYS}

    assert guard.check("incr_small", scaled(1.0)) == []
    assert guard.check("incr_small", scaled(0.997)) == []
    assert guard.check("incr_small", scaled(1.003)) == []
    assert len(guard.check("incr_small", scaled(0.99))) == 2
    assert len(guard.check("incr_small", scaled(1.01))) == 2
    assert guard.check("incr_small", None) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_guard_matches_the_pinned_maps(tmp_path, name):
    sample = guard.run_guard(name, str(tmp_path / "guard"))
    assert sample.failed == 0 and not sample.problems
    pinned = json.loads(guard.REFERENCE.read_text())[name]
    assert {key: sample.aggregates[key] for key in guard.KEYS} == pinned
