import time
import types

import pytest

import krt.cli as krt_cli
import probe
from tracer import Target, Tracer


def tiny_config(out, seed=3, **overrides):
    raw = {
        "arm": "krt_r",
        "buffer": {"per_class": 2},
        "dataset": {"n_classes": 6, "grid_h": 4, "grid_w": 4, "channels": 4,
                    "avg_labels_per_image": 1.8, "n_train": 60, "n_test": 30},
        "plan": {"base": 0, "inc": 3},
        "ica": {"d": 8, "heads": 2},
        "epochs": 1,
        "seed": seed,
        "out": str(out),
        **overrides,
    }
    return krt_cli.parse_config(raw)


ALL = probe.BOUNDARY + probe.LAYERS


def originals(targets):
    return {t.key: t.owner.__dict__[t.attr] for t in targets}


def test_every_wrapped_name_exists_and_is_entered(tmp_path):
    sample, tracer = probe.run_once(tiny_config(tmp_path / "run"), ALL, planned=2)
    assert sample.failed == 0 and not sample.problems
    never = [t.key for t in ALL if tracer.entered[t.key] == 0]
    assert never == []


def test_traced_and_untraced_runs_are_bit_identical(tmp_path):
    plain = krt_cli.run(tiny_config(tmp_path / "plain"))
    boundary, _ = probe.run_once(tiny_config(tmp_path / "boundary"), probe.BOUNDARY, planned=2)
    traced, _ = probe.run_once(tiny_config(tmp_path / "traced"), ALL, planned=2)
    assert boundary.aggregates == plain.aggregates
    assert traced.aggregates == plain.aggregates
    assert traced.sessions == plain.sessions


def test_no_wrapper_left_installed(tmp_path, monkeypatch):
    before = originals(ALL)
    probe.run_once(tiny_config(tmp_path / "ok"), ALL, planned=2)
    assert originals(ALL) == before

    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(probe.krt_protocol, "token_loss", boom)
    patched = originals(ALL)
    sample, tracer = probe.run_once(tiny_config(tmp_path / "raises"), ALL, planned=2)
    assert sample.failed == 1
    assert tracer.leftovers() == []
    assert originals(ALL) == patched


def test_layer_metrics_cover_the_traced_run(tmp_path):
    sample, tracer = probe.run_once(tiny_config(tmp_path / "run"), ALL, planned=2)
    m = probe.layer_metrics(tracer, sample)
    assert m["protocol.student_fwd_calls"] == m["optim.adam_calls"] > 0
    assert m["protocol.teacher_fwd_calls"] > 0 and m["dpl.threshold_evals"] > 0
    assert m["protocol.session_train_s.t2"] > 0 and m["protocol.session_train_s.t3"] == 0
    assert m["tensor.tensors_created"] > m["tensor.op.affine.calls"] > 0
    assert m["ica.embeddings"] >= m["ica.forward_calls"] > 0


def test_self_time_excludes_children():
    fake = types.ModuleType("fake")

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        fake.inner()

    fake.inner, fake.outer = inner, outer
    with Tracer([Target(fake, "outer", "outer"), Target(fake, "inner", "inner")]) as tr:
        fake.outer()
    assert fake.outer is outer and fake.inner is inner
    (o,), (i,) = tr.spans("outer"), tr.spans("inner")
    assert tr.span_parent[i] == o and tr.span_parent[o] == -1
    assert tr.self_s["outer"] == pytest.approx(tr.total_s["outer"] - tr.total_s["inner"])
    assert 0.005 < tr.self_s["outer"] < tr.total_s["inner"]


def test_a_renamed_name_fails_loudly():
    fake = types.ModuleType("fake")
    with pytest.raises(KeyError):
        with Tracer([Target(fake, "gone", "gone")]):
            pass
