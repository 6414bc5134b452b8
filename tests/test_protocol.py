import math

import numpy as np
import pytest

import krt.protocol as protocol
from krt import tensor as T
from krt.datagen import GenSpec, generate
from krt.dpl import DplConfig
from krt.ica import IcaConfig
from krt.losses import LossConfig
from krt.protocol import (
    ArmFlags,
    RehearsalBuffer,
    TrainConfig,
    assign_examples,
    build_plan,
    evaluate_cumulative,
    expand_for_session,
    forward_logits,
    init_model,
    run_incremental,
    snapshot_model,
    teacher_pass,
    train_session,
)
from krt.seeds import substream_rng


def tiny_data(n_classes=6, n_train=120, n_test=60, seed=5):
    spec = GenSpec(
        n_classes=n_classes, grid_h=4, grid_w=4, channels=4,
        avg_labels_per_image=1.8, noise_sigma=0.05,
        n_train=n_train, n_test=n_test, seed=seed,
    )
    return generate(spec)


def tiny_config(epochs=2):
    return TrainConfig(
        epochs=epochs,
        batch_size=16,
        lr=1e-3,
        loss=LossConfig(lam=10.0),
        dpl=DplConfig(),
    )


def tiny_ica(d=8, heads=2):
    return IcaConfig(d=d, heads=heads, mlp_hidden=2 * d)


class TestBuildPlan:
    def test_b0_c10_on_80(self):
        names = [f"class_{i:03d}" for i in range(80)]
        plan = build_plan(names, base=0, inc=10)
        assert plan.n_sessions == 8
        assert all(len(s) == 10 for s in plan.session_classes)

    def test_b10_c2_on_20(self):
        names = [f"class_{i:03d}" for i in range(20)]
        plan = build_plan(names, base=10, inc=2)
        assert plan.n_sessions == 6
        assert [len(s) for s in plan.session_classes] == [10, 2, 2, 2, 2, 2]

    def test_joint_upper_bound_plan(self):
        names = [f"class_{i:03d}" for i in range(12)]
        plan = build_plan(names, base=12, inc=0)
        assert plan.n_sessions == 1
        assert len(plan.session_classes[0]) == 12

    def test_disjoint_cover(self):
        names = [f"class_{i:03d}" for i in range(20)]
        plan = build_plan(names, base=5, inc=3)
        seen = set()
        for s in plan.session_classes:
            assert not (set(s) & seen)
            seen |= set(s)
        assert seen == set(range(20))

    def test_indivisible_remainder_rejected(self):
        with pytest.raises(ValueError):
            build_plan([f"c{i}" for i in range(10)], base=3, inc=4)

    def test_lexicographic_assignment(self):
        plan = build_plan(["b", "a", "d", "c"], base=2, inc=2)
        assert plan.class_order == ["a", "b", "c", "d"]
        assert plan.session_classes == [[0, 1], [2, 3]]


class TestAssignExamples:
    def test_train_membership_and_test_disjointness(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        for s, classes in enumerate(plan.session_classes):
            for i in plan.train_indices[s]:
                assert train.examples[i].labels & set(classes)
        all_test = [i for s in range(plan.n_sessions) for i in plan.test_indices[s]]
        assert len(all_test) == len(set(all_test))
        assert len(all_test) == len(test.examples)  # union covers, sets disjoint


class TestForward:
    def test_logit_count_tracks_sessions(self):
        train, test, names = tiny_data()
        rng = substream_rng(0, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 3, rng)
        out = forward_logits(model, train.features_array([0, 1]))
        assert out.logits.shape == (2, 3)
        expand_for_session(model, 2, rng)
        out = forward_logits(model, train.features_array([0, 1]))
        assert out.logits.shape == (2, 5)
        assert len(out.embeddings) == 2

    def test_expansion_keeps_old_logits_bit_identical(self):
        train, _, _ = tiny_data()
        rng = substream_rng(1, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 3, rng)
        images = train.features_array([0, 1, 2])
        before = forward_logits(model, images).logits.data.copy()
        expand_for_session(model, 2, rng)
        after = forward_logits(model, images).logits.data
        assert np.array_equal(before, after[:, :3])

    def test_pooled_path_when_ica_off(self):
        train, _, _ = tiny_data()
        rng = substream_rng(2, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(use_ica=False), rng)
        expand_for_session(model, 3, rng)
        out = forward_logits(model, train.features_array([0]))
        assert out.embeddings == []
        assert out.pooled.shape == (1, 8)
        assert out.logits.shape == (1, 3)

    def test_forward_deterministic(self):
        train, _, _ = tiny_data()
        rng = substream_rng(3, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 2, rng)
        images = train.features_array([0, 1])
        a = forward_logits(model, images).logits.data
        b = forward_logits(model, images).logits.data
        assert np.array_equal(a, b)


class TestBuffer:
    def test_none_policy_stays_empty(self):
        buf = RehearsalBuffer(("none",))
        buf.update([0, 1], [(1, np.zeros(2), {0})], substream_rng(0, "buffer"))
        assert len(buf) == 0

    def test_capped_by_availability(self):
        buf = RehearsalBuffer(("per_class", 2))
        items = [(7, np.zeros(2), {0})]
        buf.update([0], items, substream_rng(1, "buffer"))
        assert len(buf) == 1
        assert buf.class_refs[0] == [7]

    def test_dedup_image_with_two_new_classes(self):
        buf = RehearsalBuffer(("per_class", 2))
        items = [(7, np.zeros(2), {0, 1})]
        buf.update([0, 1], items, substream_rng(2, "buffer"))
        assert len(buf) == 1  # stored once
        assert buf.class_refs[0] == [7] and buf.class_refs[1] == [7]  # referenced twice

    def test_per_class_quota(self):
        rng = substream_rng(3, "buffer")
        items = [(i, np.zeros(2), {0}) for i in range(10)]
        buf = RehearsalBuffer(("per_class", 3))
        buf.update([0], items, rng)
        assert len(buf.class_refs[0]) == 3

    def test_total_policy_evicts_to_capacity(self):
        rng = substream_rng(4, "buffer")
        buf = RehearsalBuffer(("total", 4))
        items = [(i, np.zeros(2), {i % 2}) for i in range(20)]
        buf.update([0, 1], items, rng)
        assert len(buf) <= 4
        for refs in buf.class_refs.values():
            for r in refs:
                assert r in buf.store

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RehearsalBuffer(("herding", 5))


class TestSnapshot:
    def test_snapshot_immutable_through_training(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(11, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        buffer = RehearsalBuffer(("none",))
        cfg = tiny_config(epochs=1)
        out1 = train_session(model, plan, 1, train, test, buffer, None, cfg, rngs)
        snap = out1.snapshot
        frozen = {name: t.data.copy() for name, t in snap.named_parameters()}
        train_session(model, plan, 2, train, test, buffer, snap, cfg, rngs)
        for name, t in snap.named_parameters():
            assert np.array_equal(frozen[name], t.data), name

    def test_frozen_kr_tokens_survive_session_end_to_end(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(12, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        buffer = RehearsalBuffer(("none",))
        cfg = tiny_config(epochs=1)
        out1 = train_session(model, plan, 1, train, test, buffer, None, cfg, rngs)
        kr1 = model.ica.kr_tokens[0].data.copy()
        train_session(model, plan, 2, train, test, buffer, out1.snapshot, cfg, rngs)
        assert np.array_equal(kr1, model.ica.kr_tokens[0].data)
        assert model.ica.frozen_flags == [True, False]


class TestTrainSession:
    def test_first_session_runs_without_snapshot(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(13, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        out = train_session(model, plan, 1, train, test, RehearsalBuffer(), None, tiny_config(1), rngs)
        assert out.dpl_report is None
        assert out.metrics.session == 1
        assert 0.0 <= out.metrics.map <= 100.0

    def test_second_session_requires_snapshot_for_krt(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(14, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        train_session(model, plan, 1, train, test, RehearsalBuffer(), None, tiny_config(1), rngs)
        with pytest.raises(ValueError, match="snapshot"):
            train_session(model, plan, 2, train, test, RehearsalBuffer(), None, tiny_config(1), rngs)

    def test_zero_lr_training_is_metric_noop(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=6, inc=0)
        assign_examples(plan, train, test)
        flags = ArmFlags(use_dpl=False)

        def zero_lr_run(epochs):
            rngs = {n: substream_rng(15, n) for n in ("init", "shuffle", "buffer")}
            model = init_model((4, 4, 4), tiny_ica(), flags, rngs["init"])
            init_params = {n: t.data.copy() for n, t in model.named_parameters()}
            cfg = tiny_config(epochs=epochs)
            cfg.lr = 0.0
            train_session(model, plan, 1, train, test, RehearsalBuffer(), None, cfg, rngs)
            for name, t in model.named_parameters():
                if name in init_params:
                    assert np.array_equal(init_params[name], t.data), name
            return evaluate_cumulative(model, plan, 1, test)

        before = zero_lr_run(epochs=1)
        after = zero_lr_run(epochs=3)
        assert before.map == after.map
        assert before.cf1 == after.cf1

    def test_dpl_restores_old_labels_into_targets(self):
        train, test, names = tiny_data(n_train=200)
        plan = build_plan(names, base=3, inc=3)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(16, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(d=16, heads=2), ArmFlags(), rngs["init"])
        cfg = TrainConfig(epochs=6, batch_size=16, lr=2e-3, loss=LossConfig(lam=10.0), dpl=DplConfig())
        out1 = train_session(model, plan, 1, train, test, RehearsalBuffer(), None, cfg, rngs)
        out2 = train_session(model, plan, 2, train, test, RehearsalBuffer(), out1.snapshot, cfg, rngs)
        assert out2.dpl_report is not None
        assert out2.dpl_report.mu_t == pytest.approx((3 / 6) * cfg.dpl.mu)
        assert out2.pseudo_recall is None or 0.0 <= out2.pseudo_recall <= 1.0


class TestTeacherPass:
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_snapshot_runs_once_per_session(self, monkeypatch, epochs):
        train, test, names = tiny_data(n_train=200)
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(19, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        cfg = tiny_config(epochs=epochs)
        chunk = 4 * cfg.batch_size
        seen = {"snapshot": None, "calls": 0, "rows": 0}
        real_forward = protocol.forward_logits

        def counting_forward(model_, images, *args, **kwargs):
            if model_ is seen["snapshot"]:
                seen["calls"] += 1
                seen["rows"] += len(images)
            return real_forward(model_, images, *args, **kwargs)

        monkeypatch.setattr(protocol, "forward_logits", counting_forward)
        snap = None
        for t in range(1, plan.n_sessions + 1):
            seen.update(snapshot=snap, calls=0, rows=0)
            out = train_session(model, plan, t, train, test, RehearsalBuffer(), snap, cfg, rngs)
            snap = out.snapshot
            if t >= 2:
                n_items = len(plan.train_indices[t - 1])
                assert n_items > chunk
                assert seen["rows"] == n_items
                assert seen["calls"] == math.ceil(n_items / chunk)

    @pytest.mark.parametrize(
        "flags", [ArmFlags(), ArmFlags(use_dpl=False, use_ica=False, use_kd=True)]
    )
    def test_gathered_rows_match_a_batch_forward(self, flags):
        train, _, _ = tiny_data()
        rng = substream_rng(20, "init")
        model = init_model((4, 4, 4), tiny_ica(), flags, rng)
        expand_for_session(model, 3, rng)
        expand_for_session(model, 2, rng)
        snap = snapshot_model(model)
        features = train.features_array(list(range(50)))
        probs, embeddings, pooled = teacher_pass(snap, features, chunk=16)
        sel = np.random.default_rng(0).permutation(50)[:16]
        direct = forward_logits(snap, features[sel])
        assert np.allclose(probs[sel], T.sigmoid(direct.logits).data, rtol=0, atol=1e-12)
        assert len(embeddings) == len(direct.embeddings)
        for gathered, e in zip(embeddings, direct.embeddings):
            assert np.allclose(gathered[sel], e.data, rtol=0, atol=1e-12)
        if flags.use_ica:
            assert len(embeddings) == 2 and pooled is None
        else:
            assert np.allclose(pooled[sel], direct.pooled.data, rtol=0, atol=1e-12)


class TestRunIncremental:
    def test_determinism_across_runs(self):
        train, test, names = tiny_data()
        plan1 = build_plan(names, base=2, inc=2)
        plan2 = build_plan(names, base=2, inc=2)
        cfg = tiny_config(epochs=1)
        runs = []
        for plan in (plan1, plan2):
            outcomes = run_incremental(
                train, test, plan, ArmFlags(), tiny_ica(), cfg, master_seed=77
            )
            runs.append([o.metrics.to_dict() for o in outcomes])
        assert runs[0] == runs[1]

    def test_session_count_and_cumulative_metrics(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        outcomes = run_incremental(
            train, test, plan, ArmFlags(use_dpl=False), tiny_ica(), tiny_config(1), 5
        )
        assert len(outcomes) == 3
        assert [o.metrics.session for o in outcomes] == [1, 2, 3]
        # later sessions evaluate over more classes
        assert len(outcomes[2].metrics.per_class_ap) == 6



class TestModelDtype:
    @pytest.mark.parametrize(
        "flags",
        [
            ArmFlags(),  # krt: ICA, DPL and the token loss
            ArmFlags(buffer_policy=("per_class", 3)),  # krt_r
            ArmFlags(use_dpl=False, use_ica=False, use_kd=True),  # kd_baseline
        ],
        ids=["krt", "krt_r", "kd_baseline"],
    )
    def test_training_teacher_and_eval_stay_float32(self, monkeypatch, flags):
        train, test, names = tiny_data()
        plan = build_plan(names, base=3, inc=3)
        seen = {"optimizers": [], "records": set(), "grads": set(), "teacher": set()}

        class RecordingTape(T.Tape):
            def clear(self):
                seen["records"] |= {out.dtype for out, _ in self._records}
                super().clear()

        class RecordingAdam(protocol.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen["optimizers"].append(self)

            def step(self):
                seen["grads"] |= {p.grad.dtype for p in self.params if p.grad is not None}
                super().step()

        def recording_teacher(*args, **kwargs):
            probs, embeddings, pooled = real_teacher(*args, **kwargs)
            arrays = [probs, *embeddings] + ([] if pooled is None else [pooled])
            seen["teacher"] |= {a.dtype for a in arrays}
            return probs, embeddings, pooled

        def checked_session(model, *args, **kwargs):
            outcome = real_session(model, *args, **kwargs)
            opt = seen["optimizers"][-1]
            snap = outcome.snapshot
            arrays = [t.data for _, t in model.named_parameters()] + opt._m + opt._v
            arrays += [t.data for _, t in snap.named_parameters()] + [snap.pos_enc.data]
            assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
            return outcome

        real_teacher, real_session = protocol.teacher_pass, protocol.train_session
        monkeypatch.setattr(protocol, "Tape", RecordingTape)
        monkeypatch.setattr(protocol, "Adam", RecordingAdam)
        monkeypatch.setattr(protocol, "teacher_pass", recording_teacher)
        monkeypatch.setattr(protocol, "train_session", checked_session)
        outcomes = run_incremental(train, test, plan, flags, tiny_ica(), tiny_config(1), 3)
        assert len(outcomes) == 2 and len(seen["optimizers"]) == 2
        f32 = {np.dtype(np.float32)}
        assert seen["records"] == f32
        assert seen["grads"] == f32
        assert seen["teacher"] == f32

    def test_float64_images_are_cast_to_the_model_dtype(self):
        train, _, _ = tiny_data()
        rng = substream_rng(21, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 3, rng)
        out = forward_logits(model, train.features_array([0, 1]).astype(np.float64))
        assert out.logits.dtype == np.float32
        assert all(e.dtype == np.float32 for e in out.embeddings)
