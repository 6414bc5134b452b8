import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import krt.protocol as protocol
from krt import cli
from krt import tensor as T
from krt.datagen import GenSpec, generate, load_dataset, save_dataset
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
    infer,
    init_model,
    run_incremental,
    snapshot_model,
    train_session,
)
from krt.seeds import substream_rng

from oracles import step_loss_oracle


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
        # sessions take the names in sorted order and list them as columns of the input
        plan = build_plan(["b", "a", "d", "c"], base=2, inc=2)
        assert plan.class_order == ["a", "b", "c", "d"]
        assert plan.session_classes == [[1, 0], [3, 2]]
        assert build_plan(["c", "a", "b"], base=0, inc=1).session_classes == [[1], [2], [0]]

    def test_repeated_class_names_rejected(self):
        # a repeated name would train one column twice and another never
        with pytest.raises(ValueError, match="class names repeat"):
            build_plan(["a", "a", "b", "b"], base=0, inc=2)

    def test_first_session_trains_the_first_name_of_a_loaded_file(self, tmp_path):
        train, test, names = tiny_data()
        flipped = names[::-1]  # column 0 is now the last name, column 5 the first
        for ds, name in ((train, "train.mlds"), (test, "test.mlds")):
            ds.class_names = flipped
            save_dataset(ds, str(tmp_path / name))
        loaded = load_dataset(str(tmp_path / "train.mlds"))
        plan = build_plan(loaded.class_names, base=2, inc=2)
        assert plan.session_classes[0] == [5, 4]
        assert [loaded.class_names[k] for k in plan.session_classes[0]] == sorted(names)[:2]
        assign_examples(plan, loaded, load_dataset(str(tmp_path / "test.mlds")))
        holds = loaded.labels[:, [5, 4]].any(axis=1)
        assert plan.train_indices[0] == np.flatnonzero(holds).tolist()


class TestAssignExamples:
    def test_train_membership_and_test_disjointness(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        train_sets = [ex.labels for ex in train.examples]
        test_sets = [ex.labels for ex in test.examples]
        for s, classes in enumerate(plan.session_classes):
            assert plan.train_indices[s] == [i for i, ls in enumerate(train_sets) if ls & set(classes)]
            for i in plan.test_indices[s]:
                owners = [s2 for s2, c in enumerate(plan.session_classes) if test_sets[i] & set(c)]
                assert min(owners) == s
        all_test = [i for s in range(plan.n_sessions) for i in plan.test_indices[s]]
        assert len(all_test) == len(set(all_test))
        assert len(all_test) == len(test)  # union covers, sets disjoint


class TestForward:
    def test_logit_count_tracks_sessions(self):
        train, test, names = tiny_data()
        rng = substream_rng(0, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 3, rng)
        out = forward_logits(model, train.features[[0, 1]])
        assert out.logits.shape == (2, 3)
        expand_for_session(model, 2, rng)
        out = forward_logits(model, train.features[[0, 1]])
        assert out.logits.shape == (2, 5)
        assert out.embeddings.shape == (2, 2, 8)

    def test_expansion_keeps_old_logits_bit_identical(self):
        train, _, _ = tiny_data()
        rng = substream_rng(1, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 3, rng)
        images = train.features[[0, 1, 2]]
        before = forward_logits(model, images).logits.data.copy()
        expand_for_session(model, 2, rng)
        after = forward_logits(model, images).logits.data
        assert np.array_equal(before, after[:, :3])

    def test_pooled_path_when_ica_off(self):
        train, _, _ = tiny_data()
        rng = substream_rng(2, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(use_ica=False), rng)
        expand_for_session(model, 3, rng)
        out = forward_logits(model, train.features[[0]])
        assert out.embeddings is None
        assert out.pooled.shape == (1, 8)
        assert out.logits.shape == (1, 3)

    def test_forward_deterministic(self):
        train, _, _ = tiny_data()
        rng = substream_rng(3, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 2, rng)
        images = train.features[[0, 1]]
        a = forward_logits(model, images).logits.data
        b = forward_logits(model, images).logits.data
        assert np.array_equal(a, b)


def one_hot_rows(*label_sets, k=4):
    visible = np.zeros((len(label_sets), k), dtype=bool)
    for row, cols in enumerate(label_sets):
        visible[row, sorted(cols)] = True
    return visible


class TestBuffer:
    def test_none_policy_stays_empty(self):
        buf = RehearsalBuffer(("none",))
        buf.update([0, 1], np.array([1]), one_hot_rows({0}), substream_rng(0, "buffer"))
        assert len(buf) == 0

    def test_capped_by_availability(self):
        buf = RehearsalBuffer(("per_class", 2))
        buf.update([0], np.array([7]), one_hot_rows({0}), substream_rng(1, "buffer"))
        assert list(buf.known) == [7]

    def test_dedup_image_with_two_new_classes(self):
        buf = RehearsalBuffer(("per_class", 2))
        buf.update([0, 1], np.array([7]), one_hot_rows({0, 1}), substream_rng(2, "buffer"))
        assert list(buf.known) == [7]  # stored once, for both classes
        assert buf.known[7].tolist() == [True, True, False, False]

    def test_stores_only_the_sessions_columns_and_merges_later_ones(self):
        buf = RehearsalBuffer(("per_class", 1))
        # row 7's visible labels include an old class (3) from an earlier exemplar
        buf.update([0], np.array([7]), one_hot_rows({0, 3}), substream_rng(5, "buffer"))
        assert buf.known[7].tolist() == [True, False, False, False]
        buf.update([1], np.array([7]), one_hot_rows({1, 3}), substream_rng(5, "buffer"))
        assert buf.known[7].tolist() == [True, True, False, False]

    def test_per_class_quota(self):
        rng = substream_rng(3, "buffer")
        buf = RehearsalBuffer(("per_class", 3))
        index = np.arange(100, 110)
        buf.update([0], index, one_hot_rows(*[{0}] * 10), rng)
        assert len(buf) == 3 and set(buf.known) <= set(index.tolist())
        assert all(type(row) is int for row in buf.known)

    def test_total_policy_evicts_to_capacity(self):
        rng = substream_rng(4, "buffer")
        buf = RehearsalBuffer(("total", 4))
        visible = one_hot_rows(*[{i % 2} for i in range(20)])
        buf.update([0, 1], np.arange(20), visible, rng)  # quota 2 per class, then evict to 4
        assert len(buf) == 4 and buf.classes_seen == 2
        for row, labels in buf.known.items():
            assert labels.tolist() == visible[row].tolist()

    def test_total_quota_shrinks_with_the_classes_seen(self):
        buf = RehearsalBuffer(("total", 6))
        buf.update([0], np.arange(10), one_hot_rows(*[{0}] * 10), substream_rng(6, "buffer"))
        assert len(buf) == 6  # 6 // 1 class
        new = one_hot_rows(*[{1}] * 10)
        buf.update([1], np.arange(10, 20), new, substream_rng(6, "buffer"))
        assert buf.classes_seen == 2
        assert sum(row >= 10 for row in buf.known) <= 3  # 6 // 2 classes
        assert len(buf) == 6

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            RehearsalBuffer(("herding", 5))


class TestSessionRows:
    def test_exemplars_merge_into_the_sessions_own_images(self):
        train, test, names = tiny_data(n_train=200)
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        own = plan.train_indices[1]
        others = [i for i in plan.train_indices[0] if i not in own]
        first = np.zeros(len(names), dtype=bool)
        first[plan.session_classes[0]] = True
        buffer = RehearsalBuffer(("per_class", 5))
        # two of session 2's own images (stored out of order) and two images it does not have
        for i in [own[3], own[0], others[1], others[0]]:
            buffer.known[i] = train.labels[i] & first

        index, visible, exemplar = protocol._session_rows(plan, train, 2, buffer)

        current = np.zeros(len(names), dtype=bool)
        current[plan.session_classes[1]] = True
        assert index.tolist() == own + others[:2]  # replayed images follow in row order
        merged = [i in (own[0], own[3]) for i in own]
        assert exemplar.tolist() == merged + [True, True]
        for row, i in enumerate(own):
            want = train.labels[i] & (current | first if merged[row] else current)
            assert visible[row].tolist() == want.tolist()
        for row, i in enumerate(others[:2], start=len(own)):
            assert visible[row].tolist() == buffer.known[i].tolist()
            assert not np.shares_memory(visible, buffer.known[i])

    def test_empty_buffer_gives_the_sessions_own_rows(self):
        train, test, names = tiny_data()
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        index, visible, exemplar = protocol._session_rows(plan, train, 3, RehearsalBuffer())
        assert index.tolist() == plan.train_indices[2] and not exemplar.any()
        cols = plan.session_classes[2]
        assert np.array_equal(visible[:, cols], train.labels[np.ix_(index, cols)])
        assert not np.delete(visible, cols, axis=1).any()


class TestEvaluateCumulative:
    def test_chunked_scores_match_one_forward(self, monkeypatch):
        spec = GenSpec(
            n_classes=6, grid_h=14, grid_w=14, channels=8, avg_labels_per_image=1.8,
            n_train=4, n_test=37, seed=9,
        )
        train, test, names = generate(spec)
        plan = build_plan(names, base=6, inc=0)
        assign_examples(plan, train, test)
        rng = substream_rng(23, "init")
        model = init_model((14, 14, 8), IcaConfig(d=128, heads=8), ArmFlags(), rng)
        expand_for_session(model, 6, rng)
        sizes, seen = [], {}
        real_forward, real_evaluate = protocol.forward_logits, protocol.evaluate

        def recording_forward(model_, images):
            sizes.append(len(images))
            return real_forward(model_, images)

        def recording_evaluate(scores, truths, session):
            seen["scores"] = scores
            return real_evaluate(scores, truths, session=session)

        monkeypatch.setattr(protocol, "forward_logits", recording_forward)
        monkeypatch.setattr(protocol, "evaluate", recording_evaluate)
        monkeypatch.setattr(protocol, "INFER_CHUNK", 20)
        evaluate_cumulative(model, plan, 1, test)
        assert sizes == [20, 17]
        whole = real_forward(model, test.features[plan.test_indices[0]])
        want = T.sigmoid(whole.logits).data
        # not bit-equal in general: a GEMM rounds its rows by their count
        assert want.dtype == np.float32
        assert np.max(np.abs(seen["scores"] - want)) <= 4 * np.finfo(np.float32).eps


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
        assert [kr.requires_grad for kr in model.ica.kr_tokens] == [False, True]


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

    def test_dpl_restores_old_labels_into_targets(self, monkeypatch):
        train, test, names = tiny_data(n_train=200)
        plan = build_plan(names, base=3, inc=3)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(16, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(d=16, heads=2), ArmFlags(), rngs["init"])
        cfg = TrainConfig(epochs=6, batch_size=16, lr=2e-3, loss=LossConfig(lam=10.0), dpl=DplConfig())
        out1 = train_session(model, plan, 1, train, test, RehearsalBuffer(), None, cfg, rngs)
        batches, real_asl = [], protocol.asl_loss

        def recording_asl(probs, targets, config):
            batches.append(np.asarray(targets, dtype=bool))
            return real_asl(probs, targets, config)

        monkeypatch.setattr(protocol, "asl_loss", recording_asl)
        out2 = train_session(model, plan, 2, train, test, RehearsalBuffer(), out1.snapshot, cfg, rngs)
        report = out2.dpl_report
        assert report.mu_t == pytest.approx((3 / 6) * cfg.dpl.mu)
        own, old, new = plan.train_indices[1], plan.session_classes[0], plan.session_classes[1]
        assert report.labels.shape == (len(own), 3) and report.labels.any()
        # every epoch sees each row once: pseudo labels fill the old columns, truth the new
        seen = np.concatenate(batches)
        assert seen.shape == (6 * len(own), 6)
        assert seen[:, :3].sum() == 6 * report.labels.sum()
        assert seen[:, 3:].sum() == 6 * train.labels[np.ix_(own, new)].sum()
        lost = train.labels[np.ix_(own, old)]
        assert out2.pseudo_recall == (lost & report.labels).sum() / lost.sum()


class TestTeacherPass:
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_snapshot_runs_once_per_session(self, monkeypatch, epochs):
        train, test, names = tiny_data(n_train=200)
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(19, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        cfg = tiny_config(epochs=epochs)
        chunk = protocol.INFER_CHUNK
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
    def test_gathered_rows_match_a_batch_forward(self, flags, monkeypatch):
        monkeypatch.setattr(protocol, "INFER_CHUNK", 16)
        train, _, _ = tiny_data()
        rng = substream_rng(20, "init")
        model = init_model((4, 4, 4), tiny_ica(), flags, rng)
        expand_for_session(model, 3, rng)
        expand_for_session(model, 2, rng)
        snap = snapshot_model(model)
        features = train.features[:50]
        probs, embeddings, pooled = infer(snap, features)
        sel = np.random.default_rng(0).permutation(50)[:16]
        direct = forward_logits(snap, features[sel])
        assert np.allclose(probs[sel], T.sigmoid(direct.logits).data, rtol=0, atol=1e-12)
        if flags.use_ica:
            assert embeddings.shape == (2, 50, 8) and pooled is None
            assert np.allclose(embeddings[:, sel], direct.embeddings.data, rtol=0, atol=1e-12)
        else:
            assert embeddings is None and direct.embeddings is None
            assert np.allclose(pooled[sel], direct.pooled.data, rtol=0, atol=1e-12)

    def test_teacher_and_eval_forwards_use_the_inference_chunk_at_any_batch_size(self, monkeypatch):
        train, test, names = tiny_data(n_train=200, n_test=150)
        plan = build_plan(names, base=2, inc=2)
        assign_examples(plan, train, test)
        rngs = {n: substream_rng(22, n) for n in ("init", "shuffle", "buffer")}
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rngs["init"])
        cfg = tiny_config(epochs=1)
        cfg.batch_size = 8
        snap = train_session(model, plan, 1, train, test, RehearsalBuffer(), None, cfg, rngs).snapshot
        sizes = {"teacher": [], "eval": []}
        in_eval = []
        real_forward, real_evaluate = protocol.forward_logits, protocol.evaluate_cumulative

        def recording_forward(model_, images):
            if model_ is snap:
                sizes["teacher"].append(len(images))
            elif in_eval:
                sizes["eval"].append(len(images))
            return real_forward(model_, images)

        def recording_evaluate(*args):
            in_eval.append(True)
            return real_evaluate(*args)

        monkeypatch.setattr(protocol, "forward_logits", recording_forward)
        monkeypatch.setattr(protocol, "evaluate_cumulative", recording_evaluate)
        train_session(model, plan, 2, train, test, RehearsalBuffer(), snap, cfg, rngs)

        def chunks(n, size=protocol.INFER_CHUNK):
            assert n > size
            return [size] * (n // size) + ([n % size] if n % size else [])

        assert sizes["teacher"] == chunks(len(plan.train_indices[1]))
        assert sizes["eval"] == chunks(len(plan.test_indices[0]) + len(plan.test_indices[1]))

    def test_infer_calls_forward_logits_once_per_chunk_with_exactly_that_chunk(self, monkeypatch):
        # the benchmark counts eval and teacher images from these calls' arguments
        train, _, _ = tiny_data()
        rng = substream_rng(24, "init")
        model = init_model((4, 4, 4), tiny_ica(), ArmFlags(), rng)
        expand_for_session(model, 3, rng)
        features = train.features[:100]
        calls = []
        real_forward = protocol.forward_logits

        def recording_forward(*args):
            calls.append(args)
            return real_forward(*args)

        monkeypatch.setattr(protocol, "forward_logits", recording_forward)
        monkeypatch.setattr(protocol, "INFER_CHUNK", 32)
        probs = infer(model, features)[0]
        assert [len(images) for _, images in calls] == [32, 32, 32, 4]
        for k, (model_, images) in enumerate(calls):
            assert model_ is model
            assert np.shares_memory(images, features) and np.array_equal(images, features[32 * k : 32 * k + 32])
        assert len(probs) == 100


class TestInferMemory:
    def test_a_tape_free_paper_shape_forward_peaks_below_8_mib(self):
        # the stem streams by image blocks: no [64, 196, *] array of the chunk is formed
        self.assert_forward_peaks_below_8_mib(ArmFlags())

    def test_a_tape_free_paper_shape_pooled_forward_peaks_below_8_mib(self):
        # ft's global pool streams the stem as the ICA patch block does
        self.assert_forward_peaks_below_8_mib(ArmFlags(use_dpl=False, use_ica=False))

    @staticmethod
    def assert_forward_peaks_below_8_mib(flags):
        rng = substream_rng(25, "init")
        model = init_model((14, 14, 8), IcaConfig(d=128, heads=8), flags, rng)
        expand_for_session(model, 40, rng)
        images = np.random.default_rng(25).standard_normal((64, 14, 14, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            forward_logits(model, images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_tape_free_inference_starts_no_thread():
    # in a process of its own, so no thread an earlier test started can hide a new one
    src = str(Path(protocol.__file__).resolve().parents[1])
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from krt.ica import IcaConfig\n"
        "from krt.protocol import ArmFlags, expand_for_session, infer, init_model\n"
        "from krt.seeds import substream_rng\n"
        "rng = substream_rng(25, 'init')\n"
        "model = init_model((14, 14, 8), IcaConfig(d=128, heads=8), ArmFlags(), rng)\n"
        "expand_for_session(model, 40, rng)\n"
        "images = np.random.default_rng(25).standard_normal((64, 14, 14, 8)).astype(np.float32)\n"
        "before = threading.active_count()\n"
        "infer(model, images)\n"
        "print(before, threading.active_count())\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


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

    @pytest.mark.parametrize(
        "flags, want",
        [
            (ArmFlags(), [21] + [24] * 7),  # krt
            (ArmFlags(use_dpl=False, use_ica=False), [5] * 8),  # ft
            (ArmFlags(use_dpl=False, use_ica=False, use_kd=True), [5] + [7] * 7),  # kd_baseline
        ],
    )
    def test_tape_records_per_training_step(self, flags, want, monkeypatch):
        # the retention blocks, the merge, the heads, the loss and the token
        # or kd loss are one op each at any session count
        sessions, records = [], {}
        train_session, backward = protocol.train_session, protocol.backward

        def session_spy(model, plan, t, *rest):
            sessions.append(t)
            return train_session(model, plan, t, *rest)

        def backward_spy(loss):
            records.setdefault(sessions[-1], set()).add(len(loss._tape))
            return backward(loss)

        monkeypatch.setattr(protocol, "train_session", session_spy)
        monkeypatch.setattr(protocol, "backward", backward_spy)
        train, test, names = tiny_data(n_classes=8, n_train=64, n_test=40)
        plan = build_plan(names, base=0, inc=1)
        run_incremental(train, test, plan, flags, tiny_ica(), tiny_config(1), 3)
        assert records == {t: {n} for t, n in enumerate(want, start=1)}


class TestStepReference:
    """A training step of each session against `step_loss_oracle`, in float64.

    The three taped step shapes: krt (ICA and the token loss) at sessions
    1, 2 and 3, where session 3 has two frozen retention tokens and a
    two-slice token-loss prefix; ft (the pooled path) and kd_baseline
    (pooled plus KD) at sessions 1 and 2. All on 4x4x2 images, d=8, 2 heads
    and batches of 3. The batch, its targets and the teacher's outputs are
    the ones the real `train_session` passes to the loss. Each session's
    second step is checked: at its first, the model still equals the
    teacher, so the token and KD losses and their gradients are 0. Session
    3 takes one random direction per parameter, sessions 1 and 2 take two.
    """

    FD_STEP = 1e-6

    @pytest.mark.parametrize(
        "arm, sessions", [("krt", 3), ("ft", 2), ("kd_baseline", 2)], ids=["krt", "ft", "kd_baseline"]
    )
    def test_a_step_is_the_oracles_loss_gradient_and_update(self, arm, sessions, monkeypatch):
        seen, checked = {}, []
        real_session, real_forward, real_backward = protocol.train_session, protocol.forward_logits, protocol.backward
        real_asl, real_token, real_kd = protocol.asl_loss, protocol.token_loss, protocol.kd_pooled_loss

        def session(model, plan, t, train, test, buffer, snapshot, *rest):
            seen.clear()
            seen.update(t=t, snapshot=snapshot, steps=0)
            return real_session(model, plan, t, train, test, buffer, snapshot, *rest)

        def forward(model, images):
            if T._ACTIVE_TAPE is not None:  # a training step's, not the teacher's or the evaluation's
                seen.update(model=model, images=images)
            return real_forward(model, images)

        def asl_loss(probs, targets, config):
            seen.update(targets=targets, loss=config)
            return real_asl(probs, targets, config)

        def token_loss(e_prev, e_curr):
            seen["e_prev"] = e_prev
            return real_token(e_prev, e_curr)

        def kd_pooled_loss(feat_prev, feat_curr):
            seen["pooled_prev"] = feat_prev
            return real_kd(feat_prev, feat_curr)

        def backward(loss):
            real_backward(loss)
            seen["steps"] += 1
            if seen["steps"] == 2:
                self.check_loss_and_gradients(arm, seen, loss)

        class CheckedAdam(protocol.Adam):
            def step(self):
                params = seen["model"].named_parameters()
                if seen["snapshot"] is not None:
                    params += seen["snapshot"].named_parameters()
                before = [(p, p.data.copy()) for _, p in params]
                super().step()
                if seen["steps"] == 2:  # the update moves every trainable parameter and nothing else
                    moved = {id(p) for p, old in before if not np.array_equal(p.data, old)}
                    assert moved == {id(p) for p in seen["model"].trainable_parameters()}
                    checked.append(seen["t"])

        for name, spy in [
            ("train_session", session), ("forward_logits", forward), ("asl_loss", asl_loss),
            ("token_loss", token_loss), ("kd_pooled_loss", kd_pooled_loss), ("backward", backward),
            ("Adam", CheckedAdam), ("MODEL_DTYPE", np.float64),
        ]:
            monkeypatch.setattr(protocol, name, spy)
        spec = GenSpec(
            n_classes=2 * sessions, grid_h=4, grid_w=4, channels=2, n_train=6 * sessions, n_test=8, seed=3
        )
        train, test, names = generate(spec)
        flags = ArmFlags(*cli._ARM_TABLE[arm][:3])
        config = TrainConfig(epochs=1, batch_size=3, loss=LossConfig(lam=10.0))
        run_incremental(train, test, build_plan(names, base=2, inc=2), flags, tiny_ica(heads=2), config, 4)
        assert checked == list(range(1, sessions + 1))

    def check_loss_and_gradients(self, arm, seen, loss):
        model, t = seen["model"], seen["t"]
        args = (model, seen["images"], seen["targets"], seen["loss"], t, seen.get("e_prev"), seen.get("pooled_prev"))
        assert float(loss.data) == pytest.approx(step_loss_oracle(*args), rel=1e-12, abs=0)
        # frozen retention tokens and the snapshot get no gradient
        named = model.named_parameters()
        frozen = [f"ica.kr.{s}" for s in range(t - 1)] if arm == "krt" else []
        assert [name for name, p in named if not p.requires_grad] == frozen
        if seen["snapshot"] is not None:
            assert all(p.grad is None and not p.requires_grad for _, p in seen["snapshot"].named_parameters())
        rng = np.random.default_rng(t)
        for name, p in named:
            if not p.requires_grad:
                assert p.grad is None, name
                continue
            saved = p.data
            for _ in range(2 if t < 3 else 1):  # central differences of the oracle along random directions
                u = rng.standard_normal(p.shape)
                p.data = saved + self.FD_STEP * u
                up = step_loss_oracle(*args)
                p.data = saved - self.FD_STEP * u
                down = step_loss_oracle(*args)
                p.data = saved
                slope = (up - down) / (2 * self.FD_STEP)
                assert float(np.sum(p.grad * u)) == pytest.approx(slope, rel=1e-6, abs=1e-9), name


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

        def recording_infer(*args, **kwargs):
            probs, embeddings, pooled = real_infer(*args, **kwargs)
            arrays = [a for a in (probs, embeddings, pooled) if a is not None]
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

        real_infer, real_session = protocol.infer, protocol.train_session
        monkeypatch.setattr(protocol, "Tape", RecordingTape)
        monkeypatch.setattr(protocol, "Adam", RecordingAdam)
        monkeypatch.setattr(protocol, "infer", recording_infer)
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
        out = forward_logits(model, train.features[[0, 1]].astype(np.float64))
        assert out.logits.dtype == np.float32
        assert out.embeddings.dtype == np.float32
