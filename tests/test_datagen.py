import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krt.datagen import (
    Dataset,
    DatasetFormatError,
    GenSpec,
    LabeledExample,
    class_prototypes,
    generate,
    load_dataset,
    save_dataset,
)


def small_spec(**kw):
    base = dict(n_classes=10, grid_h=4, grid_w=4, channels=6, n_train=200, n_test=50, seed=7)
    base.update(kw)
    return GenSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        a_train, a_test, _ = generate(small_spec())
        b_train, b_test, _ = generate(small_spec())
        for a, b in zip(a_train.examples + a_test.examples, b_train.examples + b_test.examples):
            assert a.image_id == b.image_id
            assert a.labels == b.labels
            assert np.array_equal(a.features, b.features)

    def test_lexicographic_order_is_index_order(self):
        _, _, names = generate(small_spec())
        assert names == sorted(names)
        assert names[3] == "class_003"

    def test_every_class_covered_in_train(self):
        train, _, _ = generate(small_spec())
        seen = set()
        for ex in train.examples:
            seen |= ex.labels
        assert seen == set(range(10))

    def test_ids_disjoint_between_splits(self):
        train, test, _ = generate(small_spec())
        assert not ({e.image_id for e in train.examples} & {e.image_id for e in test.examples})

    def test_every_example_has_a_label(self):
        train, test, _ = generate(small_spec())
        assert all(len(e.labels) >= 1 for e in train.examples + test.examples)

    def test_mean_label_count_close_to_target(self):
        spec = GenSpec(
            n_classes=20, grid_h=8, grid_w=8, channels=4,
            avg_labels_per_image=2.9, n_train=10000, n_test=1, seed=3,
        )
        train, _, _ = generate(spec)
        mean = np.mean([len(e.labels) for e in train.examples])
        assert abs(mean - 2.9) < 0.1

    def test_noise_only_difference_for_same_seed(self):
        quiet_train, _, _ = generate(small_spec(noise_sigma=0.0))
        noisy_train, _, _ = generate(small_spec(noise_sigma=0.25))
        for q, n in zip(quiet_train.examples, noisy_train.examples):
            assert q.labels == n.labels
            diff = n.features.astype(np.float64) - q.features.astype(np.float64)
            assert np.abs(diff).max() < 0.25 * 6  # bounded noise field, no structure shift

    def test_noiseless_single_label_images_separable_by_prototype_match(self):
        spec = small_spec(noise_sigma=0.0, avg_labels_per_image=1.0)
        # force exactly one label by minimal average (Poisson(0) == 0 extras)
        train, _, _ = generate(spec)
        protos = class_prototypes(spec)
        for ex in train.examples[:100]:
            assert len(ex.labels) == 1
            pooled = ex.features.reshape(-1, spec.channels).sum(axis=0)
            assert int(np.argmax(protos @ pooled)) == next(iter(ex.labels))

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(n_classes=30, grid_h=2, grid_w=2, avg_labels_per_image=5.0)
        with pytest.raises(ValueError):
            GenSpec(n_classes=4, avg_labels_per_image=9.0)

    def test_co_occurrence_shapes_pair_frequencies(self):
        flat = generate(small_spec(co_occurrence=0.0, n_train=4000))[0]
        skew = generate(small_spec(co_occurrence=2.0, n_train=4000))[0]

        def pair_counts(ds):
            counts = np.zeros((10, 10))
            for ex in ds.examples:
                ll = sorted(ex.labels)
                for i in range(len(ll)):
                    for j in range(i + 1, len(ll)):
                        counts[ll[i], ll[j]] += 1
            return counts

        # stronger affinity concentrates mass on fewer pairs
        c_flat = pair_counts(flat)
        c_skew = pair_counts(skew)
        assert c_skew.max() > c_flat.max()


class TestTruthMatrix:
    def test_restriction_to_columns(self):
        train, _, _ = generate(small_spec())
        full = train.truth_matrix()
        sub = train.truth_matrix([2, 5])
        assert np.array_equal(full[:, [2, 5]], sub)
        assert full.shape == (200, 10)


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        train, _, _ = generate(small_spec())
        path = tmp_path / "train.mlds"
        save_dataset(train, str(path))
        loaded = load_dataset(str(path))
        assert loaded.class_names == train.class_names
        assert (loaded.grid_h, loaded.grid_w, loaded.channels) == (4, 4, 6)
        assert len(loaded) == len(train)
        for a, b in zip(train.examples, loaded.examples):
            assert a.image_id == b.image_id
            assert a.labels == b.labels
            assert a.features.dtype == b.features.dtype == np.float32
            assert np.array_equal(a.features, b.features)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_valid_dataset_round_trips(self, tmp_path_factory, data):
        k = data.draw(st.integers(1, 20))
        h, w, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        names = data.draw(st.lists(st.text(max_size=8), min_size=k, max_size=k))
        floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
        examples = [
            LabeledExample(
                image_id=data.draw(st.integers(0, 2**64 - 1)),
                features=np.array(
                    data.draw(st.lists(floats, min_size=h * w * c, max_size=h * w * c)),
                    dtype=np.float32,
                ).reshape(h, w, c),
                labels=data.draw(st.sets(st.integers(0, k - 1), min_size=1)),
            )
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        path = tmp_path_factory.mktemp("round_trip") / "data.mlds"
        save_dataset(Dataset(names, h, w, c, examples), str(path))
        loaded = load_dataset(str(path))
        assert loaded.class_names == names
        assert (loaded.grid_h, loaded.grid_w, loaded.channels) == (h, w, c)
        assert [e.image_id for e in loaded.examples] == [e.image_id for e in examples]
        assert [e.labels for e in loaded.examples] == [e.labels for e in examples]
        for a, b in zip(examples, loaded.examples):
            assert np.array_equal(a.features, b.features)

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        train, _, _ = generate(small_spec(n_train=20))
        path = tmp_path / "train.mlds"
        save_dataset(train, str(path))
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="checksum"):
            load_dataset(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        train, _, _ = generate(small_spec(n_train=20))
        path = tmp_path / "train.mlds"
        save_dataset(train, str(path))
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(DatasetFormatError):
            load_dataset(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.mlds"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DatasetFormatError, match="magic"):
            load_dataset(str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        train, _, _ = generate(small_spec(n_train=5))
        path = tmp_path / "train.mlds"
        save_dataset(train, str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(str(path))

    def test_empty_dataset_rejected_at_save(self, tmp_path):
        empty = Dataset(["a", "b"], 2, 2, 2, [])
        with pytest.raises(ValueError):
            save_dataset(empty, str(tmp_path / "x.mlds"))
