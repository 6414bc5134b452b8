import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import split_oracle

from krt.datagen import (
    Dataset,
    DatasetFormatError,
    GenSpec,
    _affinity,
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
        for a, b in zip(generate(small_spec())[:2], generate(small_spec())[:2]):
            assert np.array_equal(a.image_ids, b.image_ids)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.features, b.features)

    def test_lexicographic_order_is_index_order(self):
        _, _, names = generate(small_spec())
        assert names == sorted(names)
        assert names[3] == "class_003"

    def test_every_class_covered_in_train(self):
        train, _, _ = generate(small_spec())
        assert train.labels.any(axis=0).all()

    def test_ids_disjoint_between_splits(self):
        train, test, _ = generate(small_spec())
        assert not np.intersect1d(train.image_ids, test.image_ids).size

    def test_every_example_has_a_label(self):
        train, test, _ = generate(small_spec())
        assert train.labels.any(axis=1).all() and test.labels.any(axis=1).all()

    def test_mean_label_count_close_to_target(self):
        spec = GenSpec(
            n_classes=20, grid_h=8, grid_w=8, channels=4,
            avg_labels_per_image=2.9, n_train=10000, n_test=1, seed=3,
        )
        train, _, _ = generate(spec)
        mean = train.labels.sum(axis=1).mean()
        assert abs(mean - 2.9) < 0.1

    def test_noise_only_difference_for_same_seed(self):
        quiet_train, _, _ = generate(small_spec(noise_sigma=0.0))
        noisy_train, _, _ = generate(small_spec(noise_sigma=0.25))
        assert np.array_equal(quiet_train.labels, noisy_train.labels)
        diff = noisy_train.features.astype(np.float64) - quiet_train.features.astype(np.float64)
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

    def test_an_affinity_whose_sum_overflows_is_rejected(self):
        # every entry is finite, but sums of them overflow, as the label draw's means did
        kw = dict(
            n_classes=5, grid_h=4, grid_w=4, channels=2, avg_labels_per_image=5,
            co_occurrence=0.0, seed=901, n_train=200, n_test=20,
        )
        spec = GenSpec(**kw)
        spec.co_occurrence = 584.090054
        with np.errstate(over="ignore"):
            affinity = _affinity(spec)
            assert np.isfinite(affinity).all() and not np.isfinite(affinity.sum())
        with pytest.raises(ValueError, match="co_occurrence 584.090054 takes the label affinity"):
            GenSpec(**{**kw, "co_occurrence": 584.090054})

    def test_noise_beyond_the_float32_range_is_rejected(self):
        # a valid float32 sigma, but some of its noise draws leave the float32 range
        with pytest.raises(OverflowError, match="noise_sigma 1e\\+38 puts features beyond the float32 range"):
            generate(small_spec(noise_sigma=1e38))

    def test_co_occurrence_shapes_pair_frequencies(self):
        flat = generate(small_spec(co_occurrence=0.0, n_train=4000))[0]
        skew = generate(small_spec(co_occurrence=2.0, n_train=4000))[0]

        def pair_counts(ds):
            y = ds.labels.astype(np.int64)
            return np.triu(y.T @ y, k=1)

        # stronger affinity concentrates mass on fewer pairs
        c_flat = pair_counts(flat)
        c_skew = pair_counts(skew)
        assert c_skew.max() > c_flat.max()

    def test_generated_bytes_are_pinned(self):
        # a numpy whose Generator streams differ changes the data every benchmark trains on
        train, test, _ = generate(small_spec())
        digest = hashlib.sha256()
        for ds in (train, test):
            digest.update(ds.image_ids.tobytes())
            digest.update(np.packbits(ds.labels, axis=1, bitorder="little").tobytes())
            digest.update(ds.features.tobytes())
        assert digest.hexdigest() == (
            "0cf94bae23a41b890e679ba68a23e6d1aab9cd2a30894927ff8d5f0f3ce7b42e"
        )


@st.composite
def gen_specs(draw):
    k = draw(st.integers(2, 12))
    h, w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return GenSpec(
        n_classes=k, grid_h=h, grid_w=w, channels=draw(st.integers(1, 3)),
        avg_labels_per_image=draw(st.floats(1.0, min(k, h * w))),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.7])),
        co_occurrence=draw(st.floats(-2.0, 2.0)),
        n_train=draw(st.integers(1, 30)), n_test=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


def _corner(**kw):
    base = dict(n_classes=6, grid_h=2, grid_w=2, channels=2, n_train=40, n_test=1, seed=11)
    return GenSpec(**{**base, **kw})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=gen_specs())
@example(spec=_corner(avg_labels_per_image=4.0, co_occurrence=2.0))  # h*w < n_classes
@example(spec=_corner(avg_labels_per_image=3.5, co_occurrence=-2.0))
@example(spec=_corner(avg_labels_per_image=1.0))
@example(spec=_corner(avg_labels_per_image=2.5, noise_sigma=0.0))
@example(spec=_corner(n_train=1, avg_labels_per_image=3.0))
@example(spec=small_spec(avg_labels_per_image=5.0, co_occurrence=2.0, n_train=60, n_test=20))
def test_generate_matches_the_image_by_image_reference(spec):
    train, test, _ = generate(spec)
    protos, affinity = class_prototypes(spec), _affinity(spec)
    for ds, first_id in ((train, 0), (test, spec.n_train)):
        ids, features, labels = split_oracle(spec, first_id, len(ds), protos, affinity)
        assert ds.image_ids.tobytes() == ids.tobytes()
        assert ds.features.dtype == np.float32 and ds.features.tobytes() == features.tobytes()
        assert np.array_equal(ds.labels, labels)


class TestDataset:
    def test_arrays_have_one_row_per_image(self):
        train, test, names = generate(small_spec())
        for ds, n in ((train, 200), (test, 50)):
            assert len(ds) == n and ds.class_names == names
            assert ds.image_ids.shape == (n,) and ds.image_ids.dtype == np.uint64
            assert ds.features.shape == (n, 4, 4, 6) and ds.features.dtype == np.float32
            assert ds.labels.shape == (n, 10) and ds.labels.dtype == bool

    def test_examples_are_views_of_the_rows(self):
        train, _, _ = generate(small_spec())
        examples = train.examples
        assert len(examples) == len(train)
        for i, ex in enumerate(examples):
            assert ex.image_id == int(train.image_ids[i]) and type(ex.image_id) is int
            assert ex.labels == set(np.flatnonzero(train.labels[i]).tolist())
            assert np.shares_memory(ex.features, train.features)
            assert np.array_equal(ex.features, train.features[i])


def hand_built():
    """Nine classes (two label bytes), names out of order, ids at both ends of the range."""
    names = ["z", "alpha", "", "\u00fcn\u00ef", "c4", "c5", "c6", "c7", "b"]
    features = (np.arange(36, dtype=np.float32) * 0.25 - 1.5).reshape(3, 2, 3, 2)
    labels = np.zeros((3, 9), dtype=bool)
    for row, cols in enumerate([[0, 8], [3], [1, 2, 7, 8]]):
        labels[row, cols] = True
    return Dataset(names, np.array([2**64 - 1, 0, 7], dtype=np.uint64), features, labels)


def save_with_names(tmp_path, names, name="data.mlds"):
    """A small generated train split saved under other class names."""
    train, _, _ = generate(small_spec(n_classes=len(names), n_train=20))
    train.class_names = list(names)
    path = tmp_path / name
    save_dataset(train, str(path))
    return path, train


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        train, _, _ = generate(small_spec())
        path = tmp_path / "train.mlds"
        save_dataset(train, str(path))
        loaded = load_dataset(str(path))
        assert loaded.class_names == train.class_names
        assert loaded.features.shape == (200, 4, 4, 6) and loaded.features.dtype == np.float32
        assert np.array_equal(loaded.image_ids, train.image_ids)
        assert np.array_equal(loaded.labels, train.labels)
        assert np.array_equal(loaded.features, train.features)

    def test_file_bytes_are_pinned(self, tmp_path):
        # the format is fixed: these are the bytes the record-by-record writer produced
        path = tmp_path / "hand.mlds"
        save_dataset(hand_built(), str(path))
        blob = path.read_bytes()
        assert len(blob) == 242
        assert hashlib.sha256(blob).hexdigest() == (
            "7f6c99ee829b011fdf1af934bb267d8da396a3125f1918cc1df3cfcf670d6145"
        )
        loaded = load_dataset(str(path))
        want = hand_built()
        assert loaded.class_names == want.class_names
        for field in ("image_ids", "features", "labels"):
            assert np.array_equal(getattr(loaded, field), getattr(want, field)), field

    def test_repeated_class_names_rejected(self, tmp_path):
        path, _ = save_with_names(tmp_path, ["a", "a", "b", "b"])
        with pytest.raises(DatasetFormatError, match="class names repeat"):
            load_dataset(str(path))

    def test_repeated_image_ids_rejected(self, tmp_path):
        train, _, _ = generate(small_spec(n_train=20))
        train.image_ids[5] = train.image_ids[2]
        path = tmp_path / "train.mlds"
        save_dataset(train, str(path))
        with pytest.raises(DatasetFormatError, match="image ids repeat"):
            load_dataset(str(path))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_valid_dataset_round_trips(self, tmp_path_factory, data):
        k = data.draw(st.integers(1, 20))
        h, w, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        names = data.draw(st.lists(st.text(max_size=8), min_size=k, max_size=k, unique=True))
        n = data.draw(st.integers(1, 4))
        floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
        ids = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n, unique=True))
        features = np.array(
            data.draw(st.lists(floats, min_size=n * h * w * c, max_size=n * h * w * c)),
            dtype=np.float32,
        ).reshape(n, h, w, c)
        labels = np.zeros((n, k), dtype=bool)
        for row in range(n):
            labels[row, sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))] = True
        path = tmp_path_factory.mktemp("round_trip") / "data.mlds"
        save_dataset(Dataset(names, np.array(ids, dtype=np.uint64), features, labels), str(path))
        loaded = load_dataset(str(path))
        assert loaded.class_names == names
        assert loaded.image_ids.tolist() == ids
        assert np.array_equal(loaded.labels, labels)
        assert np.array_equal(loaded.features, features)

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
        empty = Dataset(
            ["a", "b"], np.zeros(0, np.uint64), np.zeros((0, 2, 2, 2), np.float32),
            np.zeros((0, 2), bool),
        )
        with pytest.raises(ValueError):
            save_dataset(empty, str(tmp_path / "x.mlds"))
