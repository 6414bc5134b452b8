"""Synthetic multi-label dataset generator.

Each class owns a fixed random prototype channel-vector. An image draws a
label set (truncated-Poisson cardinality, correlations shaped by a seeded
co-occurrence affinity), stamps each chosen class's prototype into its own
random grid cell, and adds Gaussian noise. Class names are zero-padded so
lexicographic order equals index order. Every image is generated from an
rng derived from (dataset seed, image id), so generation is reproducible
per image and parallelisable.

A `Dataset` holds one row per image: its id, its features and its row of a
boolean label matrix, whose column k is `class_names[k]`. The rest of the
package names an image by its row and a class by its column. On disk the
rows are one array of fixed-size records (`_record_dtype`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .seeds import substream_seed

FORMAT_MAGIC = b"MLDS"
FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Bad magic, version mismatch, truncation, checksum failure, or bad contents."""


@dataclass
class GenSpec:
    n_classes: int = 20
    grid_h: int = 8
    grid_w: int = 8
    channels: int = 8
    avg_labels_per_image: float = 2.9
    noise_sigma: float = 0.05
    co_occurrence: float = 0.5  # 0 -> independent labels
    n_train: int = 2000
    n_test: int = 500
    seed: int = 0

    def __post_init__(self):
        if min(self.grid_h, self.grid_w, self.channels, self.n_train, self.n_test) < 1:
            raise ValueError("grid_h, grid_w, channels, n_train and n_test must be positive")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if not 1.0 <= self.avg_labels_per_image <= self.n_classes:
            raise ValueError(
                f"avg labels {self.avg_labels_per_image} outside [1, {self.n_classes}]"
            )
        if self.avg_labels_per_image > self.grid_h * self.grid_w:
            raise ValueError("more labels per image than grid cells")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma {self.noise_sigma} must be non-negative")
        with np.errstate(over="ignore"):
            affinity = _affinity(self)
        if not (np.isfinite(affinity).all() and (affinity > 0.0).all()):
            raise ValueError(f"co_occurrence {self.co_occurrence} takes the label affinity out of float range")


@dataclass
class LabeledExample:
    """One image of a `Dataset`, as `Dataset.examples` returns it."""

    image_id: int
    features: np.ndarray  # [h, w, c] float32, a view of the dataset's row
    labels: set  # the label columns the image carries


@dataclass
class Dataset:
    """Images as rows: row i has id `image_ids[i]`, `features[i]` and `labels[i]`.

    `labels[i, k]` says whether image i carries class `class_names[k]`.
    """

    class_names: list
    image_ids: np.ndarray  # [N] uint64
    features: np.ndarray  # [N, h, w, c] float32
    labels: np.ndarray  # [N, K] bool

    def __len__(self):
        return len(self.image_ids)

    @property
    def examples(self) -> list:
        return [
            LabeledExample(int(image_id), feats, set(np.flatnonzero(row).tolist()))
            for image_id, feats, row in zip(self.image_ids, self.features, self.labels)
        ]


def class_prototypes(spec: GenSpec) -> np.ndarray:
    """Unit-norm class signature vectors, fixed by the dataset seed."""
    rng = np.random.default_rng(substream_seed(spec.seed, "prototypes"))
    protos = rng.standard_normal((spec.n_classes, spec.channels))
    return protos / np.linalg.norm(protos, axis=1, keepdims=True)


def _affinity(spec: GenSpec) -> np.ndarray:
    """Symmetric positive co-occurrence affinity; strength 0 is uniform."""
    rng = np.random.default_rng(substream_seed(spec.seed, "affinity"))
    raw = rng.standard_normal((spec.n_classes, spec.n_classes))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return np.exp(spec.co_occurrence * sym)


def _make_image(spec: GenSpec, image_id: int, index: int, protos, affinity) -> tuple:
    """(features [h, w, c] float64, label columns) of one image."""
    rng = np.random.default_rng(substream_seed(spec.seed, f"image/{image_id}"))
    cap = min(spec.n_classes, spec.grid_h * spec.grid_w)
    extra = int(rng.poisson(spec.avg_labels_per_image - 1.0))
    count = 1 + min(extra, cap - 1)

    labels = [index % spec.n_classes]  # round-robin anchor: every class occurs
    while len(labels) < count:
        weights = affinity[labels].mean(axis=0).copy()
        weights[labels] = 0.0
        weights /= weights.sum()
        labels.append(int(rng.choice(spec.n_classes, p=weights)))

    cells = rng.choice(spec.grid_h * spec.grid_w, size=count, replace=False)
    feat = np.zeros((spec.grid_h, spec.grid_w, spec.channels), dtype=np.float64)
    for cls, cell in zip(labels, cells):
        feat[cell // spec.grid_w, cell % spec.grid_w] += protos[cls]
    # noise is the final draw so a noiseless rerun shares labels and cells
    if spec.noise_sigma > 0.0:
        feat += spec.noise_sigma * rng.standard_normal(feat.shape)
    return feat, labels


def _split(spec: GenSpec, names: list, first_id: int, n: int, protos, affinity) -> Dataset:
    """`n` images with ids first_id, first_id + 1, ...; row i anchors class i mod K."""
    features = np.empty((n, spec.grid_h, spec.grid_w, spec.channels), dtype=np.float32)
    labels = np.zeros((n, spec.n_classes), dtype=bool)
    for row in range(n):
        features[row], classes = _make_image(spec, first_id + row, row, protos, affinity)
        labels[row, classes] = True
    return Dataset(names, np.arange(first_id, first_id + n, dtype=np.uint64), features, labels)


def generate(spec: GenSpec):
    """Build (train, test, class_names); train/test ids are disjoint."""
    protos = class_prototypes(spec)
    affinity = _affinity(spec)
    names = [f"class_{k:03d}" for k in range(spec.n_classes)]
    train = _split(spec, names, 0, spec.n_train, protos, affinity)
    test = _split(spec, names, spec.n_train, spec.n_test, protos, affinity)
    return train, test, names


# ---------------------------------------------------------------------------
# file format: magic, version, header, name table, records, trailing CRC32


def _record_dtype(n_classes: int, grid: tuple) -> np.dtype:
    """One image record: id, label bits (class k is bit k % 8 of byte k // 8), features."""
    bits = ((n_classes + 7) // 8,)
    return np.dtype([("id", "<u8"), ("bits", "u1", bits), ("features", "<f4", grid)])


def save_dataset(dataset: Dataset, path: str) -> None:
    if not len(dataset):
        raise ValueError("refusing to save an empty dataset")
    grid = dataset.features.shape[1:]
    k = len(dataset.class_names)
    payload = bytearray(struct.pack("<5I", len(dataset), *grid, k))
    for name in dataset.class_names:
        raw = name.encode("utf-8")
        payload += struct.pack("<H", len(raw)) + raw
    records = np.empty(len(dataset), _record_dtype(k, grid))
    records["id"] = dataset.image_ids
    records["bits"] = np.packbits(dataset.labels, axis=1, bitorder="little")
    records["features"] = dataset.features
    payload += records.tobytes()
    with open(path, "wb") as fh:
        fh.write(FORMAT_MAGIC)
        fh.write(struct.pack("<H", FORMAT_VERSION))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FORMAT_MAGIC:
        raise DatasetFormatError(f"{path}: not a dataset file (bad magic)")
    if len(blob) < 10:
        raise DatasetFormatError(f"{path}: truncated file")
    (version,) = struct.unpack("<H", blob[4:6])
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"{path}: unsupported version {version}")
    payload, crc_bytes = blob[6:-4], blob[-4:]
    (want_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(payload) != want_crc:
        raise DatasetFormatError(f"{path}: checksum failure")

    off = 0

    def take(nbytes: int) -> bytes:
        nonlocal off
        if off + nbytes > len(payload):
            raise DatasetFormatError(f"{path}: truncated payload")
        chunk = payload[off : off + nbytes]
        off += nbytes
        return chunk

    n, h, w, c, k = struct.unpack("<5I", take(20))
    names = []
    for _ in range(k):
        (ln,) = struct.unpack("<H", take(2))
        names.append(take(ln).decode("utf-8"))
    if len(set(names)) != k:
        raise DatasetFormatError(f"{path}: class names repeat")
    dtype = _record_dtype(k, (h, w, c))
    records = np.frombuffer(take(n * dtype.itemsize), dtype)
    if off != len(payload):
        raise DatasetFormatError(f"{path}: {len(payload) - off} trailing bytes")
    ids = records["id"].astype(np.uint64)
    labels = np.unpackbits(records["bits"], axis=1, count=k, bitorder="little").astype(bool)
    features = records["features"].astype(np.float32)
    unlabeled = ~labels.any(axis=1)
    bad = np.flatnonzero(unlabeled | ~np.isfinite(features).all(axis=(1, 2, 3)))
    if len(bad):
        problem = "has no labels" if unlabeled[bad[0]] else "has non-finite features"
        raise DatasetFormatError(f"{path}: image {ids[bad[0]]} {problem}")
    if len(np.unique(ids)) != n:
        raise DatasetFormatError(f"{path}: image ids repeat")
    return Dataset(names, ids, features, labels)
