"""Synthetic multi-label dataset generator.

Each class owns a fixed random prototype channel-vector. An image draws a
label set (truncated-Poisson cardinality, correlations shaped by a seeded
co-occurrence affinity), stamps each chosen class's prototype into its own
random grid cell, and adds Gaussian noise. Class names are zero-padded so
lexicographic order equals index order. Every image is generated from an
rng derived from (dataset seed, image id), so generation is reproducible
per image and parallelisable.
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
    """Bad magic, version mismatch, truncation, or checksum failure."""


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


@dataclass
class LabeledExample:
    image_id: int
    features: np.ndarray  # [h, w, c] float32
    labels: set  # true labels over the global class universe


@dataclass
class Dataset:
    class_names: list
    grid_h: int
    grid_w: int
    channels: int
    examples: list

    def __len__(self):
        return len(self.examples)

    def features_array(self, indices=None) -> np.ndarray:
        exs = self.examples if indices is None else [self.examples[i] for i in indices]
        return np.stack([e.features for e in exs])

    def truth_matrix(self, class_indices=None) -> np.ndarray:
        cols = range(len(self.class_names)) if class_indices is None else list(class_indices)
        out = np.zeros((len(self.examples), len(cols)), dtype=np.int8)
        for i, ex in enumerate(self.examples):
            for j, c in enumerate(cols):
                if c in ex.labels:
                    out[i, j] = 1
        return out


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


def _make_example(spec: GenSpec, image_id: int, index: int, protos, affinity) -> LabeledExample:
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
    return LabeledExample(
        image_id=image_id,
        features=feat.astype(np.float32),
        labels=set(labels),
    )


def generate(spec: GenSpec):
    """Build (train, test, class_names); train/test ids are disjoint."""
    protos = class_prototypes(spec)
    affinity = _affinity(spec)
    names = [f"class_{k:03d}" for k in range(spec.n_classes)]

    train = [
        _make_example(spec, image_id=i, index=i, protos=protos, affinity=affinity)
        for i in range(spec.n_train)
    ]
    test = [
        _make_example(spec, image_id=spec.n_train + i, index=i, protos=protos, affinity=affinity)
        for i in range(spec.n_test)
    ]
    mk = lambda exs: Dataset(names, spec.grid_h, spec.grid_w, spec.channels, exs)
    return mk(train), mk(test), names


# ---------------------------------------------------------------------------
# file format: magic, version, header, name table, records, trailing CRC32


def _labels_to_bits(labels: set, n_classes: int) -> bytes:
    bits = bytearray((n_classes + 7) // 8)
    for k in labels:
        bits[k // 8] |= 1 << (k % 8)
    return bytes(bits)


def _bits_to_labels(bits: bytes, n_classes: int) -> set:
    return {k for k in range(n_classes) if bits[k // 8] & (1 << (k % 8))}


def save_dataset(dataset: Dataset, path: str) -> None:
    if not dataset.examples:
        raise ValueError("refusing to save an empty dataset")
    k = len(dataset.class_names)
    payload = bytearray()
    payload += struct.pack(
        "<5I", len(dataset.examples), dataset.grid_h, dataset.grid_w, dataset.channels, k
    )
    for name in dataset.class_names:
        raw = name.encode("utf-8")
        payload += struct.pack("<H", len(raw)) + raw
    for ex in dataset.examples:
        feats = np.ascontiguousarray(ex.features, dtype="<f4")
        payload += struct.pack("<Q", ex.image_id)
        payload += _labels_to_bits(ex.labels, k)
        payload += feats.tobytes()
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
    bitset_len = (k + 7) // 8
    feat_len = h * w * c * 4
    examples = []
    for _ in range(n):
        (image_id,) = struct.unpack("<Q", take(8))
        labels = _bits_to_labels(take(bitset_len), k)
        feats = np.frombuffer(take(feat_len), dtype="<f4").reshape(h, w, c).copy()
        if not labels:
            raise DatasetFormatError(f"{path}: image {image_id} has no labels")
        if not np.all(np.isfinite(feats)):
            raise DatasetFormatError(f"{path}: image {image_id} has non-finite features")
        examples.append(LabeledExample(image_id=image_id, features=feats, labels=labels))
    if off != len(payload):
        raise DatasetFormatError(f"{path}: {len(payload) - off} trailing bytes")
    return Dataset(names, h, w, c, examples)
