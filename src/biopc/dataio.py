"""IDX dataset containers, one-hot targets and seeded minibatch plans.

The IDX layout is big-endian: a u32 magic (0x00000803 for image files,
0x00000801 for label files), u32 dimension sizes, then raw unsigned bytes.
Both plain and gzip-compressed files are accepted; compression is detected
from the leading bytes, not the file name.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

_SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class IdxError(ValueError):
    """Malformed or missing IDX data."""


@dataclass
class DatasetSplit:
    images: np.ndarray  # features x N, float64 in [0, 1]
    labels: np.ndarray  # int64 in 0..9, length N
    name: str

    def __post_init__(self):
        if self.labels.shape[0] == 0:
            raise IdxError(f"{self.name}: the split holds no samples")
        if self.images.shape[1] != self.labels.shape[0]:
            raise IdxError(
                f"{self.name}: {self.images.shape[1]} image columns vs "
                f"{self.labels.shape[0]} labels"
            )

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]


def _read_payload(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a (rows*cols) x N float64 matrix in [0, 1]."""
    buf = _read_payload(path)
    if len(buf) < 16:
        raise IdxError(f"{path}: truncated header, {len(buf)} bytes at offset 0 (need 16)")
    magic, n, rows, cols = struct.unpack(">IIII", buf[:16])
    if magic != IMAGES_MAGIC:
        raise IdxError(f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{IMAGES_MAGIC:08x}")
    expected = 16 + n * rows * cols
    if len(buf) != expected:
        raise IdxError(
            f"{path}: {len(buf)} bytes, expected {expected} for {n} images of "
            f"{rows}x{cols} (payload starts at offset 16)"
        )
    pixels = np.frombuffer(buf, dtype=np.uint8, offset=16).reshape(n, rows * cols)
    images = np.ascontiguousarray(pixels.T).astype(np.float64)
    images /= 255.0
    return images


def load_idx_labels(path) -> np.ndarray:
    buf = _read_payload(path)
    if len(buf) < 8:
        raise IdxError(f"{path}: truncated header, {len(buf)} bytes at offset 0 (need 8)")
    magic, n = struct.unpack(">II", buf[:8])
    if magic != LABELS_MAGIC:
        raise IdxError(f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{LABELS_MAGIC:08x}")
    if len(buf) != 8 + n:
        raise IdxError(f"{path}: {len(buf)} bytes, expected {8 + n} for {n} labels (payload at offset 8)")
    labels = np.frombuffer(buf, dtype=np.uint8, offset=8).astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(np.argmax(labels > 9))
        raise IdxError(f"{path}: label {labels[bad]} out of range 0..9 at offset {8 + bad}")
    return labels


def write_idx_images(path, pixels: np.ndarray, rows: int = 28, cols: int = 28) -> None:
    """Write uint8 pixels (N x rows*cols) as an IDX image file; gzips iff the
    path ends in .gz."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n = pixels.shape[0]
    if pixels.shape[1] != rows * cols:
        raise IdxError(f"pixels have {pixels.shape[1]} columns, expected {rows * cols}")
    blob = struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols) + pixels.tobytes()
    _write_maybe_gz(path, blob)


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise IdxError("labels must fit in a byte")
    blob = struct.pack(">II", LABELS_MAGIC, labels.shape[0]) + labels.astype(np.uint8).tobytes()
    _write_maybe_gz(path, blob)


def _write_maybe_gz(path, blob: bytes) -> None:
    path = Path(path)
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(blob))
    else:
        path.write_bytes(blob)


def resolve_idx_path(data_dir, dataset: str, filename: str) -> Path:
    """Locate an IDX file under data_dir/<dataset>/ or data_dir/, with or
    without a .gz suffix."""
    data_dir = Path(data_dir)
    candidates = [
        data_dir / dataset / filename,
        data_dir / dataset / (filename + ".gz"),
        data_dir / filename,
        data_dir / (filename + ".gz"),
    ]
    for c in candidates:
        if c.is_file():
            return c
    tried = ", ".join(str(c) for c in candidates)
    raise IdxError(f"no {filename} for dataset '{dataset}'; tried: {tried}")


def load_split(data_dir, dataset: str, split: str) -> DatasetSplit:
    if split not in _SPLIT_FILES:
        raise IdxError(f"unknown split '{split}', expected train or test")
    image_file, label_file = _SPLIT_FILES[split]
    images = load_idx_images(resolve_idx_path(data_dir, dataset, image_file))
    labels = load_idx_labels(resolve_idx_path(data_dir, dataset, label_file))
    return DatasetSplit(images=images, labels=labels, name=split)


def one_hot(labels, classes: int = 10) -> np.ndarray:
    """classes x N matrix with a single 1.0 per column."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise IdxError(f"labels must be 1-D, got ndim={labels.ndim}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise IdxError(f"label out of range 0..{classes - 1}")
    out = np.zeros((classes, labels.shape[0]))
    out[labels, np.arange(labels.shape[0])] = 1.0
    return out


@dataclass(frozen=True)
class BatchPlan:
    """Deterministic epoch shuffling: the permutation is a pure function of
    (seed, epoch), every sample appears exactly once per epoch and the final
    short batch is kept."""

    batch_size: int
    seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def permutation(self, epoch: int, n: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, epoch])
        return rng.permutation(n)

    def batches(self, epoch: int, n: int):
        perm = self.permutation(epoch, n)
        for start in range(0, n, self.batch_size):
            yield perm[start:start + self.batch_size]


def synthetic_split(n_samples: int, seed: int, name: str = "train", *,
                    n_classes: int = 10, n_features: int = 784,
                    task_seed: int = 0) -> DatasetSplit:
    """MNIST-shaped synthetic classification data for dataset-free tests.

    Each class is a fixed random prototype in [0, 1]^features determined by
    `task_seed`; samples are noisy convex blends of their prototype, clipped
    to [0, 1]. Splits drawn with different `seed` but one task_seed share the
    prototypes, so train/test generalization is meaningful. Prototypes in
    high dimension are nearly orthogonal, so the task is easily learnable.
    """
    proto_rng = np.random.default_rng([task_seed, 0xDA7A])
    protos = proto_rng.uniform(0.0, 1.0, size=(n_features, n_classes))
    rng = np.random.default_rng([seed, 0x5A11])
    labels = rng.integers(0, n_classes, size=n_samples)
    noise = rng.uniform(0.0, 1.0, size=(n_features, n_samples))
    images = np.clip(0.75 * protos[:, labels] + 0.25 * noise, 0.0, 1.0)
    return DatasetSplit(images=images, labels=labels.astype(np.int64), name=name)
