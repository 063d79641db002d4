"""IDX dataset containers, one-hot targets and seeded minibatch plans.

The IDX layout is big-endian: a u32 magic (0x00000803 for image files,
0x00000801 for label files), u32 dimension sizes, then raw unsigned bytes.
The magic's last byte is the dimension count. One reader (`_read_idx`) and
one writer (`_write_idx`) serve both. The writer's byte rule: a uint8 array
is written as it is, and any other must equal its own uint8 cast (NaN and
inf never do), or it is an `IdxError` naming the path. Plain and
gzip-compressed files are accepted; compression is detected from the
leading bytes, not the name.

Both loaders, `load_split` and `synthetic_split`, return images as a
features x N matrix in Fortran order: each sample's column is contiguous,
so gathering a minibatch's columns reads whole runs of memory.
`synthetic_split` gives float64 values in [0, 1]. `load_split` keeps the
file's bytes: its images are the uint8 pixels, a view of the payload, 1/8
of the float64 matrix's size (47 vs 376 MB for MNIST's training split).
`DatasetSplit.columns` is where columns become float64, one batch or
evaluation chunk at a time, each into a new array its caller owns, by the
rule of `load_idx_images`, which still returns the whole float64 matrix.

Both datasets' images are IMAGE_ROWS x IMAGE_COLS pixels, N_FEATURES
input features (`config.NETWORK_DIMS[0]`); `write_idx_images` and
`synthetic_split` take no other geometry.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
# Label classes of both datasets (digits and clothing types 0..9): the
# width of a one-hot target, and so of a model's output level.
N_CLASSES = 10
# Image rows and columns of both datasets: a model's input level is N_FEATURES wide.
IMAGE_ROWS = IMAGE_COLS = 28
N_FEATURES = IMAGE_ROWS * IMAGE_COLS

_SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


class IdxError(ValueError):
    """Malformed or missing IDX data."""


@dataclass
class DatasetSplit:
    # features x N, Fortran-ordered from both loaders: uint8 pixels from
    # `load_split`, float64 in [0, 1] from `synthetic_split`; read through `columns`
    images: np.ndarray
    labels: np.ndarray  # int64 in 0..N_CLASSES-1, length N
    name: str

    def __post_init__(self):
        if self.labels.shape[0] == 0:
            raise IdxError(f"{self.name}: the split holds no samples")
        if self.images.shape[1] != self.labels.shape[0]:
            raise IdxError(
                f"{self.name}: {self.images.shape[1]} image columns vs "
                f"{self.labels.shape[0]} labels"
            )
        if self.images.dtype != np.uint8 and not np.issubdtype(self.images.dtype, np.floating):
            raise IdxError(f"{self.name}: images are {self.images.dtype}, "
                           "expected uint8 pixels or floats in [0, 1]")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise IdxError(f"{self.name}: labels are {self.labels.dtype}, expected integers")

    @property
    def n_samples(self) -> int:
        return self.labels.shape[0]

    def columns(self, sel) -> np.ndarray:
        """The images' columns `sel` (a slice or index array) as floats in
        [0, 1]. Pixel bytes are divided by 255 into a new array in the
        gather's layout, the bits of `load_idx_images`; float images are
        returned as they are (a view for a slice)."""
        images = self.images[:, sel]
        if images.dtype != np.uint8:
            return images
        return np.divide(images, 255.0)


def _read_payload(path) -> bytes:
    raw = Path(path).read_bytes()
    try:
        return gzip.decompress(raw) if raw[:2] == b"\x1f\x8b" else raw
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        raise IdxError(f"{path}: corrupt or truncated gzip data: {err}") from None


def _read_idx(path, magic: int):
    """The dimension sizes of the IDX file at `path`, which must carry
    `magic`, and its payload as a read-only uint8 view. The sizes multiply
    as Python integers, so no forged header overflows the expected length."""
    buf = _read_payload(path)
    header = 4 + 4 * (magic & 0xFF)
    if len(buf) < header:
        raise IdxError(f"{path}: truncated header, {len(buf)} bytes at offset 0 (need {header})")
    found, *sizes = struct.unpack(f">{header // 4}I", buf[:header])
    if found != magic:
        raise IdxError(f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}")
    expected = header + math.prod(sizes)
    if len(buf) != expected:
        raise IdxError(f"{path}: {len(buf)} bytes, expected {expected} for dimensions "
                       f"{'x'.join(map(str, sizes))} (payload starts at offset {header})")
    return sizes, np.frombuffer(buf, dtype=np.uint8, offset=header)


def _idx_pixels(path) -> np.ndarray:
    """The pixels of an IDX image file as a (rows*cols) x N uint8 matrix,
    Fortran-ordered (each sample's column is contiguous): a read-only view
    of the file's payload."""
    (n, rows, cols), payload = _read_idx(path, IMAGES_MAGIC)
    return payload.reshape(n, rows * cols).T


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a (rows*cols) x N float64 matrix in [0, 1],
    Fortran-ordered: each sample's column is contiguous."""
    pixels = _idx_pixels(path)
    # One pass: each image's bytes are contiguous, and so is its column in
    # a Fortran-ordered matrix, so the division reads and writes in memory
    # order. uint8 converts to float64 exactly, so these are the bits of
    # converting first and dividing after; `DatasetSplit.columns` divides
    # the same way.
    return np.divide(pixels, 255.0, out=np.empty(pixels.shape, order="F"))


def load_idx_labels(path) -> np.ndarray:
    _, payload = _read_idx(path, LABELS_MAGIC)
    labels = payload.astype(np.int64)
    if labels.size and labels.max() >= N_CLASSES:
        bad = int(np.argmax(labels >= N_CLASSES))
        raise IdxError(f"{path}: label {labels[bad]} out of range 0..{N_CLASSES - 1} "
                       f"at offset {8 + bad}")
    return labels


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    """Write an array as an IDX file, one header size per dimension, by the
    byte rule (see the module docstring); gzips iff the path ends in .gz."""
    with np.errstate(invalid="ignore"):  # casting NaN, inf or out-of-range floats
        as_bytes = array.astype(np.uint8, copy=False)  # a uint8 array itself
    if as_bytes is not array and not np.array_equal(as_bytes, array):
        raise IdxError(f"{path}: {array.dtype} values must be whole numbers in 0..255")
    blob = struct.pack(f">{1 + array.ndim}I", magic, *array.shape) + as_bytes.tobytes()
    path = Path(path)
    path.write_bytes(gzip.compress(blob) if path.suffix == ".gz" else blob)


def write_idx_images(path, pixels: np.ndarray) -> None:
    """Write pixels (N x N_FEATURES) as an IDX image file (see `_write_idx`)."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2 or pixels.shape[1] != N_FEATURES:
        raise IdxError(f"{path}: pixels have shape {pixels.shape}, expected N x {N_FEATURES}")
    _write_idx(path, IMAGES_MAGIC, pixels.reshape(pixels.shape[0], IMAGE_ROWS, IMAGE_COLS))


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise IdxError(f"{path}: labels must be 1-D, got ndim={labels.ndim}")
    _write_idx(path, LABELS_MAGIC, labels)


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
        raise IdxError(f"unknown split '{split}', expected {' or '.join(_SPLIT_FILES)}")
    image_file, label_file = _SPLIT_FILES[split]
    images = _idx_pixels(resolve_idx_path(data_dir, dataset, image_file))
    labels = load_idx_labels(resolve_idx_path(data_dir, dataset, label_file))
    return DatasetSplit(images=images, labels=labels, name=split)


def one_hot(labels, classes: int = N_CLASSES) -> np.ndarray:
    """classes x N matrix with a single 1.0 per column; labels must be integers."""
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise IdxError(f"labels are {labels.dtype}, expected integers")
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


# Feature rows per chunk of `synthetic_split`.
SYNTHETIC_ROWS = 16


def synthetic_split(n_samples: int, seed: int, name: str = "train", *,
                    task_seed: int = 0) -> DatasetSplit:
    """MNIST-shaped synthetic classification data for dataset-free tests.

    Each class is a fixed random prototype in [0, 1]^N_FEATURES determined by
    `task_seed`; samples are noisy convex blends of their prototype, clipped
    to [0, 1]. Splits drawn with different `seed` but one task_seed share the
    prototypes, so train/test generalization is meaningful. Prototypes in
    high dimension are nearly orthogonal, so the task is easily learnable.
    """
    proto_rng = np.random.default_rng([task_seed, 0xDA7A])
    protos = proto_rng.uniform(0.0, 1.0, size=(N_FEATURES, N_CLASSES))
    rng = np.random.default_rng([seed, 0x5A11])
    labels = rng.integers(0, N_CLASSES, size=n_samples)
    # clip(0.75 proto + 0.25 noise) a few feature rows at a time, with no
    # full-size temporaries: the generator fills arrays in C order, so
    # drawing the noise in row chunks gives the values of one whole draw.
    # Each sample's column is contiguous (Fortran order), as the whole-array
    # form gave for all but the narrowest splits, so that gathering a
    # batch's columns stays cheap; a chunk is computed in a C-ordered
    # buffer and then copied in.
    images = np.empty((N_FEATURES, n_samples), order="F")
    chunk = np.empty((SYNTHETIC_ROWS, n_samples))
    for lo in range(0, N_FEATURES, SYNTHETIC_ROWS):
        hi = min(lo + SYNTHETIC_ROWS, N_FEATURES)
        # labels are in range, so mode="clip" only spares take() its buffer
        rows = np.take(protos[lo:hi], labels, axis=1, out=chunk[:hi - lo], mode="clip")
        rows *= 0.75
        noise = rng.uniform(0.0, 1.0, size=(hi - lo, n_samples))
        noise *= 0.25
        rows += noise
        np.clip(rows, 0.0, 1.0, out=rows)
        images[lo:hi] = rows
    return DatasetSplit(images=images, labels=labels.astype(np.int64), name=name)
