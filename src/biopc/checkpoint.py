"""Binary checkpoint container for networks, baselines and optimizer state.

Layout, all little-endian. Each bracketed name is the module-level
`struct.Struct` that both the writer and the reader use for that record:

    [_HEADER]  magic b"PCCK", version u32 (1), model kind u8, level count u32
    [_dims(n)] the n layer sizes (input..output), u32 each
    [_TAGS]    u8 each: hidden activation, output activation (always the
               sigmoid), encoding, feedback (each code the index of its
               name in `_CODES`), positivity of activities (0/1)
    [_PARAMS]  f64 each: bias, then e_min, e_max, epsilon, gamma (+0.0 where
               the model's encoding and feedback scheme have no such field)
    [_COUNT]   weight count u32, then per matrix a block: [_SHAPE] rows u32,
               cols u32, then rows*cols f64 row-major
    [_FLAG]    feedback presence u8; if 1: [_COUNT] and blocks as above
    [_FLAG]    optimizer presence u8, always 1; [_COUNT], then per state
               [_ADAM] step u64, lr, beta1, beta2, eps f64 (the last three
               always `optim`'s BETA1, BETA2 and EPS), and m, v blocks

Round trips are bit-exact: matrices are written as raw float64 bytes,
straight from each array's buffer. On loading, each weight and feedback
matrix is copied once; an optimizer state's m and v stay read-only views
of the file's bytes, which its first step copies (see `AdamState`), so a
load that only needs the model copies no optimizer state.

The kind and `_TAGS` code bytes are this module's alone: `_CODES` lists,
per `TrainConfig` field, the config names at their codes. Every model takes
one write path, `_pack`, and the loader builds it as a run does, through
`TrainConfig.model_class()` and `structure()`. The writer is the one
statement of the format: the loader packs what it built and refuses the
file unless each record equals the file's bytes at its offset and nothing
follows (matrix data, the file's own bytes, are skipped), so every file
that loads saves back to its own bytes. That refusal, an unknown code, any
input the loader cannot turn into a model and an optimizer state outside
Adam's bounds or not one per weight matrix shaped as it are
`CheckpointError`s naming the path; the writer refuses such a state first.

A checkpoint is written whole or not at all. Every record is packed first
(matrices as views of their data, not copies), and a value a record cannot
hold is a `CheckpointError` naming the path and the record. The file is
then written under a temporary name in the target's directory and renamed
over the target; on any failure the temporary is removed and the old file
stays as it was.
"""

from __future__ import annotations

import dataclasses
import os
import struct
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .network import LayeredModel
from .optim import BETA1, BETA2, EPS, AdamState

MAGIC = b"PCCK"
VERSION = 1


class CheckpointError(ValueError):
    pass


# The records of the layout above, the parameters after the bias, the code tables.
_PARAM_SLOTS = ("e_min", "e_max", "epsilon", "gamma")
_CODES = {"model": ("pc", "bp"), "hidden_activation": ("sigmoid", "tanh"),
          "encoding": ("subtractive", "threshold", "division"),
          "feedback": ("transpose", "random", "kp")}
_HEADER = struct.Struct("<4sIBI")
_TAGS = struct.Struct("<5B")
_PARAMS = struct.Struct("<5d")
_COUNT = struct.Struct("<I")
_FLAG = struct.Struct("<B")
_SHAPE = struct.Struct("<II")
_ADAM = struct.Struct("<Q4d")


def _dims(n_levels: int) -> struct.Struct:
    return struct.Struct(f"<{n_levels}I")


class _Writer:
    """The records of a file in order, packed before anything is written:
    (name, bytes), and (name, a view of its float64 data) per matrix."""

    def __init__(self, path):
        self.records = []
        self.path = path

    def write(self, record: struct.Struct, what: str, *values) -> None:
        try:
            self.records.append((what, record.pack(*values)))
        except struct.error as err:
            raise CheckpointError(f"{self.path}: cannot write {what}: {err}") from None

    def matrix(self, what: str, m: np.ndarray) -> None:
        m = np.ascontiguousarray(m, dtype="<f8")  # _SHAPE refuses all but 2-D
        self.write(_SHAPE, f"{what} shape", *m.shape)
        self.records.append((f"{what} data", m))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def skip(self, n: int, what: str) -> int:
        """Moves past the next n bytes; returns their offset."""
        if self.pos + n > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated while reading {what} at offset {self.pos}")
        self.pos += n
        return self.pos - n

    def read(self, record: struct.Struct, what: str) -> tuple:
        return record.unpack_from(self.buf, self.skip(record.size, what))

    def matrix(self, what: str) -> np.ndarray:
        """A read-only view of the next matrix block's data in the buffer;
        whoever keeps it makes the one copy."""
        rows, cols = self.read(_SHAPE, f"{what} shape")
        start = self.skip(8 * rows * cols, f"{what} data")
        return np.frombuffer(self.buf, dtype="<f8", count=rows * cols,
                             offset=start).reshape(rows, cols)


def _check_optimizers(path, optimizers: list, weights: list) -> None:
    """One state per weight matrix, `m` and `v` shaped as it, within Adam's bounds."""
    if len(optimizers) != len(weights):
        raise CheckpointError(f"{path}: optimizer block holds {len(optimizers)} states "
                              f"for {len(weights)} weight matrices")
    for i, (state, w) in enumerate(zip(optimizers, weights)):
        for name in ("m", "v"):
            shape = getattr(state, name).shape
            if shape != w.shape:
                raise CheckpointError(f"{path}: opt[{i}] {name} is {'x'.join(map(str, shape))}, "
                                      f"W[{i}] is {w.shape[0]}x{w.shape[1]}")
        try:
            dataclasses.replace(state)  # reruns the bounds; copies no array
        except ValueError as err:
            raise CheckpointError(f"{path}: opt[{i}]: {err}") from None


def _pack(path, model: LayeredModel, optimizer_states: list) -> list:
    """The records of the file that holds `model` and `optimizer_states`
    (see `_Writer`), after the optimizer states are checked."""
    _check_optimizers(path, optimizer_states, model.weights)
    params = {**dataclasses.asdict(model.encoding), **dataclasses.asdict(model.feedback)}
    activations = _CODES["hidden_activation"]
    fb = model.feedback_weights
    n = len(model.dims)

    w = _Writer(path)
    w.write(_HEADER, "header", MAGIC, VERSION, _CODES["model"].index(model.name), n)
    w.write(_dims(n), "dims", *model.dims)
    w.write(_TAGS, "tags", activations.index(model.hidden_activation.value),
            activations.index(model.activation_at(model.n_levels).value),
            _CODES["encoding"].index(model.encoding.name),
            _CODES["feedback"].index(model.feedback.name),
            1 if model.positive_activities else 0)
    w.write(_PARAMS, "parameters", model.bias, *(params.get(k, 0.0) for k in _PARAM_SLOTS))

    w.write(_COUNT, "weight count", len(model.weights))
    for l, m in enumerate(model.weights):
        w.matrix(f"W[{l}]", m)

    w.write(_FLAG, "feedback presence", 0 if fb is None else 1)
    if fb is not None:
        w.write(_COUNT, "feedback count", len(fb))
        for l, b in enumerate(fb):
            w.matrix(f"B[{l}]", b)

    w.write(_FLAG, "optimizer presence", 1)
    w.write(_COUNT, "optimizer count", len(optimizer_states))
    for i, s in enumerate(optimizer_states):
        w.write(_ADAM, f"opt[{i}] header", s.step_count, s.lr, BETA1, BETA2, EPS)
        w.matrix(f"opt[{i}] m", s.m)
        w.matrix(f"opt[{i}] v", s.v)
    return w.records


def save_checkpoint(path, model: LayeredModel, optimizer_states: list) -> None:
    """Writes `model` and its optimizer states, one per weight matrix; a
    mismatched state is refused before the file is opened, and the target
    keeps its old bytes unless the whole new file is written."""
    records = _pack(path, model, optimizer_states)
    # `open`, not `mkstemp` (0600), so the file gets a new file's usual permissions.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            for _, chunk in records:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Returns (model, optimizer_states)."""
    buf = Path(path).read_bytes()
    r = _Reader(buf, path)
    magic, version, model_kind, n_levels = r.read(_HEADER, "header")
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    dims = list(r.read(_dims(n_levels), "dims"))
    hidden, _, encoding, feedback, positive = r.read(_TAGS, "tags")
    names = {}
    for (field, table), code in zip(_CODES.items(), (model_kind, hidden, encoding, feedback)):
        if code >= len(table):
            raise CheckpointError(f"{path}: unknown {field} code {code}")
        names[field] = table[code]
    bias, *slots = r.read(_PARAMS, "parameters")

    (n_w,) = r.read(_COUNT, "weight count")
    weights = [r.matrix(f"W[{l}]") for l in range(n_w)]
    feedback_weights = None
    if r.read(_FLAG, "feedback presence")[0]:
        (n_b,) = r.read(_COUNT, "feedback count")
        feedback_weights = [r.matrix(f"B[{l}]") for l in range(n_b)]

    r.read(_FLAG, "optimizer presence")  # any byte but 1 fails the save-back below
    (n_opt,) = r.read(_COUNT, "optimizer count")
    optimizers = []
    for i in range(n_opt):
        # other constants fail the save-back below
        step, lr, *_ = r.read(_ADAM, f"opt[{i}] header")
        m, v = r.matrix(f"opt[{i}] m"), r.matrix(f"opt[{i}] v")
        try:
            optimizers.append(AdamState(m=m, v=v, step_count=step, lr=lr))
        except ValueError as err:
            raise CheckpointError(f"{path}: opt[{i}]: {err}") from None

    cfg = TrainConfig(**names, bias=bias, positive_activities=bool(positive),
                      **dict(zip(_PARAM_SLOTS, slots)))
    try:
        model = cfg.model_class()(dims, weights, feedback_weights, **cfg.structure())
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None
    at = 0
    for what, chunk in _pack(path, model, optimizers):
        # a matrix's data are the file's own float64 bytes, copied or viewed
        if isinstance(chunk, bytes) and not buf.startswith(chunk, at):
            raise CheckpointError(f"{path}: {what} at offset {at} would save as other bytes")
        at += memoryview(chunk).nbytes
    if at != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - at} trailing bytes at offset {at}")
    return model, optimizers
