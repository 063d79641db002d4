"""Binary checkpoint container for networks, baselines and optimizer state.

Layout, all little-endian. Each bracketed name is the module-level
`struct.Struct` that both the writer and the reader use for that record:

    [_HEADER]  magic b"PCCK", version u32 (1), model kind u8 (the class's
               `tag`: 0 predictive-coding network, 1 MLP), level count u32
    [_dims(n)] the n layer sizes (input..output), u32 each
    [_TAGS]    u8 each: hidden activation (0 sigmoid, 1 tanh), output
               activation (always 0, the sigmoid), encoding `tag` (0
               subtractive, 1 threshold, 2 division), feedback `tag` (0 transpose,
               1 random fixed, 2 Kolen-Pollack), positivity of activities (0/1)
    [_PARAMS]  f64 each: bias, then e_min, e_max, epsilon, gamma (zero where
               the model's encoding and feedback scheme have no such field)
    [_COUNT]   weight count u32, then per matrix a block: [_SHAPE] rows u32,
               cols u32, then rows*cols f64 row-major
    [_FLAG]    feedback presence u8; if 1: [_COUNT] and blocks as above
    [_FLAG]    optimizer presence u8; if 1: [_COUNT], then per state
               [_ADAM] step u64, lr, beta1, beta2, eps f64, and m, v blocks

Round trips are bit-exact: matrices are written as raw float64 bytes,
straight from each array's buffer, and each is copied once on loading.

Every model takes one write path and loads through one constructor call on
the class its kind byte names, which owns the structure (see `baseline`).
So an MLP record carries subtractive and transpose tags, no positivity and
no feedback block, and zeros in the parameter slots after the bias (which
its schemes do not read). Other tags, positivity or a feedback block are a
`CheckpointError`, naming the path, as is any input the loader cannot turn
into a model.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from . import encodings as enc
from .baseline import MLP
from .linalg import ActivationKind
from .network import FEEDBACK_SCHEMES, LayeredModel, PCNetwork
from .optim import AdamState

MAGIC = b"PCCK"
VERSION = 1

_ACT_TAGS = {ActivationKind.SIGMOID: 0, ActivationKind.TANH: 1}
_ACT_FROM_TAG = {v: k for k, v in _ACT_TAGS.items()}


class CheckpointError(ValueError):
    pass


# The records of the layout above, and the parameters after the bias.
_PARAM_SLOTS = ("e_min", "e_max", "epsilon", "gamma")
_HEADER = struct.Struct("<4sIBI")
_TAGS = struct.Struct("<5B")
_PARAMS = struct.Struct("<5d")
_COUNT = struct.Struct("<I")
_FLAG = struct.Struct("<B")
_SHAPE = struct.Struct("<II")
_ADAM = struct.Struct("<Q4d")


def _dims(n_levels: int) -> struct.Struct:
    return struct.Struct(f"<{n_levels}I")


def _write_matrix(f, m: np.ndarray) -> None:
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim != 2:
        raise CheckpointError(f"can only store 2-D matrices, got ndim={m.ndim}")
    f.write(_SHAPE.pack(*m.shape))
    f.write(m)


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


def save_checkpoint(path, model: LayeredModel,
                    optimizer_states: Optional[list] = None) -> None:
    params = {**dataclasses.asdict(model.encoding), **dataclasses.asdict(model.feedback)}
    fb = model.feedback_weights
    n = len(model.dims)

    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, model.tag, n))
        f.write(_dims(n).pack(*model.dims))
        f.write(_TAGS.pack(_ACT_TAGS[model.hidden_activation],
                           _ACT_TAGS[model.activation_at(model.n_levels)], model.encoding.tag,
                           model.feedback.tag, 1 if model.positive_activities else 0))
        f.write(_PARAMS.pack(model.bias, *(params.get(k, 0.0) for k in _PARAM_SLOTS)))

        f.write(_COUNT.pack(len(model.weights)))
        for w in model.weights:
            _write_matrix(f, w)

        f.write(_FLAG.pack(0 if fb is None else 1))
        if fb is not None:
            f.write(_COUNT.pack(len(fb)))
            for b in fb:
                _write_matrix(f, b)

        f.write(_FLAG.pack(0 if optimizer_states is None else 1))
        if optimizer_states is not None:
            f.write(_COUNT.pack(len(optimizer_states)))
            for s in optimizer_states:
                f.write(_ADAM.pack(s.step_count, s.lr, s.beta1, s.beta2, s.eps))
                _write_matrix(f, s.m)
                _write_matrix(f, s.v)


def load_checkpoint(path):
    """Returns (model, optimizer_states or None)."""
    buf = Path(path).read_bytes()
    r = _Reader(buf, path)
    magic, version, model_kind, n_levels = r.read(_HEADER, "header")
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    dims = list(r.read(_dims(n_levels), "dims"))
    hidden_tag, output_tag, encoding_tag, feedback_tag, positive = r.read(_TAGS, "tags")
    if hidden_tag not in _ACT_FROM_TAG:
        raise CheckpointError(f"{path}: unknown activation tag {hidden_tag}")
    if output_tag != _ACT_TAGS[ActivationKind.SIGMOID]:
        raise CheckpointError(f"{path}: output activation tag {output_tag}, not the sigmoid's")
    bias, *slots = r.read(_PARAMS, "parameters")
    params = dict(zip(_PARAM_SLOTS, slots))

    (n_w,) = r.read(_COUNT, "weight count")
    weights = [r.matrix(f"W[{l}]") for l in range(n_w)]
    feedback_weights = None
    if r.read(_FLAG, "feedback presence")[0]:
        (n_b,) = r.read(_COUNT, "feedback count")
        feedback_weights = [r.matrix(f"B[{l}]") for l in range(n_b)]

    optimizers = None
    if r.read(_FLAG, "optimizer presence")[0]:
        (n_opt,) = r.read(_COUNT, "optimizer count")
        optimizers = []
        for i in range(n_opt):
            step, lr, beta1, beta2, eps = r.read(_ADAM, f"opt[{i}] header")
            m = r.matrix(f"opt[{i}] m").copy()
            v = r.matrix(f"opt[{i}] v").copy()
            optimizers.append(AdamState(m=m, v=v, step_count=step, lr=lr,
                                        beta1=beta1, beta2=beta2, eps=eps))

    if r.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.pos} trailing bytes at offset {r.pos}")

    model_class = next((m for m in (PCNetwork, MLP) if m.tag == model_kind), None)
    if model_class is None:
        raise CheckpointError(f"{path}: unknown model kind {model_kind}")
    try:
        model = model_class(dims, weights, feedback_weights, bias=bias,
                            hidden_activation=_ACT_FROM_TAG[hidden_tag],
                            encoding=enc.build(enc.ENCODINGS, "tag", encoding_tag, params),
                            feedback=enc.build(FEEDBACK_SCHEMES, "tag", feedback_tag, params),
                            positive_activities=bool(positive))
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None
    return model, optimizers
