"""Binary checkpoint container for networks, baselines and optimizer state.

Layout, all little-endian after the magic:

    magic           4 bytes  b"PCCK"
    version         u32      1
    model_kind      u8       0 = predictive-coding network, 1 = backprop MLP
    n_levels        u32      number of layer sizes (input..output)
    dims            u32 * n_levels
    hidden_act      u8       0 sigmoid, 1 tanh
    output_act      u8
    encoding        u8       its `tag`: 0 subtractive, 1 subtractive-threshold,
                             2 division
    feedback        u8       its `tag`: 0 transpose, 1 random fixed,
                             2 kolen-pollack
    positive        u8       0/1 positivity constraint on activities
    bias            f64
    e_min, e_max    f64, f64 threshold-encoding range (zeros otherwise)
    epsilon         f64      division-encoding constant (zero otherwise)
    gamma           f64      kolen-pollack decay (zero otherwise)
    n_weights       u32      then per matrix: rows u32, cols u32,
                             rows*cols f64 row-major
    has_feedback    u8       if 1: u32 count then matrix blocks as above
    has_optimizers  u8       if 1: u32 count then per state:
                             step u64, lr f64, beta1 f64, beta2 f64, eps f64,
                             m matrix block, v matrix block

Round trips are bit-exact: matrices are written as raw float64 bytes,
straight from each array's buffer, and each is copied once on loading.
The loader raises `CheckpointError`, naming the path, for any input it
cannot turn into a model.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import encodings as enc
from .baseline import MLP
from .linalg import ActivationKind
from .network import FEEDBACK_SCHEMES, PCNetwork
from .optim import AdamState

MAGIC = b"PCCK"
VERSION = 1

_ACT_TAGS = {ActivationKind.SIGMOID: 0, ActivationKind.TANH: 1}
_ACT_FROM_TAG = {v: k for k, v in _ACT_TAGS.items()}


class CheckpointError(ValueError):
    pass


# The encoding and feedback parameters, in their slot order; a slot the
# model's encoding and feedback scheme have no field for holds zero.
_PARAM_SLOTS = ("e_min", "e_max", "epsilon", "gamma")


def _write_matrix(f, m: np.ndarray) -> None:
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim != 2:
        raise CheckpointError(f"can only store 2-D matrices, got ndim={m.ndim}")
    f.write(struct.pack("<II", m.shape[0], m.shape[1]))
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

    def take(self, n: int, what: str) -> bytes:
        start = self.skip(n, what)
        return self.buf[start:start + n]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]

    def matrix(self, what: str) -> np.ndarray:
        """A read-only view of the next matrix block's data in the buffer;
        whoever keeps it makes the one copy."""
        rows = self.u32(f"{what} rows")
        cols = self.u32(f"{what} cols")
        start = self.skip(8 * rows * cols, f"{what} data")
        return np.frombuffer(self.buf, dtype="<f8", count=rows * cols,
                             offset=start).reshape(rows, cols)


def save_checkpoint(path, model: Union[PCNetwork, MLP],
                    optimizer_states: Optional[list] = None) -> None:
    is_mlp = isinstance(model, MLP)
    if is_mlp:
        tags, params = (0, 0, 0), {}
    else:
        tags = (model.encoding.tag, model.feedback.tag, 1 if model.positive_activities else 0)
        params = {**dataclasses.asdict(model.encoding), **dataclasses.asdict(model.feedback)}
    fb = None if is_mlp else model.feedback_weights

    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<IBI", VERSION, 1 if is_mlp else 0, len(model.dims)))
        f.write(struct.pack(f"<{len(model.dims)}I", *model.dims))
        f.write(struct.pack("<BB", _ACT_TAGS[model.hidden_activation],
                            _ACT_TAGS[model.output_activation]))
        f.write(struct.pack("<BBB", *tags))
        f.write(struct.pack("<5d", model.bias, *(params.get(k, 0.0) for k in _PARAM_SLOTS)))

        f.write(struct.pack("<I", len(model.weights)))
        for w in model.weights:
            _write_matrix(f, w)

        f.write(struct.pack("<B", 0 if fb is None else 1))
        if fb is not None:
            f.write(struct.pack("<I", len(fb)))
            for b in fb:
                _write_matrix(f, b)

        f.write(struct.pack("<B", 0 if optimizer_states is None else 1))
        if optimizer_states is not None:
            f.write(struct.pack("<I", len(optimizer_states)))
            for s in optimizer_states:
                f.write(struct.pack("<Q4d", s.step_count, s.lr, s.beta1, s.beta2, s.eps))
                _write_matrix(f, s.m)
                _write_matrix(f, s.v)


def load_checkpoint(path):
    """Returns (model, optimizer_states or None)."""
    buf = Path(path).read_bytes()
    r = _Reader(buf, path)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: bad magic at offset 0, expected {MAGIC!r}")
    version = r.u32("version")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    model_kind = r.u8("model kind")
    n_levels = r.u32("level count")
    dims = [r.u32(f"dims[{i}]") for i in range(n_levels)]
    try:
        hidden_act = _ACT_FROM_TAG[r.u8("hidden activation")]
        output_act = _ACT_FROM_TAG[r.u8("output activation")]
    except KeyError as err:
        raise CheckpointError(f"{path}: unknown activation tag {err}") from None
    encoding_tag = r.u8("encoding")
    feedback_tag = r.u8("feedback")
    positive = bool(r.u8("positivity flag"))
    bias = r.f64("bias")
    params = {k: r.f64(k) for k in _PARAM_SLOTS}

    n_w = r.u32("weight count")
    weights = [r.matrix(f"W[{l}]") for l in range(n_w)]
    feedback_weights = None
    if r.u8("feedback presence"):
        n_b = r.u32("feedback count")
        feedback_weights = [r.matrix(f"B[{l}]") for l in range(n_b)]

    optimizers = None
    if r.u8("optimizer presence"):
        n_opt = r.u32("optimizer count")
        optimizers = []
        for i in range(n_opt):
            step = r.u64(f"opt[{i}] step")
            lr = r.f64(f"opt[{i}] lr")
            beta1 = r.f64(f"opt[{i}] beta1")
            beta2 = r.f64(f"opt[{i}] beta2")
            eps = r.f64(f"opt[{i}] eps")
            m = r.matrix(f"opt[{i}] m").copy()
            v = r.matrix(f"opt[{i}] v").copy()
            optimizers.append(AdamState(m=m, v=v, step_count=step, lr=lr,
                                        beta1=beta1, beta2=beta2, eps=eps))

    if r.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - r.pos} trailing bytes at offset {r.pos}")

    if model_kind not in (0, 1):
        raise CheckpointError(f"{path}: unknown model kind {model_kind}")
    try:
        if model_kind == 1:
            model = MLP(dims, weights, bias=bias,
                        hidden_activation=hidden_act, output_activation=output_act)
        else:
            model = PCNetwork(dims, weights, feedback_weights, bias=bias,
                              hidden_activation=hidden_act, output_activation=output_act,
                              encoding=enc.build(enc.ENCODINGS, "tag", encoding_tag, params),
                              feedback=enc.build(FEEDBACK_SCHEMES, "tag", feedback_tag, params),
                              positive_activities=positive)
    except ValueError as err:
        raise CheckpointError(f"{path}: {err}") from None
    return model, optimizers
