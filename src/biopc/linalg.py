"""Dense float64 matrix kernels and element-wise activations.

Everything here operates on 2-D numpy arrays of float64; minibatches are
stored with one column per sample. The models' loops use `@` directly;
`matmul`, the shape-checked product, is what the benchmark times. The
models take activation derivatives from the stored activations (see
`network.LayeredModel._rising`).
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ActivationKind(Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D float64 array (no copy when already one)."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D matrix, got array with ndim={m.ndim}")
    return m


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    return a @ b


def _sigmoid(x: np.ndarray, out=None, scratch=None, mask=None) -> np.ndarray:
    # With e = exp(-|x|) this is 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below: the overflow-free piecewise form, bit for
    # bit, without masked gathers and scatters. exp() never sees a positive
    # argument. minimum(x, -x) is -|x| that leaves a NaN's sign bit alone,
    # so NaN inputs give the same NaN bits as the piecewise form too.
    # x is last read before `out` is first written, so `out` may be x.
    e = np.negative(x, out=scratch)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, np.greater_equal(x, 0, out=mask), out=out)
    e += 1.0
    s /= e
    return s


def activate(kind: ActivationKind, x, out=None, scratch=None, mask=None) -> np.ndarray:
    """Element-wise activation f(x), written into `out` when given (which
    may be x itself). The sigmoid works in `scratch`, a float64 array, and
    `mask`, a bool array, both shaped like x; each is made when not given.
    x is not converted: callers pass a 2-D float64 array."""
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(x, out, scratch, mask)
    if kind is ActivationKind.TANH:
        return np.tanh(x, out=out)
    raise ValueError(f"unknown activation kind: {kind!r}")
