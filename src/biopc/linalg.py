"""Dense float64 matrix kernels and element-wise activations.

Everything here operates on 2-D numpy arrays of float64; minibatches are
stored with one column per sample. The models' loops use `@` directly;
`matmul`, the shape-checked product, is what the benchmark times. Each
activation's value (`activate`) and its slope from that value (`slope`) are
written here alone. The sigmoid makes its own temporaries, as large as its
input, so the models apply it per row block (`network.LayeredModel._level`).
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


def _sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    # With e = exp(-|x|) this is 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below: the overflow-free piecewise form, bit for
    # bit, without masked gathers and scatters. exp() never sees a positive
    # argument. minimum(x, -x) is -|x| that leaves a NaN's sign bit alone,
    # so NaN inputs give the same NaN bits as the piecewise form too.
    # x is last read before `out` is first written, so `out` may be x.
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, np.greater_equal(x, 0), out=out)
    e += 1.0
    s /= e
    return s


def activate(kind: ActivationKind, x, out=None) -> np.ndarray:
    """Element-wise activation f(x), written into `out` when given (which
    may be x itself). The sigmoid makes a float64 and a bool temporary
    shaped like x. x is not converted: callers pass a 2-D float64 array."""
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(x, out)
    if kind is ActivationKind.TANH:
        return np.tanh(x, out=out)
    raise ValueError(f"unknown activation kind: {kind!r}")


def slope(kind: ActivationKind, f: np.ndarray) -> np.ndarray:
    """f'(x) from the value f = f(x), as a new array: (1 - f) f or 1 - f²."""
    if kind is ActivationKind.SIGMOID:
        d = np.subtract(1.0, f)
        d *= f
        return d
    if kind is ActivationKind.TANH:
        d = np.multiply(f, f)
        return np.subtract(1.0, d, out=d)
    raise ValueError(f"unknown activation kind: {kind!r}")
