"""Dense float64 matrix kernels and element-wise activations.

Everything here operates on 2-D numpy arrays of float64; minibatches are
stored with one column per sample. These are the only numerical primitives
the rest of the package builds on.
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


def outer(u, v) -> np.ndarray:
    """Batch-averaged outer product.

    `u` is m x B and `v` is n x B, one column per sample. Returns the mean
    over the batch of the per-sample outer products u[:, s] v[:, s]^T, an
    m x n matrix. With single-column inputs this is the plain outer product.
    """
    u = as_matrix(u)
    v = as_matrix(v)
    if u.shape[1] != v.shape[1]:
        raise ShapeMismatchError(f"outer: batch sizes disagree, {u.shape} vs {v.shape}")
    if u.shape[1] == 0:
        raise ShapeMismatchError("outer: empty batch")
    return (u @ v.T) / u.shape[1]


def hadamard(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"hadamard: shapes disagree, {a.shape} vs {b.shape}")
    return a * b


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # With e = exp(-|x|) this is 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below: the overflow-free piecewise form, bit for
    # bit, without masked gathers and scatters. exp() never sees a positive
    # argument. minimum(x, -x) is -|x| that leaves a NaN's sign bit alone,
    # so NaN inputs give the same NaN bits as the piecewise form too.
    e = np.negative(x)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    s = np.maximum(e, x >= 0)
    e += 1.0
    s /= e
    return s


def activate(kind: ActivationKind, x) -> np.ndarray:
    """Element-wise activation f(x)."""
    x = as_matrix(x)
    if kind is ActivationKind.SIGMOID:
        return _sigmoid(x)
    if kind is ActivationKind.TANH:
        return np.tanh(x)
    raise ValueError(f"unknown activation kind: {kind!r}")


def activate_deriv(kind: ActivationKind, x) -> np.ndarray:
    """Element-wise derivative f'(x), evaluated at the pre-activation."""
    x = as_matrix(x)
    if kind is ActivationKind.SIGMOID:
        s = _sigmoid(x)
        return s * (1.0 - s)
    if kind is ActivationKind.TANH:
        t = np.tanh(x)
        return 1.0 - t * t
    raise ValueError(f"unknown activation kind: {kind!r}")
