"""Backpropagation baseline: an MLP with the same forward conventions.

Hidden layer l computes a_l = f(W_{l-1} a_{l-1}) + b with the same fixed
scalar shift b as the predictive-coding network (the output layer is
unshifted, also matching it), so a network and an MLP holding equal weights
produce bit-identical outputs. The loss is the mean over the batch of the
summed squared output error (1/2)||y - a_L||^2.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    ActivationKind,
    ShapeMismatchError,
    activate,
    activate_deriv,
    as_matrix,
    matmul,
)
from .network import _xavier_uniform, predict_sweep


class MLP:
    def __init__(self, dims, weights, *, bias: float = 0.0,
                 hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                 output_activation: ActivationKind = ActivationKind.SIGMOID):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must hold at least two positive sizes, got {dims}")
        if len(weights) != len(dims) - 1:
            raise ValueError(f"expected {len(dims) - 1} weight matrices, got {len(weights)}")
        self.dims = dims
        self.weights = [np.array(w, dtype=np.float64) for w in weights]
        for l, w in enumerate(self.weights):
            want = (dims[l + 1], dims[l])
            if w.shape != want:
                raise ShapeMismatchError(f"W[{l}] has shape {w.shape}, expected {want}")
        if bias < 0:
            raise ValueError(f"bias must be >= 0, got {bias}")
        self.bias = float(bias)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation

    @property
    def n_levels(self) -> int:
        return len(self.dims) - 1

    def activation_at(self, level: int) -> ActivationKind:
        return self.output_activation if level == self.n_levels else self.hidden_activation

    def bias_at(self, level: int) -> float:
        return 0.0 if level == self.n_levels else self.bias

    def forward(self, x):
        """Returns (activations per layer, pre-activations per layer);
        index 0 of the pre-activation list is unused."""
        x = as_matrix(x)
        if x.shape[0] != self.dims[0]:
            raise ShapeMismatchError(f"input has {x.shape[0]} rows, expected {self.dims[0]}")
        a = [x]
        p = [None]
        for l in range(1, self.n_levels + 1):
            pl = matmul(self.weights[l - 1], a[l - 1])
            a.append(activate(self.activation_at(l), pl) + self.bias_at(l))
            p.append(pl)
        return a, p

    def predict(self, x) -> np.ndarray:
        """Output activations: what `forward` computes, without keeping the
        hidden layers (see `network.predict_sweep`)."""
        x = as_matrix(x)
        if x.shape[0] != self.dims[0]:
            raise ShapeMismatchError(f"input has {x.shape[0]} rows, expected {self.dims[0]}")
        return predict_sweep(self, x, rectify=False)

    def loss(self, x, y) -> float:
        y = as_matrix(y)
        out = self.predict(x)
        if out.shape != y.shape:
            raise ShapeMismatchError(f"target shape {y.shape} does not match output {out.shape}")
        d = out - y
        return float(0.5 * np.sum(d * d) / y.shape[1])

    def backward(self, x, y):
        """Exact gradients of the mean squared-error loss w.r.t. each W."""
        a, p = self.forward(x)
        y = as_matrix(y)
        L = self.n_levels
        if a[L].shape != y.shape:
            raise ShapeMismatchError(f"target shape {y.shape} does not match output {a[L].shape}")
        batch = y.shape[1]
        grads = [None] * L
        g = (a[L] - y) * activate_deriv(self.activation_at(L), p[L])
        for l in range(L, 0, -1):
            grads[l - 1] = matmul(g, a[l - 1].T) / batch
            if l > 1:
                g = matmul(self.weights[l - 1].T, g) * activate_deriv(self.activation_at(l - 1), p[l - 1])
        return grads


def init_mlp(dims, *, bias: float = 0.0,
             hidden_activation: ActivationKind = ActivationKind.SIGMOID,
             output_activation: ActivationKind = ActivationKind.SIGMOID,
             seed: int = 0) -> MLP:
    """Xavier-uniform init; the same seed yields the same forward weights as
    init_network, which is what equal-footing comparisons rely on."""
    dims = [int(d) for d in dims]
    rng = np.random.default_rng(seed)
    weights = [_xavier_uniform(rng, dims[l + 1], dims[l]) for l in range(len(dims) - 1)]
    return MLP(dims, weights, bias=bias,
               hidden_activation=hidden_activation, output_activation=output_activation)
