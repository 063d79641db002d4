"""Backpropagation baseline: an MLP on the predictive-coding network's
forward sweep.

Hidden layer l computes a_l = f(W_{l-1} a_{l-1}) + b with the same fixed
scalar shift b as the predictive-coding network (the output layer is
unshifted, also matching it). Both inherit that sweep from
`network.LayeredModel`, so a network and an MLP holding equal weights
produce bit-identical outputs. The loss is the mean over the batch of the
summed squared output error (1/2)||y - a_L||^2, the subtractive encoding's
output cost.
"""

from __future__ import annotations

import numpy as np

from . import encodings as enc
from .linalg import ActivationKind, ShapeMismatchError, as_matrix
from .network import LayeredModel, _xavier_uniform


class MLP(LayeredModel):
    # The loss and the evaluated output objective are this encoding's
    # output cost.
    encoding = enc.Subtractive()

    def loss(self, x, y) -> float:
        y = as_matrix(y)
        out = self.predict(x)
        if out.shape != y.shape:
            raise ShapeMismatchError(f"target shape {y.shape} does not match output {out.shape}")
        return self.encoding.output_cost(y, out)

    def backward(self, x, y):
        """Exact gradients of the mean squared-error loss w.r.t. each W."""
        a, _, fp, _ = self._sweep(self._check_level_shape(x, 0, "input batch"))
        y = as_matrix(y)
        L = self.n_levels
        if a[L].shape != y.shape:
            raise ShapeMismatchError(f"target shape {y.shape} does not match output {a[L].shape}")
        batch = y.shape[1]
        grads = [None] * L
        g = (a[L] - y) * self._act_deriv(fp, L)
        for l in range(L, 0, -1):
            grads[l - 1] = (g @ a[l - 1].T) / batch
            if l > 1:
                g = (self.weights[l - 1].T @ g) * self._act_deriv(fp, l - 1)
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
