"""Backpropagation baseline: an MLP on the predictive-coding network's
forward sweep.

Hidden layer l computes a_l = f(W_{l-1} a_{l-1}) + b with the same fixed
scalar shift b as the predictive-coding network (the output layer is
unshifted, also matching it). Both are a `network.LayeredModel`, so a
network and an MLP holding equal weights produce bit-identical outputs.
`MLP.fixed_structure` states backprop's structure once (subtractive errors,
transpose feedback, no positivity): the shared constructor and `TrainConfig`
reject anything else. `MODELS` lists both model classes. The loss is the
mean over the batch of the summed squared output error (1/2)||y - a_L||^2,
the subtractive output cost.
`MLP.descent` is backprop's batch entry: it checks the input and target
once and gives the loss and negative gradients from one forward sweep,
which `loss` and `backward` take.
"""

from __future__ import annotations

import numpy as np

from . import encodings as enc
from .linalg import ActivationKind
from .network import LayeredModel, PCNetwork, Transpose, init_network


class MLP(LayeredModel):
    name = "bp"
    tag = 1
    # `loss` is the subtractive output cost, and `backward` sends errors
    # down through the transposes of unrectified activities.
    fixed_structure = {"encoding": enc.Subtractive(), "feedback": Transpose(),
                       "positive_activities": False}

    def loss(self, y, outputs) -> float:
        """Mean squared-error loss of forward-sweep `outputs` against the
        targets `y`."""
        return self.encoding.output_cost(y, outputs)

    def backward(self, y, sweep):
        """Exact gradients of the mean squared-error loss w.r.t. each W, from
        `sweep`, the batch's `_sweep`."""
        a, fp, _ = sweep
        L = self.n_levels
        batch = y.shape[1]
        grads = [None] * L
        g = (a[L] - y) * self._act_deriv(fp, L)
        for l in range(L, 0, -1):
            grads[l - 1] = (g @ a[l - 1].T) / batch
            if l > 1:
                g = (self.weights[l - 1].T @ g) * self._act_deriv(fp, l - 1)
        return grads

    def descent(self, x, y, n_updates: int, beta: float):
        """(loss, negative gradients) of the batch, from one forward sweep.
        Backprop does not relax: `n_updates` and `beta` are ignored."""
        x = self._check_input(x)
        y = self._check_target(y, x.shape[1])
        sweep = self._sweep(x)
        objective = self.loss(y, sweep[0][-1])
        return objective, [np.negative(g, out=g) for g in self.backward(y, sweep)]


MODELS = (PCNetwork, MLP)


def init_mlp(dims, *, bias: float = 0.0,
             hidden_activation: ActivationKind = ActivationKind.SIGMOID,
             seed: int = 0) -> MLP:
    """`init_network` for an MLP: the same seed yields the same forward
    weights as for a network, which equal-footing comparisons rely on."""
    return init_network(dims, bias=bias, hidden_activation=hidden_activation, seed=seed,
                        model_class=MLP)
