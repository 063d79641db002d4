"""Backpropagation baseline: an MLP on the predictive-coding network's
forward sweep.

Hidden layer l computes a_l = f(W_{l-1} a_{l-1}) + b with the same fixed
scalar shift b as the predictive-coding network (the output layer is
unshifted, also matching it). Both are a `network.LayeredModel`, so a
network and an MLP holding equal weights produce bit-identical outputs.
`MLP.fixed_structure` states backprop's structure once (subtractive errors,
transpose feedback, no positivity): the shared constructor and `TrainConfig`
reject anything else. `MODELS` lists both model classes, looked up by config
`name` (the kind byte codes are `checkpoint`'s table). The loss is the
subtractive output cost, the batch mean of (1/2)||y - a_L||^2.
`MLP.descent` is backprop's batch entry. It runs on the network's own
batch state and learning rule: `init_forward` sweeps the batch into a
`NetworkState` and `clamp_output` puts the targets at the output level;
`loss` writes the output error there, and `backward` writes each hidden
level's error (backprop's delta over f') from the top down and returns
`weight_update_direction`, which with exact errors is the negative
gradient (Whittington & Bogacz 2017). No gradient formula lives here.
An MLP is built as a network is, by `network.init_network(dims, ...,
model_class=MLP)`: the same seed yields the same forward weights for
either class, which equal-footing comparisons rely on.
"""

from __future__ import annotations

import numpy as np

from . import encodings as enc
from .network import LayeredModel, NetworkState, PCNetwork, Transpose


class MLP(LayeredModel):
    name = "bp"
    # `loss` is the subtractive output cost, and `backward` sends errors
    # down through the transposes of unrectified activities.
    fixed_structure = {"encoding": enc.Subtractive(), "feedback": Transpose(),
                       "positive_activities": False}

    def loss(self, state: NetworkState) -> float:
        """Mean squared-error loss of the state's outputs against its clamped
        targets: the encoding's error and cost at the output level."""
        L = self.n_levels
        self.encoding.error(state.a[L], state.phat[L], state.terms[L])
        return self.encoding.cost(state.terms[L])

    def backward(self, state: NetworkState) -> list:
        """Negative gradients of the loss w.r.t. each W, after `loss`: from
        the top down, each hidden level's error becomes the rising term above
        it sent down through the weights' transposes, and the network's own
        weight rule turns those errors into the directions."""
        for l in range(self.n_levels - 1, 0, -1):
            np.matmul(self.feedback.matrix(self, l), self._rising(state, l + 1),
                      out=state.terms[l].e)
        return self.weight_update_direction(state)

    def descent(self, x, y, n_updates: int, beta: float):
        """(loss, negative gradients) of the batch, from one forward sweep.
        Backprop does not relax: `n_updates` and `beta` are ignored."""
        state = self.clamp_output(self.init_forward(x), y)
        return self.loss(state), self.backward(state)


MODELS = (PCNetwork, MLP)
