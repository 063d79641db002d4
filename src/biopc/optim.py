"""Per-matrix Adam optimizer.

`adam_step` takes the *descent direction* (the quantity to be added to the
parameter) and returns the increment to add; there is no internal sign flip.
Each weight matrix owns its own state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_shape(cls, shape, lr: float = 1e-3, beta1: float = 0.9,
                  beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, direction) -> np.ndarray:
    """One Adam step with bias correction; returns the increment to add."""
    g = as_matrix(direction)
    if g.shape != state.m.shape:
        raise ValueError(f"adam_step: direction shape {g.shape} does not match state {state.m.shape}")
    state.step_count += 1
    t = state.step_count
    # The moments are updated in place, with the same products and sums in
    # the same order as m = beta1 m + (1 - beta1) g and
    # v = beta2 v + (1 - beta2) g^2, so the results are bit-identical.
    state.m *= state.beta1
    state.m += (1.0 - state.beta1) * g
    g2 = g * g
    g2 *= 1.0 - state.beta2
    state.v *= state.beta2
    state.v += g2
    # increment = lr * m_hat / (sqrt(v_hat) + eps), built in fresh buffers so
    # it never aliases the state
    denom = state.v / (1.0 - state.beta2 ** t)
    np.sqrt(denom, out=denom)
    denom += state.eps
    increment = state.m / (1.0 - state.beta1 ** t)
    increment *= state.lr
    increment /= denom
    return increment
