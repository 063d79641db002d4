"""Per-matrix Adam optimizer.

`adam_step` takes the *descent direction* (the quantity to be added to the
parameter) and returns the increment to add; there is no internal sign flip.
Each weight matrix owns its own state. The increment is a buffer that the
state owns and overwrites on its next step: add it to the weights (or copy
it) before stepping the same state again.

Adam's moment decays and its denominator term are the module constants
`BETA1`, `BETA2` and `EPS`: every run uses the same ones. The learning
rate's default is written once, as the `AdamState.lr` field default, and
`TrainConfig.lr` defaults to it. Its bounds are written once too: an
`AdamState` refuses, with a ValueError, an `lr` that is not positive and
finite and a negative `step_count`. `TrainConfig` and the checkpoint loader
build one to check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import as_matrix

# Elements per block of an Adam step, rounded down to whole rows (at least
# one). Every pass of the step runs over one block before the next block
# starts, so the block's slices of g, m, v, the scratch and the increment
# (5 x 128 KiB) stay in L2 across the passes instead of streaming each
# whole matrix (1.9 MB at 300 x 784) through the cache once per pass.
ADAM_BLOCK = 16384

# The moment decay rates and the denominator's epsilon, Kingma and Ba's
# defaults, the same for every run.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    # Work buffers, made on the first step (so states built by the
    # checkpoint loader get them too): one block of scratch, and the
    # increment that `adam_step` returns. Read-only m and v are copied then.
    _scratch: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _increment: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # Each bound is written so that NaN fails it.
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be > 0 and finite, got {self.lr}")
        if not self.step_count >= 0:
            raise ValueError(f"step_count must be >= 0, got {self.step_count}")

    @classmethod
    def for_shape(cls, shape, lr: float = lr) -> "AdamState":
        """A fresh state for a matrix of `shape`; `lr` defaults to the field's."""
        return cls(m=np.zeros(shape), v=np.zeros(shape), lr=lr)

    def _buffers(self):
        rows, cols = self.m.shape
        if self._increment is None or self._increment.shape != self.m.shape:
            # A loaded state's m and v are read-only views of the checkpoint's
            # bytes (see `checkpoint`): its first step takes copies to update.
            if not (self.m.flags.writeable and self.v.flags.writeable):
                self.m, self.v = self.m.copy(), self.v.copy()
            self._increment = np.empty((rows, cols))
            self._scratch = np.empty((max(1, min(rows, ADAM_BLOCK // max(1, cols))), cols))
        return self._scratch, self._increment


def adam_step(state: AdamState, direction) -> np.ndarray:
    """One Adam step with bias correction; returns the increment to add,
    a state-owned buffer valid until the next step on `state`."""
    g = as_matrix(direction)
    if g.shape != state.m.shape:
        raise ValueError(f"adam_step: direction shape {g.shape} does not match state {state.m.shape}")
    state.step_count += 1
    t = state.step_count
    scratch, increment = state._buffers()
    c1, c2 = 1.0 - BETA1, 1.0 - BETA2
    bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    rows = scratch.shape[0]
    # Per block, the same products and sums in the same order as
    # m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g^2 and
    # increment = lr * (m / bc1) / (sqrt(v / bc2) + eps), so the results are
    # bit-identical to the whole-matrix form; m and v are updated in place.
    for lo in range(0, g.shape[0], rows):
        gb, m, v = g[lo:lo + rows], state.m[lo:lo + rows], state.v[lo:lo + rows]
        s, inc = scratch[:gb.shape[0]], increment[lo:lo + rows]
        m *= BETA1
        np.multiply(gb, c1, out=s)
        m += s
        np.multiply(gb, gb, out=s)
        s *= c2
        v *= BETA2
        v += s
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        s += EPS
        np.divide(m, bc1, out=inc)
        inc *= state.lr
        inc /= s
    return increment
