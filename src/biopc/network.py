"""Predictive-coding networks: clamped-state relaxation and local updates.

A network is a stack of levels 0..L: level 0 holds the input and level L the
target during training. Forward weight W_l (shape dims[l+1] x dims[l]) maps
level l activities to level l+1 predictions. Errors travel back down either
through the forward weights' transposes or through a separate feedback
matrix B_l (shape dims[l] x dims[l+1]) that is fixed random or trained with
the Kolen-Pollack rule.

Inference alternates error computation and activity updates on the hidden
levels (0 and L stay clamped); learning adds the batch-averaged local outer
products to the weights. With transpose feedback both updates are exact
negative gradients of the configured objective, which is what `gradcheck`
verifies.

Each feedback scheme class owns its config `name` and checkpoint `tag`,
whether it `has_matrices` of its own, and the `matrix` that sends level
l+1 errors down to level l; its dataclass fields are its parameters, named
as in the run config and the checkpoint. `FEEDBACK_SCHEMES` lists the
classes. The encoding (see `encodings`) owns every per-encoding term, so
`PCNetwork` holds no branch on either. `LayeredModel` is what the network
and the backprop `MLP` share: the level structure, the fixed hidden shift
and the forward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import encodings as enc
from .linalg import ActivationKind, ShapeMismatchError, activate, as_matrix


@dataclass(frozen=True)
class Transpose:
    name = "transpose"
    tag = 0
    has_matrices = False

    def matrix(self, net, l: int) -> np.ndarray:
        return net.weights[l].T


class _OwnMatrices:
    has_matrices = True

    def matrix(self, net, l: int) -> np.ndarray:
        return net.feedback_weights[l]


@dataclass(frozen=True)
class RandomFixed(_OwnMatrices):
    name = "random"
    tag = 1


@dataclass(frozen=True)
class KolenPollack(_OwnMatrices):
    name = "kp"
    tag = 2

    # Decay must be weak enough that the gradient/decay equilibrium sits well
    # above the weight scale the task needs; 0.01 per update strangles
    # learning at these layer sizes while 0.003 both learns and aligns.
    gamma: float = 0.003

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"decay rate gamma must be in (0, 1), got {self.gamma}")


FeedbackScheme = Union[Transpose, RandomFixed, KolenPollack]
FEEDBACK_SCHEMES = (Transpose, RandomFixed, KolenPollack)


@dataclass
class NetworkState:
    """Per-minibatch inference state.

    Lists are indexed by level; index 0 of `p`, `fp`, `phat`, `e`, `e_star`
    is unused. `fp` is the raw activation f(p) and `phat` the effective
    prediction (f(p) plus the level's shift); keeping both lets derivative
    evaluations reuse the activation value. `e` holds whatever the update
    rules consume: the signed difference for the subtractive family
    (threshold errors are decoded back before use, with the encoded rates
    kept in `e_star`, which stays None for the other encodings) or the ratio
    for the division scheme.
    """

    a: list
    p: list
    fp: list
    phat: list
    e: list
    e_star: list

    @property
    def batch_size(self) -> int:
        return self.a[0].shape[1]


# Columns per block of a prediction sweep. A 4096-sample evaluation chunk
# would make every level's arrays 9.8 MB (300 x 4096 float64), fresh pages
# on each call; 512-column blocks keep them at 1.2 MB, which stay in cache
# and in the allocator's free lists from one block to the next.
PREDICT_BLOCK = 512


def _xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


class LayeredModel:
    """Levels 0..L joined by forward weights. Hidden level l computes
    f(W_{l-1} a_{l-1}) + b with a fixed scalar shift b; the output level is
    unshifted. With `positive_activities` each level is rectified."""

    positive_activities = False

    def __init__(self, dims, weights, *, bias: float = 0.0,
                 hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                 output_activation: ActivationKind = ActivationKind.SIGMOID):
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must hold at least two positive sizes, got {dims}")
        L = len(dims) - 1
        if len(weights) != L:
            raise ValueError(f"expected {L} weight matrices for dims {dims}, got {len(weights)}")
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
        """Index of the top (output) level L."""
        return len(self.dims) - 1

    def activation_at(self, level: int) -> ActivationKind:
        return self.output_activation if level == self.n_levels else self.hidden_activation

    def bias_at(self, level: int) -> float:
        """The shift keeps *hidden* rates away from the rectifier; the output
        level stays unshifted so clamped targets remain reachable."""
        return 0.0 if level == self.n_levels else self.bias

    def _check_level_shape(self, x, level: int, what: str) -> np.ndarray:
        x = as_matrix(x)
        if x.shape[0] != self.dims[level]:
            raise ShapeMismatchError(
                f"{what} has {x.shape[0]} rows, level {level} expects {self.dims[level]}"
            )
        return x

    def _sweep(self, x: np.ndarray):
        """Forward pass: per level the prediction p, the activation f(p),
        the effective prediction and the activity."""
        a = [x]
        p = [None]
        fp = [None]
        phat = [None]
        for l in range(1, self.n_levels + 1):
            pl = self.weights[l - 1] @ a[l - 1]
            fl = activate(self.activation_at(l), pl)
            ph = fl + self.bias_at(l)
            al = np.maximum(ph, 0.0) if self.positive_activities else ph.copy()
            p.append(pl)
            fp.append(fl)
            phat.append(ph)
            a.append(al)
        return a, p, fp, phat

    def _act_deriv(self, fp: list, level: int) -> np.ndarray:
        """Activation derivative at a level's pre-activation, from the
        stored activation value f(p)."""
        fl = fp[level]
        if self.activation_at(level) is ActivationKind.SIGMOID:
            return fl * (1.0 - fl)
        return 1.0 - fl * fl

    def predict(self, x) -> np.ndarray:
        """Output activities of the forward sweep, what `_sweep` computes
        without keeping the hidden levels: each level's array is updated in
        place and dropped once the next is computed.

        Wide batches run in column blocks that start at multiples of
        PREDICT_BLOCK; the last one takes the remainder, so no block is
        narrower than PREDICT_BLOCK unless the batch is. BLAS kernels handle
        columns in groups of a few, with a separate path for a product's
        last N mod (group width) columns; with these bounds those columns
        are the batch's last ones in both cases, so every output is the same
        bits as one product over the whole batch (the tests compare the
        two)."""
        x = self._check_level_shape(x, 0, "input batch")
        n = x.shape[1]
        k = max(1, n // PREDICT_BLOCK)
        out = np.empty((self.dims[-1], n))
        for i in range(k):
            lo, hi = i * PREDICT_BLOCK, n if i == k - 1 else (i + 1) * PREDICT_BLOCK
            a = x[:, lo:hi]
            for l in range(1, self.n_levels + 1):
                a = activate(self.activation_at(l), self.weights[l - 1] @ a)
                a += self.bias_at(l)
                if self.positive_activities:
                    np.maximum(a, 0.0, out=a)
            out[:, lo:hi] = a
        return out


class PCNetwork(LayeredModel):
    def __init__(self, dims, weights, feedback_weights=None, *, bias: float = 0.0,
                 hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                 output_activation: ActivationKind = ActivationKind.SIGMOID,
                 encoding: enc.ErrorEncoding = enc.Subtractive(),
                 feedback: FeedbackScheme = Transpose(),
                 positive_activities: bool = False):
        super().__init__(dims, weights, bias=bias, hidden_activation=hidden_activation,
                         output_activation=output_activation)
        L = self.n_levels
        if not feedback.has_matrices:
            if feedback_weights is not None:
                raise ValueError(f"{feedback.name} feedback carries no separate feedback matrices")
            self.feedback_weights = None
        else:
            if feedback_weights is None or len(feedback_weights) != L:
                raise ValueError(f"{feedback.name} feedback needs {L} feedback matrices")
            self.feedback_weights = [np.array(b, dtype=np.float64) for b in feedback_weights]
            for l, b in enumerate(self.feedback_weights):
                want = (self.dims[l], self.dims[l + 1])
                if b.shape != want:
                    raise ShapeMismatchError(f"B[{l}] has shape {b.shape}, expected {want}")
        if encoding.needs_positive and not positive_activities:
            raise ValueError(f"{encoding.name} encoding requires positive_activities=True")
        self.encoding = encoding
        self.feedback = feedback
        self.positive_activities = bool(positive_activities)

    def feedback_matrix(self, l: int) -> np.ndarray:
        """Matrix that carries level l+1 errors down to level l."""
        return self.feedback.matrix(self, l)

    # -- inference ----------------------------------------------------------

    def init_forward(self, x) -> NetworkState:
        """Start inference on a batch: activities are set to the effective
        predictions level by level, so all errors start at zero."""
        x = self._check_level_shape(x, 0, "input batch").copy()
        if x.shape[1] == 0:
            raise ShapeMismatchError("input batch is empty")
        a, p, fp, phat = self._sweep(x)
        L = self.n_levels
        return NetworkState(a=a, p=p, fp=fp, phat=phat, e=[None] * (L + 1), e_star=[None] * (L + 1))

    def clamp_output(self, state: NetworkState, y) -> NetworkState:
        y = self._check_level_shape(y, self.n_levels, "target batch")
        if y.shape[1] != state.batch_size:
            raise ShapeMismatchError(
                f"target batch has {y.shape[1]} columns, state carries {state.batch_size}"
            )
        state.a[self.n_levels] = y.copy()
        return state

    def compute_errors(self, state: NetworkState) -> NetworkState:
        # Shapes were checked when the batch entered (init_forward,
        # clamp_output); the encodings' domain checks still run every call.
        for l in range(1, self.n_levels + 1):
            try:
                state.e[l], state.e_star[l] = self.encoding.error(state.a[l], state.phat[l])
            except enc.EncodingDomainError as err:
                raise enc.EncodingDomainError(f"level {l}: {err}") from None
        return state

    def _refresh_predictions(self, state: NetworkState, from_level: int = 2) -> None:
        # a[0] is clamped, so p[1] = W_0 a_0 never changes during relaxation
        # and the default skips it; gradient checking perturbs W_0 and asks
        # for a full rebuild from level 1.
        for l in range(from_level, self.n_levels + 1):
            pl = self.weights[l - 1] @ state.a[l - 1]
            state.p[l] = pl
            state.fp[l] = activate(self.activation_at(l), pl)
            state.phat[l] = state.fp[l] + self.bias_at(l)

    def _rising(self, state: NetworkState, level: int) -> np.ndarray:
        """The encoding's rising term at `level`: what the level below
        receives through the feedback matrix, and what the weights into
        `level` learn from."""
        return self.encoding.rising(state.e[level], self._act_deriv(state.fp, level),
                                    state.phat[level])

    def activity_directions(self, state: NetworkState) -> list:
        """Proposed change of each hidden level's activities (levels 0 and L
        are clamped and get None): the fed-back rising term from above minus
        the encoding's top-down term. Requires current errors.

        With transpose feedback this is the negative gradient of the
        configured objective; separate feedback matrices replace the
        transpose in the bottom-up term.
        """
        dirs = [None] * (self.n_levels + 1)
        for l in range(1, self.n_levels):
            bottom_up = self.feedback_matrix(l) @ self._rising(state, l + 1)
            dirs[l] = bottom_up - self.encoding.top_down(state.e[l], state.a[l])
        return dirs

    def activity_step(self, state: NetworkState, beta: float) -> NetworkState:
        """Move hidden activities along their directions with step size beta,
        rectify them if the network is positivity-constrained, then refresh
        the predictions. Requires current errors."""
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"inference rate beta out of range [0, 1]: {beta}")
        dirs = self.activity_directions(state)
        for l in range(1, self.n_levels):
            state.a[l] = state.a[l] + beta * dirs[l]
            if self.positive_activities:
                np.maximum(state.a[l], 0.0, out=state.a[l])
        self._refresh_predictions(state)
        return state

    def relax(self, state: NetworkState, n_steps: int, beta: float) -> NetworkState:
        for _ in range(n_steps):
            self.compute_errors(state)
            self.activity_step(state, beta)
        return state

    # -- learning -----------------------------------------------------------

    def weight_update_direction(self, state: NetworkState) -> list:
        """Batch-averaged increment for each W_l; adding it (scaled by a
        learning rate or optimizer) decreases the configured objective.
        Requires current errors."""
        return [(self._rising(state, l + 1) @ state.a[l].T) / state.batch_size
                for l in range(self.n_levels)]

    def objective(self, state: NetworkState) -> float:
        """Monitored objective: the encoding's cost summed over levels (total
        squared error for the subtractive family, log-ratio cost for
        division). Requires current errors."""
        return float(sum(self.encoding.cost(state.e[l]) for l in range(1, self.n_levels + 1)))


def kp_step(w: np.ndarray, b: np.ndarray, adjustment: np.ndarray, gamma: float):
    """Kolen-Pollack update: both matrices receive the same adjustment (one
    of them transposed) plus matched decay, so they converge toward
    transposes of each other. `adjustment` is the increment actually applied
    to the forward weights (for example the optimizer output)."""
    w = as_matrix(w)
    b = as_matrix(b)
    adjustment = as_matrix(adjustment)
    if adjustment.shape != w.shape:
        raise ShapeMismatchError(f"adjustment shape {adjustment.shape} does not match W {w.shape}")
    if b.shape != (w.shape[1], w.shape[0]):
        raise ShapeMismatchError(f"B shape {b.shape} is not the transpose of W {w.shape}")
    return w + adjustment - gamma * w, b + adjustment.T - gamma * b


def init_network(dims, *, encoding: enc.ErrorEncoding = enc.Subtractive(),
                 feedback: FeedbackScheme = Transpose(),
                 hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                 output_activation: ActivationKind = ActivationKind.SIGMOID,
                 bias: float = 0.0, positive_activities: bool = False,
                 seed: int = 0) -> PCNetwork:
    """Build a network with uniform Xavier weights, deterministic in `seed`.

    Separate feedback matrices (random or Kolen-Pollack) are drawn
    independently from the same distribution, never as transposes: for the
    Kolen-Pollack scheme alignment has to be learned.
    """
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError(f"dims must hold at least two sizes, got {dims}")
    rng = np.random.default_rng(seed)
    L = len(dims) - 1
    weights = [_xavier_uniform(rng, dims[l + 1], dims[l]) for l in range(L)]
    fb = None
    if feedback.has_matrices:
        fb = [_xavier_uniform(rng, dims[l], dims[l + 1]) for l in range(L)]
    return PCNetwork(
        dims, weights, fb,
        bias=bias,
        hidden_activation=hidden_activation,
        output_activation=output_activation,
        encoding=encoding,
        feedback=feedback,
        positive_activities=positive_activities,
    )
