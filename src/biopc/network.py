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
and the backprop `MLP` share: one constructor, which takes and checks the
whole structure, and the forward sweep. Its `check_structure`, which
`TrainConfig` calls too, holds the structure rules: a model class's fixed
fields, and that an encoding which `needs_positive` rates (division) takes
`positive_activities`. Each model class owns its config
`name`, its checkpoint `tag`, the `fixed_structure` the constructor holds
it to (none for `PCNetwork`, backprop's for `MLP`, see `baseline`) and
`descent`, which gives a batch's objective and weight directions. Every
entry that takes an input batch checks it in `_check_input`, and a target
batch in `_check_target`.

A `NetworkState` owns every array its batch's relaxation and learning
steps write: `init_forward` makes them, shaped for the batch, and each step
writes into them in place, so a step allocates no batch-sized array.
Arrays read from a state are therefore valid until the step that rewrites
them: `activity_directions` returns the state's direction arrays, which the
next `activity_step` overwrites, and `weight_update_direction` returns
arrays that its next call on the same state overwrites. Copy what has to
outlive that.

`predict` makes its arrays (an activation array per level, one sigmoid
scratch and mask for all) once per call, sized for one column block, and
runs every block of the batch through them; only its output is batch-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

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

    Lists are indexed by level; index 0 of `fp`, `phat`, `e`, `e_star` is
    unused. `fp` is the activation f(W a) of the activities a below and
    `phat` the effective prediction (f(W a) plus the level's shift); the
    derivatives are taken from `fp`, so W a is not kept. Where a level's
    shift cannot change a bit (an unshifted sigmoid level), `phat` is the
    `fp` array itself. `e` holds whatever the update rules consume: the
    signed difference for the subtractive family (threshold errors are
    decoded back before use, with the encoded rates kept in `e_star`, which
    stays None for the other encodings) or the ratio for the division
    scheme; both stay None until the first `compute_errors`.

    `work` (index 0 unused) and `weight_dirs` (one per weight matrix) are
    the arrays the steps write into; see the module docstring.
    """

    a: list
    fp: list
    phat: list
    e: list
    e_star: list
    work: list
    weight_dirs: list

    @property
    def batch_size(self) -> int:
        return self.a[0].shape[1]


@dataclass
class LevelWork:
    """The arrays one level of a `NetworkState` reuses at every step."""

    terms: enc.LevelTerms  # the encoding's error and the terms it reuses
    rising: np.ndarray     # f' at the level, scaled into the rising term
    scratch: np.ndarray    # the sigmoid's work; the division top-down term
    mask: np.ndarray       # the sigmoid's x >= 0
    direction: Optional[np.ndarray]  # hidden levels: the activity direction


# Columns per block of a prediction sweep. A 4096-sample evaluation chunk
# would make every level's arrays 9.8 MB (300 x 4096 float64); 512-column
# blocks keep them at 1.2 MB, which stay in cache from one block to the
# next. Narrower blocks can move bits: with 128-column blocks, batches of
# 300 to 4500 columns gave outputs other than one whole-batch sweep
# (OpenBLAS 0.3.31 takes products that small on its small-matrix path).
PREDICT_BLOCK = 512


def _xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def _matrices(name: str, given, shapes) -> list:
    """float64 copies of the `given` matrices, the l-th of shape `shapes[l]`."""
    copies = [np.array(m, dtype=np.float64) for m in given]
    for l, (m, want) in enumerate(zip(copies, shapes)):
        if m.shape != want:
            raise ShapeMismatchError(f"{name}[{l}] has shape {m.shape}, expected {want}")
    return copies


class LayeredModel:
    """Levels 0..L joined by forward weights. Hidden level l computes
    f(W_{l-1} a_{l-1}) + b with a fixed scalar shift b; the output level is
    unshifted. With `positive_activities` each level is rectified."""

    # The structure fields this class fixes, with the one value each takes.
    fixed_structure = {}

    def __init__(self, dims, weights, feedback_weights=None, *, bias: float = 0.0,
                 hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                 encoding: enc.ErrorEncoding = enc.Subtractive(),
                 feedback: FeedbackScheme = Transpose(),
                 positive_activities: bool = False):
        self.check_structure(encoding=encoding, feedback=feedback,
                             positive_activities=positive_activities)
        dims = [int(d) for d in dims]
        if len(dims) < 2 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must hold at least two positive sizes, got {dims}")
        L = len(dims) - 1
        if len(weights) != L:
            raise ValueError(f"expected {L} weight matrices for dims {dims}, got {len(weights)}")
        self.dims = dims
        self.weights = _matrices("W", weights, [(dims[l + 1], dims[l]) for l in range(L)])
        if feedback.has_matrices:
            if feedback_weights is None or len(feedback_weights) != L:
                raise ValueError(f"{feedback.name} feedback needs {L} feedback matrices")
            self.feedback_weights = _matrices("B", feedback_weights,
                                              [w.shape[::-1] for w in self.weights])
        else:
            if feedback_weights is not None:
                raise ValueError(f"{feedback.name} feedback carries no separate feedback matrices")
            self.feedback_weights = None
        if not (bias >= 0 and math.isfinite(bias)):
            raise ValueError(f"bias must be >= 0 and finite, got {bias}")
        self.bias = float(bias)
        self.hidden_activation = hidden_activation
        self.encoding = encoding
        self.feedback = feedback
        self.positive_activities = bool(positive_activities)

    @classmethod
    def check_structure(cls, **structure) -> None:
        """Raises ValueError naming the first fixed field `structure` changes,
        or else an encoding that needs positive rates without them."""
        for field, want in cls.fixed_structure.items():
            if structure[field] != want:
                raise ValueError(f"{cls.name} models take {field}={want!r}, got {structure[field]!r}")
        encoding = structure["encoding"]
        if encoding.needs_positive and not structure["positive_activities"]:
            raise ValueError(f"{encoding.name} encoding requires positive_activities=True "
                             "(--positive-activities true): its error is only defined on "
                             "non-negative rates")

    @property
    def n_levels(self) -> int:
        """Index of the top (output) level L."""
        return len(self.dims) - 1

    def activation_at(self, level: int) -> ActivationKind:
        """The hidden activation below the output level, a sigmoid there."""
        return ActivationKind.SIGMOID if level == self.n_levels else self.hidden_activation

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

    def _check_input(self, x) -> np.ndarray:
        """An input batch as a float64 matrix of level 0's width, not empty.
        Integer batches are refused: pixel bytes would enter as values up to 255."""
        dtype = np.asarray(x).dtype
        if np.issubdtype(dtype, np.integer):
            raise TypeError(f"input batch is {dtype}, expected floats in [0, 1]; "
                            "a split of pixel bytes gives them through DatasetSplit.columns")
        x = self._check_level_shape(x, 0, "input batch")
        if x.shape[1] == 0:
            raise ShapeMismatchError("input batch is empty")
        return x

    def _check_target(self, y, batch: int) -> np.ndarray:
        """A target batch as a float64 matrix of the output level's width
        with one column per sample of a `batch`-sample input."""
        y = self._check_level_shape(y, self.n_levels, "target batch")
        if y.shape[1] != batch:
            raise ShapeMismatchError(f"target batch has {y.shape[1]} columns, input has {batch}")
        return y

    def _level(self, l: int, below: np.ndarray, fp=None, phat=None, scratch=None, mask=None):
        """Level l's activation f(W_{l-1} below) of the activities below it,
        and its effective prediction, the activation plus the level's shift.

        Given arrays are written in place (`scratch` and `mask` serve the
        sigmoid, see `activate`, and `phat` may be `fp`); missing ones are
        made. Where `_phat_is_fp` holds, the prediction is the `fp` array
        itself and `phat` is not written."""
        fp = activate(self.activation_at(l), np.matmul(self.weights[l - 1], below, out=fp),
                      out=fp, scratch=scratch, mask=mask)
        if self._phat_is_fp(l):
            return fp, fp
        return fp, np.add(fp, self.bias_at(l), out=phat)

    def _sweep(self, x: np.ndarray):
        """Forward pass: per level the activation, the effective prediction
        (the activation array itself where `_phat_is_fp` holds) and the
        activity (index 0 of the first two is None)."""
        a, fp, phat = [x], [None], [None]
        for l in range(1, self.n_levels + 1):
            fl, ph = self._level(l, a[l - 1], np.empty((self.dims[l], x.shape[1])))
            fp.append(fl)
            phat.append(ph)
            a.append(np.maximum(ph, 0.0) if self.positive_activities else ph.copy())
        return a, fp, phat

    def _act_deriv(self, fp: list, level: int, out=None) -> np.ndarray:
        """Activation derivative at a level's pre-activation, from the
        stored activation value; written into `out` when given."""
        fl = fp[level]
        if self.activation_at(level) is ActivationKind.SIGMOID:
            out = np.subtract(1.0, fl, out=out)
            out *= fl
            return out
        out = np.multiply(fl, fl, out=out)
        return np.subtract(1.0, out, out=out)

    def _phat_is_fp(self, level: int) -> bool:
        """Whether the level's effective prediction can be its activation
        array itself: x + 0.0 differs from x only at x = -0.0, which the
        sigmoid never returns, so an unshifted sigmoid level's shift moves
        no bit."""
        return self.bias_at(level) == 0.0 and self.activation_at(level) is ActivationKind.SIGMOID

    def predict(self, x) -> np.ndarray:
        """Output activities of the forward sweep, what `_sweep` computes
        without keeping the hidden levels.

        Wide batches run in column blocks that start at multiples of
        PREDICT_BLOCK; the last one takes the remainder, so no block is
        narrower than PREDICT_BLOCK unless the batch is. BLAS kernels handle
        columns in groups of a few, with a separate path for a product's
        last N mod (group width) columns; with these bounds those columns
        are the batch's last ones in both cases, so every output is the same
        bits as one product over the whole batch (the tests compare the
        two).

        Each level has an activation array, and one scratch and one mask
        array as tall as the tallest level serve every level's sigmoid; all
        are C-ordered (a Fortran-ordered hidden operand would move bits) and
        as wide as the widest block (the last). Every block runs `_level`
        into their leading rows and columns, shifting a level's activations
        in place."""
        x = self._check_input(x)
        n = x.shape[1]
        k = max(1, n // PREDICT_BLOCK)
        width = n - (k - 1) * PREDICT_BLOCK
        acts = [np.empty((d, width)) for d in self.dims[1:]]
        tallest = max(self.dims[1:])
        scratch, mask = np.empty((tallest, width)), np.empty((tallest, width), dtype=bool)
        out = np.empty((self.dims[-1], n))
        for i in range(k):
            lo, hi = i * PREDICT_BLOCK, n if i == k - 1 else (i + 1) * PREDICT_BLOCK
            a, cols = x[:, lo:hi], hi - lo
            for l, (d, act) in enumerate(zip(self.dims[1:], acts), start=1):
                fp = act[:, :cols]
                _, a = self._level(l, a, fp, fp, scratch[:d, :cols], mask[:d, :cols])
                if self.positive_activities:
                    np.maximum(a, 0.0, out=a)
            out[:, lo:hi] = a
        return out


class PCNetwork(LayeredModel):
    name = "pc"
    tag = 0

    # -- inference ----------------------------------------------------------

    def init_forward(self, x) -> NetworkState:
        """Start inference on a batch: activities are set to the effective
        predictions level by level (the forward sweep), so all errors start
        at zero. The state's work arrays are made here, shaped for the
        batch."""
        x = self._check_input(x).copy()
        a, fp, phat = self._sweep(x)
        L = self.n_levels
        work = [None] + [LevelWork(terms=self.encoding.terms(f.shape), rising=np.empty(f.shape),
                                   scratch=np.empty(f.shape), mask=np.empty(f.shape, dtype=bool),
                                   direction=np.empty(f.shape) if l < L else None)
                         for l, f in enumerate(fp[1:], start=1)]
        none = [None] * (L + 1)
        return NetworkState(a=a, fp=fp, phat=phat, e=none, e_star=none[:], work=work,
                            weight_dirs=[np.empty(w.shape) for w in self.weights])

    def clamp_output(self, state: NetworkState, y) -> NetworkState:
        state.a[self.n_levels] = self._check_target(y, state.batch_size).copy()
        return state

    def compute_errors(self, state: NetworkState) -> NetworkState:
        # Shapes were checked when the batch entered (init_forward,
        # clamp_output); the encodings' domain checks still run every call.
        for l in range(1, self.n_levels + 1):
            try:
                state.e[l], state.e_star[l] = self.encoding.error(state.a[l], state.phat[l],
                                                                  state.work[l].terms)
            except enc.EncodingDomainError as err:
                raise enc.EncodingDomainError(f"level {l}: {err}") from None
        return state

    def _refresh_predictions(self, state: NetworkState, from_level: int = 2) -> None:
        # a[0] is clamped, so level 1's prediction never changes during
        # relaxation and the default skips it; gradient checking perturbs W_0
        # and asks for a full rebuild from level 1.
        for l in range(from_level, self.n_levels + 1):
            work = state.work[l]
            self._level(l, state.a[l - 1], state.fp[l], state.phat[l], work.scratch, work.mask)

    def _rising(self, state: NetworkState, level: int) -> np.ndarray:
        """The encoding's rising term at `level`: what the level below
        receives through the feedback matrix, and what the weights into
        `level` learn from. Written into the level's `rising` array."""
        work = state.work[level]
        return self.encoding.rising(work.terms,
                                    self._act_deriv(state.fp, level, out=work.rising))

    def activity_directions(self, state: NetworkState) -> list:
        """Proposed change of each hidden level's activities (levels 0 and L
        are clamped and get None): the fed-back rising term from above minus
        the encoding's top-down term. Requires current errors. The arrays
        are the state's, overwritten by the next `activity_step`.

        With transpose feedback this is the negative gradient of the
        configured objective; separate feedback matrices replace the
        transpose in the bottom-up term.
        """
        dirs = [None] * (self.n_levels + 1)
        for l in range(1, self.n_levels):
            work = state.work[l]
            d = np.matmul(self.feedback.matrix(self, l), self._rising(state, l + 1),
                          out=work.direction)
            d -= self.encoding.top_down(work.terms, out=work.scratch)
            dirs[l] = d
        return dirs

    def activity_step(self, state: NetworkState, beta: float) -> NetworkState:
        """Move hidden activities, in place, along their directions with step
        size beta, rectify them if the network is positivity-constrained,
        then refresh the predictions. Requires current errors."""
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"inference rate beta out of range [0, 1]: {beta}")
        dirs = self.activity_directions(state)
        for l in range(1, self.n_levels):
            dirs[l] *= beta
            state.a[l] += dirs[l]
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
        Requires current errors. The arrays are the state's, overwritten by
        the next call on it."""
        dirs = state.weight_dirs
        for l, d in enumerate(dirs):
            np.matmul(self._rising(state, l + 1), state.a[l].T, out=d)
            d /= state.batch_size
        return dirs

    def objective(self, state: NetworkState) -> float:
        """Monitored objective: the encoding's cost summed over levels (total
        squared error for the subtractive family, log-ratio cost for
        division). Requires current errors."""
        return float(sum(self.encoding.cost(state.e[l]) for l in range(1, self.n_levels + 1)))

    def descent(self, x, y, n_updates: int, beta: float):
        """(objective, weight directions) after `n_updates` relaxation steps
        of size `beta` with the output clamped to `y`; see `weight_update_direction`."""
        state = self.init_forward(x)
        self.clamp_output(state, y)
        self.relax(state, n_updates, beta)
        self.compute_errors(state)
        return self.objective(state), self.weight_update_direction(state)


def kp_step(w: np.ndarray, b: np.ndarray, adjustment: np.ndarray, gamma: float):
    """Kolen-Pollack update: both matrices receive the same adjustment (one
    of them transposed) plus matched decay, so they converge toward
    transposes of each other. `adjustment` is the increment actually applied
    to the forward weights (for example the optimizer output). Both
    matrices are updated in place, in their own dtypes, and returned."""
    w, b, adjustment = np.asarray(w), np.asarray(b), np.asarray(adjustment)
    if w.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-D W, got array with ndim={w.ndim}")
    if adjustment.shape != w.shape:
        raise ShapeMismatchError(f"adjustment shape {adjustment.shape} does not match W {w.shape}")
    if b.shape != (w.shape[1], w.shape[0]):
        raise ShapeMismatchError(f"B shape {b.shape} is not the transpose of W {w.shape}")
    # (m + adj) - gamma * m with the decay from the old m: no bit moves. One
    # buffer holds each decay in turn; two live temporaries ran 2.5x slower.
    decay = np.empty(w.size)
    for m, adj in ((w, adjustment), (b, adjustment.T)):
        d = np.multiply(m, gamma, out=decay.reshape(m.shape))
        m += adj
        m -= d
    return w, b


def init_network(dims, *, encoding: enc.ErrorEncoding = enc.Subtractive(),
                 feedback: FeedbackScheme = Transpose(),
                 hidden_activation: ActivationKind = ActivationKind.SIGMOID,
                 bias: float = 0.0, positive_activities: bool = False,
                 seed: int = 0, model_class: type = PCNetwork) -> LayeredModel:
    """Build a `model_class` model with uniform Xavier weights, deterministic
    in `seed`: either class gets the same forward weights from one seed.

    Separate feedback matrices (random or Kolen-Pollack) are drawn
    independently from the same distribution, never as transposes: for the
    Kolen-Pollack scheme alignment has to be learned.
    """
    dims = [int(d) for d in dims]
    rng = np.random.default_rng(seed)
    L = len(dims) - 1
    weights = [_xavier_uniform(rng, dims[l + 1], dims[l]) for l in range(L)]
    fb = None
    if feedback.has_matrices:
        fb = [_xavier_uniform(rng, dims[l], dims[l + 1]) for l in range(L)]
    return model_class(dims, weights, fb, bias=bias, hidden_activation=hidden_activation,
                       encoding=encoding, feedback=feedback,
                       positive_activities=positive_activities)
