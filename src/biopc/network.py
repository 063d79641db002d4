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

Each feedback scheme class owns its config `name`, whether it
`has_matrices` of its own, and the `matrix` that sends level l+1 errors
down to level l; its dataclass fields are its parameters, named as in the
run config and the checkpoint. `FEEDBACK_SCHEMES` lists the classes, which
are looked up by name (the checkpoint's byte codes are `checkpoint`'s own
tables of these names). The encoding (see `encodings`) owns every
per-encoding term, so `PCNetwork` holds no branch on either.
`LayeredModel` is what the network and the backprop `MLP` share: one
constructor, which takes and checks the whole structure, the forward sweep
into a batch's `NetworkState` (`init_forward`, `clamp_output`) and the
local weight rule (`weight_update_direction`, from each level's rising
term). Its `check_structure`, which `TrainConfig` calls too, holds the
structure rules: a model class's fixed fields, and that an encoding which
`needs_positive` rates (division) takes `positive_activities`. Each model
class owns its config `name`, the `fixed_structure` the constructor holds
it to (none for `PCNetwork`, backprop's for `MLP`, see `baseline`) and
`descent`, which gives a batch's objective and weight directions. Every
entry that takes an input batch checks it in `_check_input`, and a target
batch in `_check_target`.

A `NetworkState` is either model's batch state: the batch's values, each
level's activities, predictions and error terms (the paper's value and
error neurons), which relaxation updates in place. A step makes its own
work arrays (the sigmoid's per row block, see `_level`), and the arrays
that `activity_directions` and `weight_update_direction` return are new
ones that the caller owns. Each activation's formulas are `linalg`'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import encodings as enc
from .linalg import ActivationKind, ShapeMismatchError, activate, as_matrix, slope


@dataclass(frozen=True)
class Transpose:
    name = "transpose"
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


@dataclass(frozen=True)
class KolenPollack(_OwnMatrices):
    name = "kp"

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
    """Per-minibatch state of either model.

    Every list is indexed by level; index 0 of all but `a` is unused. `fp`
    is the activation f(W a) of the activities a below and `phat` the
    effective prediction (f(W a) plus the level's shift); the derivatives
    are taken from `fp`, so W a is not kept. Where a level's shift cannot
    change a bit (an unshifted sigmoid level), `phat` is the `fp` array
    itself. `terms[l]` is the encoding's `LevelTerms` for level l, the one
    home of its error `e` (the signed difference, decoded for threshold
    with the encoded rates in `e_star`, or the division ratio), written in
    place by a network's `compute_errors` or an MLP's `loss` and
    `backward`. Until then they hold NaN, so an objective or direction
    read before is NaN. `a[0]` is the input batch as the caller gave it:
    no step writes level 0.
    """

    a: list
    fp: list
    phat: list
    terms: list

    @property
    def batch_size(self) -> int:
        return self.a[0].shape[1]


# Columns per block of a prediction sweep. A 4096-sample evaluation chunk
# would make every level's arrays 9.8 MB (300 x 4096 float64); 512-column
# blocks keep them at 1.2 MB, which stay in cache from one block to the
# next. Narrower blocks can move bits: with 128-column blocks, batches of
# 300 to 4500 columns gave outputs other than one whole-batch sweep
# (OpenBLAS 0.3.31 takes products that small on its small-matrix path).
PREDICT_BLOCK = 512

# Entries per row block of a level's activation, so that the sigmoid's own
# temporaries stay in cache; a 300-row level is one block up to 109 columns.
ACT_BLOCK = 32768


def _xavier_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_out + fan_in))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


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

    def _level(self, l: int, below: np.ndarray, fp, phat) -> np.ndarray:
        """Level l's effective prediction: its activation f(W_{l-1} below) of
        the activities below it, written into `fp`, plus the level's shift,
        written into `phat` (which may be `fp`). The activation runs in place,
        per block of rows of at most ACT_BLOCK entries (or one row), and the
        sigmoid makes its temporaries per block. Where `_phat_is_fp` holds,
        the prediction is the `fp` array itself and `phat` is not written."""
        np.matmul(self.weights[l - 1], below, out=fp)
        rows = max(1, ACT_BLOCK // fp.shape[1])
        for r in range(0, fp.shape[0], rows):
            activate(self.activation_at(l), fp[r:r + rows], out=fp[r:r + rows])
        if self._phat_is_fp(l):
            return fp
        return np.add(fp, self.bias_at(l), out=phat)

    def _phat_is_fp(self, level: int) -> bool:
        """Whether the level's effective prediction can be its activation
        array itself: x + 0.0 differs from x only at x = -0.0, which the
        sigmoid never returns, so an unshifted sigmoid level's shift moves
        no bit."""
        return self.bias_at(level) == 0.0 and self.activation_at(level) is ActivationKind.SIGMOID

    def init_forward(self, x) -> NetworkState:
        """Start a batch: the forward sweep sets each level's activities to
        its effective prediction, so a network's errors start at zero except
        where positivity rectifies a negative prediction. The state's arrays
        are made here, shaped for the batch, and the sweep writes into them;
        level 0 is `x` itself, not a copy."""
        x = self._check_input(x)
        shapes = [(d, x.shape[1]) for d in self.dims[1:]]
        fp = [None] + [np.empty(s) for s in shapes]
        state = NetworkState(
            a=[x], fp=fp,
            phat=[None] + [f if self._phat_is_fp(l) else np.empty(f.shape)
                           for l, f in enumerate(fp[1:], start=1)],
            terms=[None] + [self.encoding.terms(s) for s in shapes])
        for l in range(1, self.n_levels + 1):
            phat = self._level(l, state.a[l - 1], fp[l], state.phat[l])
            state.a.append(np.maximum(phat, 0.0) if self.positive_activities else phat.copy())
        return state

    def clamp_output(self, state: NetworkState, y) -> NetworkState:
        state.a[self.n_levels] = self._check_target(y, state.batch_size).copy()
        return state

    def _rising(self, state: NetworkState, level: int) -> np.ndarray:
        """The encoding's rising term at `level`: what the level below
        receives through the feedback matrix, and what the weights into
        `level` learn from. f' is taken from the stored activation value
        into a new array, which the encoding scales."""
        f_up = slope(self.activation_at(level), state.fp[level])
        return self.encoding.rising(state.terms[level], f_up)

    def weight_update_direction(self, state: NetworkState) -> list:
        """Batch-averaged increment for each W_l, from the errors in
        `state.terms`; adding it (scaled by a learning rate or optimizer)
        decreases the configured objective. The arrays are new ones."""
        dirs = [self._rising(state, l + 1) @ state.a[l].T for l in range(self.n_levels)]
        for d in dirs:
            d /= state.batch_size
        return dirs

    def predict(self, x) -> np.ndarray:
        """Output activities of the forward sweep, what `init_forward` sweeps
        without keeping the hidden levels.

        Wide batches run in column blocks that start at multiples of
        PREDICT_BLOCK; the last one takes the remainder, so no block is
        narrower than PREDICT_BLOCK unless the batch is. BLAS kernels handle
        columns in groups of a few, with a separate path for a product's
        last N mod (group width) columns; with these bounds those columns
        are the batch's last ones in both cases, so every output is the same
        bits as one product over the whole batch (the tests compare the
        two).

        Each level has an activation array, C-ordered (a Fortran-ordered
        hidden operand would move bits) and as wide as the widest block (the
        last); these and the output are all that a call allocates besides
        the sigmoid's temporaries, which it makes per row block (see
        `_level`). Every block runs `_level` into the leading columns of
        each level's array, shifting a level's activations in place."""
        x = self._check_input(x)
        n = x.shape[1]
        k = max(1, n // PREDICT_BLOCK)
        width = n - (k - 1) * PREDICT_BLOCK
        acts = [np.empty((d, width)) for d in self.dims[1:]]
        out = np.empty((self.dims[-1], n))
        for i in range(k):
            lo, hi = i * PREDICT_BLOCK, n if i == k - 1 else (i + 1) * PREDICT_BLOCK
            a = x[:, lo:hi]
            for l, act in enumerate(acts, start=1):
                fp = act[:, :hi - lo]
                a = self._level(l, a, fp, fp)
                if self.positive_activities:
                    np.maximum(a, 0.0, out=a)
            out[:, lo:hi] = a
        return out


class PCNetwork(LayeredModel):
    name = "pc"

    def compute_errors(self, state: NetworkState) -> NetworkState:
        # Shapes were checked when the batch entered (init_forward,
        # clamp_output); the encodings' domain checks still run every call.
        for l in range(1, self.n_levels + 1):
            try:
                self.encoding.error(state.a[l], state.phat[l], state.terms[l])
            except enc.EncodingDomainError as err:
                raise enc.EncodingDomainError(f"level {l}: {err}") from None
        return state

    def _refresh_predictions(self, state: NetworkState, from_level: int = 2) -> None:
        # a[0] is clamped, so level 1's prediction never changes during
        # relaxation and the default skips it; gradient checking perturbs W_0
        # and asks for a full rebuild from level 1.
        for l in range(from_level, self.n_levels + 1):
            self._level(l, state.a[l - 1], state.fp[l], state.phat[l])

    def activity_directions(self, state: NetworkState) -> list:
        """Proposed change of each hidden level's activities (levels 0 and L
        are clamped and get None): the fed-back rising term from above minus
        the encoding's top-down term. Requires current errors. The arrays
        are new ones.

        With transpose feedback this is the negative gradient of the
        configured objective; separate feedback matrices replace the
        transpose in the bottom-up term.
        """
        dirs = [None] * (self.n_levels + 1)
        for l in range(1, self.n_levels):
            dirs[l] = self.feedback.matrix(self, l) @ self._rising(state, l + 1)
            dirs[l] -= self.encoding.top_down(state.terms[l])
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

    def objective(self, state: NetworkState) -> float:
        """Monitored objective: the encoding's cost summed over levels (total
        squared error for the subtractive family, log-ratio cost for
        division). Requires current errors."""
        return float(sum(self.encoding.cost(t) for t in state.terms[1:]))

    def descent(self, x, y, n_updates: int, beta: float):
        """(objective, weight directions) after `n_updates` relaxation steps
        of size `beta` with the output clamped to `y`; see `weight_update_direction`."""
        state = self.clamp_output(self.init_forward(x), y)
        self.relax(state, n_updates, beta)
        self.compute_errors(state)
        return self.objective(state), self.weight_update_direction(state)


def kp_step(w: np.ndarray, b: np.ndarray, adjustment: np.ndarray, gamma: float) -> None:
    """The Kolen-Pollack scheme's in-place update, internal to training:
    `w` takes the increment `adjustment` actually applied to it (the
    optimizer's output) and `b` its transpose, each plus the matched decay
    -gamma times its old value, so the two converge toward transposes of
    each other. Both are updated in place, in their own dtypes.

    It converts and checks nothing: the model's constructor fixes each B to
    the shape of Wᵀ, and `adam_step` checks the increment against a state
    shaped like W."""
    # (m + adj) - gamma * m with the decay from the old m: no bit moves. One
    # buffer holds each decay in turn; two live temporaries ran 2.5x slower.
    decay = np.empty(w.size)
    for m, adj in ((w, adjustment), (b, adjustment.T)):
        d = np.multiply(m, gamma, out=decay.reshape(m.shape))
        m += adj
        m -= d


def init_network(dims, *, seed: int = 0, model_class: type = PCNetwork,
                 **structure) -> LayeredModel:
    """Build a `model_class` model with uniform Xavier weights, deterministic
    in `seed`: either class gets the same forward weights from one seed.

    `structure` holds the constructor's keyword arguments (`encoding`,
    `feedback`, `hidden_activation`, `bias`, `positive_activities`) and is
    passed to it as given, so their defaults are the constructor's. The
    feedback scheme is read here only to decide whether to draw feedback
    matrices: separate ones (random or Kolen-Pollack) are drawn independently
    from the same distribution, never as transposes, so for the
    Kolen-Pollack scheme alignment has to be learned.
    """
    dims = [int(d) for d in dims]
    rng = np.random.default_rng(seed)
    L = len(dims) - 1
    weights = [_xavier_uniform(rng, dims[l + 1], dims[l]) for l in range(L)]
    fb = None
    if structure.get("feedback", Transpose()).has_matrices:
        fb = [_xavier_uniform(rng, dims[l], dims[l + 1]) for l in range(L)]
    return model_class(dims, weights, fb, **structure)
