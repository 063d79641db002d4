"""Training loop, evaluation and finite-difference gradient checking.

One weight update per minibatch, one batch function for both models: the
model's `descent` returns the batch objective and one direction per weight
matrix (a network's batch-averaged local directions after its hidden
activities relax with the output clamped to the target; backprop's negative
gradients, from one forward sweep), and each direction goes through its
matrix's Adam optimizer (plus the Kolen-Pollack decay pair when that
feedback scheme is selected); the weights, and the Kolen-Pollack feedback
matrices, are updated in place. Evaluation uses the pure forward sweep; a
split's classification error and output objective are both read from the
same outputs.

Every run writes its metrics CSV and final checkpoint into `cfg.out_dir`.
The CSV has the schema `epoch,split,error,objective,seconds` with one
train row and one test row per epoch. The train row's objective is the
epoch mean of the relaxed energy/cost at weight-update time; the test row's
objective is the model encoding's `output_cost` (subtractive for backprop)
of the forward-sweep outputs. `seconds` is wall time and is the only column that
is not reproducible bit-for-bit across same-seed runs.

Training stops with `NonFiniteError` at the first batch whose objective is
NaN or infinite.

`run_gradcheck` compares the activity and weight directions with central
differences of the objective (one-sided at a rectifier's boundary), one
loop for both kinds of matrix, at the fixed `GRADCHECK_*` settings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import dataio
from . import encodings as enc
from .checkpoint import save_checkpoint
from .config import NETWORK_DIMS, TrainConfig
from .linalg import ActivationKind, ShapeMismatchError, as_matrix
from .network import PREDICT_BLOCK, KolenPollack, PCNetwork, Transpose, init_network, kp_step
from .optim import AdamState, adam_step

METRICS_HEADER = "epoch,split,error,objective,seconds"


class NonFiniteError(ArithmeticError):
    """A training batch's objective is NaN or infinite."""


@dataclass
class EpochMetrics:
    epoch: int
    split: str
    error: float
    objective: float
    seconds: float

    def csv_row(self) -> str:
        return f"{self.epoch},{self.split},{self.error!r},{self.objective!r},{self.seconds!r}"


@dataclass
class TrainResult:
    metrics: list
    metrics_path: Path
    checkpoint_path: Path
    model: object


def build_model(cfg: TrainConfig):
    return init_network(NETWORK_DIMS, seed=cfg.seed, model_class=cfg.model_class(),
                        **cfg.structure())


# Samples per `predict` call of an evaluation (perfbench times 4096-column calls)
# and per partial sum of `output_objective`, which the test objective's bits
# depend on. A split of pixel bytes is scaled to float64 one chunk at a time
# (784 x 4096 is 25.7 MB), never whole.
EVAL_CHUNK = 4096


def predict_split(model, split: dataio.DatasetSplit) -> np.ndarray:
    """Forward-sweep outputs of a split, one column per sample, run per
    EVAL_CHUNK; a last chunk of at most PREDICT_BLOCK samples joins the one
    before it, so the column blocks, and the bits, are one `predict`'s.
    Each chunk's columns are scaled into their own array, which is freed
    once its `predict` returns."""
    starts = range(0, max(split.n_samples - PREDICT_BLOCK, 1), EVAL_CHUNK)
    return np.concatenate([model.predict(split.columns(slice(lo, hi)))
                           for lo, hi in zip(starts, [*starts[1:], split.n_samples])], axis=1)


def _split_outputs(split: dataio.DatasetSplit, outputs) -> np.ndarray:
    outputs = as_matrix(outputs)
    if outputs.shape[1] != split.n_samples:
        raise ShapeMismatchError(
            f"outputs have {outputs.shape[1]} columns, the split has {split.n_samples} samples"
        )
    if outputs.shape[0] != dataio.N_CLASSES:
        raise ShapeMismatchError(
            f"outputs have {outputs.shape[0]} rows, the labels have {dataio.N_CLASSES} classes"
        )
    return outputs


def classification_error(model, split: dataio.DatasetSplit, outputs) -> float:
    """Fraction of samples whose argmax output misses the label.

    `outputs` are the model's forward-sweep outputs for the split (see
    `predict_split`)."""
    outputs = _split_outputs(split, outputs)
    wrong = int(np.count_nonzero(np.argmax(outputs, axis=0) != split.labels))
    return wrong / split.n_samples


def output_objective(model, split: dataio.DatasetSplit, outputs) -> float:
    """Output-level mismatch between forward-sweep predictions and targets,
    in the model's objective family, mean per sample.

    `outputs` are as for `classification_error`. The per-sample cost is
    summed one EVAL_CHUNK of samples at a time."""
    outputs = _split_outputs(split, outputs)
    total = 0.0
    for start in range(0, split.n_samples, EVAL_CHUNK):
        y = dataio.one_hot(split.labels[start:start + EVAL_CHUNK])
        total += model.encoding.output_cost(y, outputs[:, start:start + EVAL_CHUNK]) * y.shape[1]
    return total / split.n_samples


def evaluate(model, split: dataio.DatasetSplit):
    """Returns (classification error, output objective) for a split, both
    from one forward sweep."""
    outputs = predict_split(model, split)
    return (classification_error(model, split, outputs),
            output_objective(model, split, outputs))


def _train_batch(model, x, y, cfg: TrainConfig, adams) -> float:
    objective, directions = model.descent(x, y, cfg.n_updates, cfg.beta)
    # Adam and the Kolen-Pollack step are called through this module's
    # names, which the benchmark (perfbench/run.py) wraps to time them.
    kp = isinstance(model.feedback, KolenPollack)
    for l, direction in enumerate(directions):
        increment = adam_step(adams[l], direction)
        if kp:
            kp_step(model.weights[l], model.feedback_weights[l], increment, model.feedback.gamma)
        else:
            model.weights[l] += increment
    return objective


def train(cfg: TrainConfig, train_split: Optional[dataio.DatasetSplit] = None,
          test_split: Optional[dataio.DatasetSplit] = None,
          log=None) -> TrainResult:
    """Run the full training schedule; deterministic for a fixed config.

    Dataset splits may be passed in directly (synthetic data, tests); when
    omitted they are loaded from cfg.data_dir. The metrics CSV and final
    checkpoint land in cfg.out_dir, made before the first batch and removed
    again (with any parents it needed) if training stops early.
    """
    cfg = cfg.finalize()
    if train_split is None:
        train_split = dataio.load_split(cfg.data_dir, cfg.dataset, "train")
    if test_split is None:
        test_split = dataio.load_split(cfg.data_dir, cfg.dataset, "test")
    for role, split in (("train", train_split), ("test", test_split)):
        if split.images.shape[0] != NETWORK_DIMS[0]:
            raise dataio.IdxError(f"{role} images have {split.images.shape[0]} features, "
                                  f"the network expects {NETWORK_DIMS[0]}")

    model = build_model(cfg)
    adams = [AdamState.for_shape(w.shape, lr=cfg.lr) for w in model.weights]
    out_dir = Path(cfg.out_dir)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = _fit(cfg, model, adams, train_split, test_split, log)
    except BaseException:
        for d in made:
            d.rmdir()
        raise

    metrics_path = out_dir / "metrics.csv"
    write_metrics(metrics_path, metrics)
    checkpoint_path = out_dir / "model.pcck"
    save_checkpoint(checkpoint_path, model, adams)
    return TrainResult(metrics=metrics, metrics_path=metrics_path,
                       checkpoint_path=checkpoint_path, model=model)


def _fit(cfg: TrainConfig, model, adams, train_split: dataio.DatasetSplit,
         test_split: dataio.DatasetSplit, log) -> list:
    """The epochs of a run: trains `model` in place and returns the metrics."""
    plan = dataio.BatchPlan(cfg.batch_size, cfg.seed)
    metrics = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        objective_sum = 0.0
        for batch, idx in enumerate(plan.batches(epoch, train_split.n_samples), start=1):
            x = train_split.columns(idx)
            y = dataio.one_hot(train_split.labels[idx])
            try:
                batch_objective = _train_batch(model, x, y, cfg, adams)
            except enc.EncodingDomainError as err:
                raise enc.EncodingDomainError(f"epoch {epoch}, batch {batch}, {err}") from None
            if not math.isfinite(batch_objective):
                raise NonFiniteError(
                    f"epoch {epoch}, batch {batch}: the batch objective is {batch_objective!r}")
            objective_sum += batch_objective * idx.shape[0]
        train_seconds = time.perf_counter() - t0

        train_error = classification_error(model, train_split, predict_split(model, train_split))
        metrics.append(EpochMetrics(epoch, "train", train_error,
                                    objective_sum / train_split.n_samples, train_seconds))
        t1 = time.perf_counter()
        test_error, test_objective = evaluate(model, test_split)
        metrics.append(EpochMetrics(epoch, "test", test_error, test_objective,
                                    time.perf_counter() - t1))
        if log is not None:
            log(f"epoch {epoch:3d}  train_err {train_error:.4f}  "
                f"test_err {test_error:.4f}  objective {metrics[-2].objective:.5f}")
    return metrics


def write_metrics(path, metrics) -> None:
    lines = [METRICS_HEADER] + [m.csv_row() for m in metrics]
    Path(path).write_text("\n".join(lines) + "\n")


# -- gradient checking --------------------------------------------------------

# The layer sizes and batch that `run_gradcheck` checks by default, and its
# fixed relaxation (steps, size), central-difference step and pass threshold.
GRADCHECK_DIMS = (5, 4, 3)
GRADCHECK_BATCH = 2
GRADCHECK_RELAX = 3
GRADCHECK_BETA = 0.05
GRADCHECK_H = 1e-6
GRADCHECK_THRESHOLD = 1e-4


@dataclass
class LayerCheck:
    quantity: str  # "weights" or "activities"
    layer: int
    max_rel_err: float
    gated: bool  # False for the approximate-feedback activity path
    # The difference's rounding noise, relative as `max_rel_err` is: a
    # smaller deviation is not resolved, so it passes too.
    resolution: float

    @property
    def bound(self) -> float:
        return max(GRADCHECK_THRESHOLD, self.resolution)

    def describe(self) -> str:
        note = "" if self.gated else "  [approximate feedback (expected)]"
        return f"{self.quantity}[{self.layer}]  max rel err {self.max_rel_err:.3e}{note}"


@dataclass
class GradcheckReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.max_rel_err <= c.bound for c in self.checks if c.gated)


# Finite-difference stencils as (offset in steps h, weight) pairs, the
# weighted sum taken over 2h: the central difference, and the one-sided
# second-order (-3 f(a) + 4 f(a+h) - f(a+2h)) / (2h) for a rectified
# activity below h, which a step down would make negative.
_CENTRAL = ((1.0, 1.0), (-1.0, -1.0))
_ONE_SIDED = ((0.0, -3.0), (1.0, 4.0), (2.0, -1.0))


def _finite_differences(net: PCNetwork, state, m: np.ndarray, scale: int, h: float,
                        rectified: bool) -> np.ndarray:
    """-scale times the finite-difference derivative of the objective with
    respect to each entry of `m`, an activity or weight matrix of `state` or
    `net`; each perturbation rebuilds all predictions. Entries below h of a
    `rectified` matrix take the one-sided stencil, all others the central."""
    numeric = np.empty_like(m)
    for ij in np.ndindex(*m.shape):
        orig = m[ij]
        total = 0.0
        for offset, weight in _ONE_SIDED if rectified and orig < h else _CENTRAL:
            m[ij] = orig + offset * h
            net._refresh_predictions(state, from_level=1)
            net.compute_errors(state)
            total += weight * net.objective(state)
        m[ij] = orig
        numeric[ij] = -scale * total / (2.0 * h)
    net._refresh_predictions(state, from_level=1)
    net.compute_errors(state)
    return numeric


def _layer_check(quantity: str, layer: int, analytic: np.ndarray, numeric: np.ndarray,
                 noise: float, gated: bool) -> LayerCheck:
    """Deviation and rounding `noise`, relative to the largest gradient entry."""
    scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-12)
    return LayerCheck(quantity, layer, float(np.max(np.abs(analytic - numeric)) / scale),
                      gated, resolution=noise / scale)


def run_gradcheck(encoding: enc.ErrorEncoding = enc.Subtractive(),
                  feedback=Transpose(), *, hidden_activation=ActivationKind.SIGMOID,
                  dims=GRADCHECK_DIMS, batch: int = GRADCHECK_BATCH,
                  seed: int = 0) -> GradcheckReport:
    """Compare analytic update directions against finite differences (see
    `_finite_differences`) of the configured objective on a small network.

    Activity directions are per-sample, so they are checked against the
    batch-size-scaled derivative of the batch-mean objective. With separate
    feedback matrices the bottom-up activity term is not the gradient by
    construction; those checks are reported but never gate the result.
    Errors are max absolute deviation over a layer, relative to the largest
    gradient magnitude in that layer.
    """
    positive = encoding.needs_positive
    # A positive-rate encoding needs non-negative predictions: tanh ones
    # reach -1, so they take the shift 1.0, as the tanh_pos_bias row does.
    bias = (1.0 if hidden_activation is ActivationKind.TANH else 0.1) if positive else 0.0
    net = init_network(dims, encoding=encoding, feedback=feedback,
                       hidden_activation=hidden_activation, bias=bias,
                       positive_activities=positive, seed=seed)
    rng = np.random.default_rng([seed, 17])
    x = rng.uniform(0.0, 1.0, size=(dims[0], batch))
    y = dataio.one_hot(rng.integers(0, dims[-1], size=batch), classes=dims[-1])

    state = net.clamp_output(net.init_forward(x), y)
    net.relax(state, GRADCHECK_RELAX, GRADCHECK_BETA)
    net.compute_errors(state)

    weight_dirs = net.weight_update_direction(state)
    activity_dirs = net.activity_directions(state)
    # Each objective is rounded at about eps |objective|, so a difference
    # over h cannot resolve a derivative below eps |objective| / h.
    noise = float(np.finfo(np.float64).eps) * abs(net.objective(state)) / GRADCHECK_H

    checks = []
    for l in range(1, net.n_levels):
        numeric = _finite_differences(net, state, state.a[l], batch, GRADCHECK_H, positive)
        checks.append(_layer_check("activities", l, activity_dirs[l], numeric, batch * noise,
                                   gated=not feedback.has_matrices))
    for l in range(net.n_levels):
        numeric = _finite_differences(net, state, net.weights[l], 1, GRADCHECK_H, False)
        checks.append(_layer_check("weights", l, weight_dirs[l], numeric, noise, gated=True))
    return GradcheckReport(checks=checks)
