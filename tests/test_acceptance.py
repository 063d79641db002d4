"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Fast criteria (4, 5, 6, 8) run on synthetic data in well under a minute.
Dataset criteria (1, 2, 3, 7) need real IDX files and are skipped unless
--data-dir (or BIOPC_DATA_DIR) points at them; the Fashion-MNIST table (2)
additionally needs --run-slow. Run with `pytest tests/test_acceptance.py -v -s`
to watch progress and the per-criterion lines.
"""

import time

import numpy as np
import pytest

from biopc import dataio
from biopc import encodings as enc
from biopc.baseline import init_mlp
from biopc.checkpoint import load_checkpoint, save_checkpoint
from biopc.config import TrainConfig
from biopc.experiments import (
    POSITIVITY_ROWS,
    TABLE_ROWS,
    TABLE_SEEDS,
    last3_mean_test_error,
    make_config,
)
from biopc.linalg import ActivationKind
from biopc.network import KolenPollack, init_network
from biopc.optim import AdamState, adam_step
from biopc.training import run_gradcheck, train

SYN_TRAIN = dataio.synthetic_split(2048, seed=1)
SYN_TEST = dataio.synthetic_split(512, seed=2, name="test")


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def mnist_run(mnist_splits, tmp_path_factory):
    """Memoized single-run trainer keyed by the finalized config."""
    cache = {}
    out_dir = str(tmp_path_factory.mktemp("mnist_runs"))

    def run(overrides, seed, epochs=25, return_model=False):
        cfg = make_config("mnist", seed, overrides, epochs=epochs, out_dir=out_dir).finalize()
        if cfg not in cache:
            t0 = time.perf_counter()
            result = train(cfg, mnist_splits[0], mnist_splits[1])
            cache[cfg] = (last3_mean_test_error(result), result.model)
            print(f"  [mnist seed={seed} epochs={epochs} {overrides}] "
                  f"last3 {cache[cfg][0]:.4f} in {time.perf_counter() - t0:.0f}s")
        value, model = cache[cfg]
        return (value, model) if return_model else value

    return run


# -- criterion 1: MNIST table ---------------------------------------------------


@pytest.mark.dataset
def test_criterion_1_mnist_table(mnist_run):
    tolerance = 0.006
    results = {}
    for name, (overrides, expected_mnist, _) in TABLE_ROWS.items():
        per_seed = [mnist_run(overrides, seed) for seed in TABLE_SEEDS]
        results[name] = (sum(per_seed) / len(per_seed), expected_mnist)
    detail = "  ".join(f"{n}={got:.4f} (ref {ref:.3f})"
                       for n, (got, ref) in results.items())
    passed = all(got <= ref + tolerance for got, ref in results.values())
    _report(1, "MNIST reproduction", passed, detail)


# -- criterion 2: Fashion-MNIST table -------------------------------------------


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_2_fashion_table(fashion_dir, tmp_path):
    train_split = dataio.load_split(fashion_dir, "fashion", "train")
    test_split = dataio.load_split(fashion_dir, "fashion", "test")
    tolerance = 0.012
    results = {}
    for name, (overrides, _, expected_fashion) in TABLE_ROWS.items():
        per_seed = []
        for seed in TABLE_SEEDS:
            cfg = make_config("fashion", seed, overrides,
                              out_dir=str(tmp_path / f"{name}_seed{seed}"))
            result = train(cfg, train_split, test_split)
            per_seed.append(last3_mean_test_error(result))
            print(f"  [fashion {name} seed={seed}] last3 {per_seed[-1]:.4f}")
        results[name] = (sum(per_seed) / len(per_seed), expected_fashion)
    detail = "  ".join(f"{n}={got:.4f} (ref {ref:.3f})"
                       for n, (got, ref) in results.items())
    passed = all(got <= ref + tolerance for got, ref in results.values())
    _report(2, "Fashion-MNIST reproduction", passed, detail)


# -- criterion 3: positivity study ----------------------------------------------


@pytest.mark.dataset
def test_criterion_3_positive_activities(mnist_run):
    means = {}
    for name, overrides in POSITIVITY_ROWS.items():
        per_seed = [mnist_run(overrides, seed) for seed in TABLE_SEEDS]
        means[name] = sum(per_seed) / len(per_seed)
    sigmoid_gap = abs(means["sigmoid_pos"] - means["sigmoid"])
    tanh_drop = means["tanh_pos"] - means["tanh"]
    tanh_recovery = abs(means["tanh_pos_bias"] - means["tanh"])
    detail = (f"sigmoid {means['sigmoid']:.4f} vs +pos {means['sigmoid_pos']:.4f}; "
              f"tanh {means['tanh']:.4f} vs +pos {means['tanh_pos']:.4f} "
              f"vs +pos+bias {means['tanh_pos_bias']:.4f}")
    passed = sigmoid_gap <= 0.005 and tanh_drop >= 0.005 and tanh_recovery <= 0.005
    _report(3, "positivity constraint replication", passed, detail)


# -- criterion 4: gradient oracle ------------------------------------------------


def test_criterion_4_gradient_oracle():
    t0 = time.perf_counter()
    sub = run_gradcheck(enc.Subtractive())
    div = run_gradcheck(enc.Division())
    elapsed = time.perf_counter() - t0
    detail = (f"subtractive max {sub.max_gated_error():.2e} (<=1e-5), "
              f"division max {div.max_gated_error():.2e} (<=1e-4), {elapsed:.2f}s")
    passed = (sub.max_gated_error() <= 1e-5 and div.max_gated_error() <= 1e-4
              and elapsed < 5.0)
    _report(4, "gradient oracle", passed, detail)


# -- criterion 5: first-update equivalence ---------------------------------------


def test_criterion_5_first_update_equivalence():
    dims = [784, 300, 300, 10]
    net = init_network(dims, seed=11)
    mlp = init_mlp(dims, seed=11)
    x = SYN_TRAIN.images[:, :64]
    y = dataio.one_hot(SYN_TRAIN.labels[:64])

    state = net.init_forward(x)
    net.clamp_output(state, y)
    net.compute_errors(state)  # n_updates = 0: no relaxation
    pc_inc = adam_step(AdamState.for_shape(net.weights[-1].shape),
                       net.weight_update_direction(state)[-1])
    bp_inc = adam_step(AdamState.for_shape(mlp.weights[-1].shape),
                       mlp.descent(x, y, 0, 0.0)[1][-1])
    gap = float(np.max(np.abs(pc_inc - bp_inc)))
    _report(5, "first-update equivalence", gap <= 1e-10,
            f"max |pc - bp| output-layer increment = {gap:.2e}")


# -- criterion 6: threshold-encoding equivalence ---------------------------------


def _one_epoch_weights(encoding_name, train_split, out_dir, seed=5):
    cfg = TrainConfig(encoding=encoding_name, positive_activities=True,
                      epochs=1, seed=seed, out_dir=str(out_dir))
    result = train(cfg, train_split, SYN_TEST)
    return result.model.weights


def test_criterion_6_threshold_equivalence(tmp_path):
    sub = _one_epoch_weights("subtractive", SYN_TRAIN, tmp_path / "subtractive")
    thr = _one_epoch_weights("threshold", SYN_TRAIN, tmp_path / "threshold")
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(sub, thr))
    _report(6, "threshold-encoding equivalence", gap <= 1e-10,
            f"max weight gap after 1 epoch = {gap:.2e}")


@pytest.mark.dataset
def test_criterion_6_threshold_equivalence_mnist(mnist_splits):
    sub = _one_epoch_weights("subtractive", mnist_splits[0])
    thr = _one_epoch_weights("threshold", mnist_splits[0])
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(sub, thr))
    _report("6-mnist", "threshold-encoding equivalence (MNIST)", gap <= 1e-10,
            f"max weight gap after 1 epoch = {gap:.2e}")


# -- criterion 7: Kolen-Pollack alignment ----------------------------------------


@pytest.mark.dataset
def test_criterion_7_kp_alignment(mnist_run):
    # this criterion pins its own decay rate, stronger than the default
    _, net = mnist_run(dict(feedback="kp", gamma=0.01), seed=1, epochs=1,
                       return_model=True)
    assert isinstance(net.feedback, KolenPollack) and net.feedback.gamma == 0.01
    cosines = []
    for l in range(net.n_levels):
        b = net.feedback_weights[l].ravel()
        wt = net.weights[l].T.ravel()
        cosines.append(float(b @ wt / (np.linalg.norm(b) * np.linalg.norm(wt))))
    detail = "cosines " + ", ".join(f"{c:.4f}" for c in cosines)
    _report(7, "Kolen-Pollack alignment after 1 epoch", min(cosines) > 0.9, detail)


# -- criterion 8: invariant suites ------------------------------------------------


def test_criterion_8a_positivity_invariants():
    worst_activity = 0.0
    worst_estar = 0.0
    worst_div = np.inf
    for seed in range(10):
        for encoding, kwargs in (
            (enc.SubtractiveThreshold(e_min=-1.1, e_max=2.2),
             dict(hidden_activation=ActivationKind.TANH, bias=0.1)),
            (enc.Division(), dict(bias=0.1)),
        ):
            net = init_network([8, 6, 5, 4], encoding=encoding,
                               positive_activities=True, seed=seed, **kwargs)
            rng = np.random.default_rng(seed + 100)
            x = rng.uniform(0, 1, size=(8, 4))
            y = dataio.one_hot(rng.integers(0, 4, size=4), classes=4)
            state = net.init_forward(x)
            net.clamp_output(state, y)
            for _ in range(8):
                net.compute_errors(state)
                net.activity_step(state, 0.1)
                worst_activity = min(worst_activity,
                                     min(float(a.min()) for a in state.a))
                if isinstance(encoding, enc.SubtractiveThreshold):
                    worst_estar = min(worst_estar,
                                      min(float(e.min()) for e in state.e_star[1:]))
                else:
                    worst_div = min(worst_div,
                                    min(float(e.min()) for e in state.e[1:]))
    passed = worst_activity >= 0.0 and worst_estar >= 0.0 and worst_div > 0.0
    _report("8a", "positivity of activities and encoded errors", passed,
            f"min activity {worst_activity:.3g}, min e* {worst_estar:.3g}, "
            f"min e** {worst_div:.3g}")


def test_criterion_8b_clamp_immutability():
    net = init_network([8, 6, 5, 4], seed=3)
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 1, size=(8, 5))
    y = dataio.one_hot(rng.integers(0, 4, size=5), classes=4)
    state = net.init_forward(x)
    net.clamp_output(state, y)
    x_before = state.a[0].copy()
    y_before = state.a[3].copy()
    for _ in range(30):
        net.compute_errors(state)
        net.activity_step(state, 0.2)
    passed = (np.array_equal(state.a[0], x_before)
              and np.array_equal(state.a[3], y_before))
    _report("8b", "clamped levels bit-identical through relaxation", passed)


def test_criterion_8c_energy_descent():
    trials, ok = 60, 0
    for seed in range(trials):
        net = init_network([7, 6, 5, 4], seed=seed)
        rng = np.random.default_rng(seed + 2000)
        x = rng.uniform(0, 1, size=(7, 4))
        y = dataio.one_hot(rng.integers(0, 4, size=4), classes=4)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        energies = []
        for _ in range(20):
            net.compute_errors(state)
            energies.append(net.objective(state))
            net.activity_step(state, 0.05)
        net.compute_errors(state)
        energies.append(net.objective(state))
        if np.all(np.diff(energies) <= 1e-12):
            ok += 1
    _report("8c", "energy non-increase over relaxation", ok >= 0.95 * trials,
            f"{ok}/{trials} trials monotone at beta=0.05")


def test_criterion_8d_idx_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    pixels = rng.integers(0, 256, size=(23, 784), dtype=np.uint8)
    labels = rng.integers(0, 10, size=23)
    dataio.write_idx_images(tmp_path / "imgs", pixels)
    dataio.write_idx_labels(tmp_path / "labs", labels)
    images = dataio.load_idx_images(tmp_path / "imgs")
    passed = (np.array_equal(images, pixels.T.astype(np.float64) / 255.0)
              and np.array_equal(dataio.load_idx_labels(tmp_path / "labs"), labels))
    _report("8d", "IDX loader round-trip", passed)


def test_criterion_8e_checkpoint_round_trip(tmp_path):
    net = init_network([9, 7, 5], encoding=enc.Division(), positive_activities=True,
                       bias=0.1, feedback=KolenPollack(gamma=0.02), seed=21)
    adams = [AdamState.for_shape(w.shape) for w in net.weights]
    for s, w in zip(adams, net.weights):
        adam_step(s, np.full(w.shape, 0.5))
    save_checkpoint(tmp_path / "m.pcck", net, adams)
    loaded, opt = load_checkpoint(tmp_path / "m.pcck")
    save_checkpoint(tmp_path / "m2.pcck", loaded, opt)
    passed = (tmp_path / "m.pcck").read_bytes() == (tmp_path / "m2.pcck").read_bytes()
    _report("8e", "checkpoint round-trip bit-exact", passed)


def test_criterion_8f_determinism(tmp_path):
    rows = []
    for run_dir in ("a", "b"):
        cfg = TrainConfig(epochs=1, n_updates=3, seed=9,
                          out_dir=str(tmp_path / run_dir))
        train(cfg, SYN_TRAIN, SYN_TEST)
        text = (tmp_path / run_dir / "metrics.csv").read_text().splitlines()
        rows.append([",".join(line.split(",")[:4]) for line in text])
    ck = [(tmp_path / d / "model.pcck").read_bytes() for d in ("a", "b")]
    passed = rows[0] == rows[1] and ck[0] == ck[1]
    _report("8f", "identical-seed runs bit-identical (metrics sans wall time, "
            "checkpoint bytes)", passed)
