"""Training-loop behavior on synthetic data: determinism, schedules,
Kolen-Pollack coupling, gradcheck reports."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_gated_error

from biopc import encodings as enc
from biopc import training
from biopc.baseline import MLP
from biopc.checkpoint import load_checkpoint
from biopc.config import TrainConfig
from biopc.dataio import (BatchPlan, DatasetSplit, IdxError, load_idx_images, load_idx_labels,
                          load_split, one_hot, synthetic_split, write_idx_images,
                          write_idx_labels)
from biopc.experiments import TABLE_ROWS
from biopc.linalg import ActivationKind, ShapeMismatchError
from biopc.network import FEEDBACK_SCHEMES, KolenPollack, PCNetwork, RandomFixed, init_network
from biopc.optim import AdamState, adam_step
from biopc.training import (GRADCHECK_THRESHOLD, NonFiniteError, classification_error, evaluate,
                            output_objective, predict_split, run_gradcheck, train)

TRAIN = synthetic_split(512, seed=1)
TEST = synthetic_split(128, seed=2, name="test")


_CFG_BASE = dict(epochs=1, n_updates=3, seed=0)


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    # every run a test trains writes under that test's own tmp dir
    monkeypatch.setitem(_CFG_BASE, "out_dir", str(tmp_path / "run"))


def _cfg(**kwargs):
    return TrainConfig(**{**_CFG_BASE, **kwargs})


class TestTrainLoop:
    def test_learns_the_synthetic_task(self):
        result = train(_cfg(epochs=10, n_updates=10), TRAIN, TEST)
        final = result.metrics[-1]
        assert final.split == "test"
        assert final.error <= 0.05

    def test_metrics_deterministic_across_runs(self):
        runs = [train(_cfg(seed=3), TRAIN, TEST) for _ in range(2)]
        for m1, m2 in zip(*[r.metrics for r in runs]):
            assert (m1.epoch, m1.split, m1.error, m1.objective) == \
                   (m2.epoch, m2.split, m2.error, m2.objective)

    def test_different_seeds_differ(self):
        a = train(_cfg(seed=1), TRAIN, TEST)
        b = train(_cfg(seed=2), TRAIN, TEST)
        assert not np.array_equal(a.model.weights[0], b.model.weights[0])

    def test_objective_decreases_over_epochs(self):
        result = train(_cfg(epochs=3), TRAIN, TEST)
        train_objectives = [m.objective for m in result.metrics if m.split == "train"]
        assert train_objectives[-1] < train_objectives[0]

    def test_rejects_wrong_feature_count(self):
        small = DatasetSplit(TRAIN.images[:100], TRAIN.labels, "train")
        with pytest.raises(IdxError, match="features"):
            train(_cfg(), small, small)

    def test_rejects_wrong_test_feature_count(self, monkeypatch):
        # checked before the first batch, not at the first evaluation
        monkeypatch.setattr(training, "_train_batch", None)
        short = DatasetSplit(TEST.images[:783], TEST.labels, "test")
        with pytest.raises(IdxError, match="test images have 783 features"):
            train(_cfg(), TRAIN, short)

    def test_perfectly_predicted_split_scores_zero(self):
        from biopc.network import init_network
        from biopc.dataio import DatasetSplit
        net = init_network([784, 300, 300, 10], seed=6)
        memorized = DatasetSplit(images=TEST.images,
                                 labels=np.argmax(net.predict(TEST.images), axis=0),
                                 name="memorized")
        assert classification_error(net, memorized, predict_split(net, memorized)) == 0.0

    @pytest.mark.parametrize("overrides", [dict(), dict(model="bp")], ids=["pc", "bp"])
    def test_byte_split_trains_as_its_float_split(self, fake_data_dir, overrides):
        # batches gathered from the loaded pixel bytes, scaled per batch
        cfg = _cfg(data_dir=str(fake_data_dir), epochs=2, **overrides)
        mnist = fake_data_dir / "mnist"
        floats = [DatasetSplit(load_idx_images(mnist / f"{stem}-images-idx3-ubyte{gz}"),
                               load_idx_labels(mnist / f"{stem}-labels-idx1-ubyte{gz}"), name)
                  for stem, gz, name in (("train", "", "train"), ("t10k", ".gz", "test"))]
        from_bytes = train(cfg)
        from_floats = train(cfg, *floats)
        assert [(m.error, m.objective) for m in from_bytes.metrics] == \
               [(m.error, m.objective) for m in from_floats.metrics]
        for wa, wb in zip(from_bytes.model.weights, from_floats.model.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_checkpoint_reload_evaluates_bit_identically(self, tmp_path):
        cfg = _cfg(out_dir=str(tmp_path / "run"))
        result = train(cfg, TRAIN, TEST)
        in_memory = evaluate(result.model, TEST)
        reloaded, opt = load_checkpoint(result.checkpoint_path)
        assert opt is not None and len(opt) == 3
        assert evaluate(reloaded, TEST) == in_memory

    def test_division_training_runs_and_stays_positive(self):
        cfg = _cfg(encoding="division", positive_activities=True, bias=0.1)
        result = train(cfg, TRAIN, TEST)
        assert all(np.isfinite(m.objective) for m in result.metrics)
        assert all(w.dtype == np.float64 and np.all(np.isfinite(w))
                   for w in result.model.weights)

    def test_threshold_training_matches_subtractive(self):
        sub = train(_cfg(encoding="subtractive", positive_activities=True, seed=4),
                    TRAIN, TEST)
        thr = train(_cfg(encoding="threshold", positive_activities=True, seed=4),
                    TRAIN, TEST)
        for wa, wb in zip(sub.model.weights, thr.model.weights):
            np.testing.assert_allclose(wa, wb, atol=1e-10)


def _two_sweep_evaluate(model, split, chunk=4096):
    # Reference: evaluation as two independent chunked sweeps, one for the
    # error and one for the objective.
    wrong = 0
    for start in range(0, split.n_samples, chunk):
        x = split.images[:, start:start + chunk]
        wrong += int(np.sum(np.argmax(model.predict(x), axis=0)
                            != split.labels[start:start + chunk]))
    total = 0.0
    for start in range(0, split.n_samples, chunk):
        out = model.predict(split.images[:, start:start + chunk])
        y = one_hot(split.labels[start:start + chunk])
        total += model.encoding.output_cost(y, out) * y.shape[1]
    return wrong / split.n_samples, total / split.n_samples


class TestInPlaceTraining:
    @pytest.mark.parametrize("overrides", [
        dict(), dict(feedback="random"),
        dict(encoding="division", positive_activities=True, bias=0.1), dict(model="bp"),
        dict(feedback="kp"),
    ])
    def test_weights_keep_their_identity_across_batches(self, overrides, monkeypatch):
        build = training.build_model
        initial = None

        def trained(model):  # Kolen-Pollack also trains its feedback matrices
            kp = overrides.get("feedback") == "kp"
            return model.weights + (model.feedback_weights if kp else [])

        def record(cfg):
            nonlocal initial
            model = build(cfg)
            initial = [(w, w.copy()) for w in trained(model)]
            return model

        monkeypatch.setattr(training, "build_model", record)
        result = train(_cfg(epochs=2, **overrides), TRAIN, TEST)
        for w, (w0, before) in zip(trained(result.model), initial):
            assert w is w0
            assert not np.array_equal(w, before)

    def test_backprop_batch_runs_one_sweep(self, monkeypatch):
        mlp = init_network([784, 300, 300, 10], seed=4, model_class=MLP)
        x = TRAIN.images[:, :64]
        y = one_hot(TRAIN.labels[:64])
        expected = mlp.encoding.output_cost(y, mlp.predict(x))
        calls = {"init_forward": 0, "predict": 0}
        for name in calls:
            method = getattr(MLP, name)

            def counted(self, *args, _method=method, _name=name, **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(MLP, name, counted)
        adams = [AdamState.for_shape(w.shape) for w in mlp.weights]
        objective = training._train_batch(mlp, x, y, _cfg(model="bp").finalize(), adams)
        assert calls == {"init_forward": 1, "predict": 0}
        assert objective == expected


DESCENT_ROWS = {name: overrides for name, (overrides, _, _) in TABLE_ROWS.items()}
DESCENT_ROWS["pc_threshold"] = dict(encoding="threshold")


class TestDescent:
    @pytest.mark.parametrize("row", sorted(DESCENT_ROWS))
    def test_same_bits_as_the_step_by_step_sequence(self, row):
        cfg = _cfg(**DESCENT_ROWS[row]).finalize()
        model = training.build_model(cfg)
        x, y = TRAIN.images[:, :64], one_hot(TRAIN.labels[:64])
        if row == "backprop":
            state = model.clamp_output(model.init_forward(x), y)
            objective = model.loss(state)
            directions = [d.copy() for d in model.backward(state)]
        else:
            state = model.init_forward(x)
            model.clamp_output(state, y)
            model.relax(state, cfg.n_updates, cfg.beta)
            model.compute_errors(state)
            objective = model.objective(state)
            directions = [d.copy() for d in model.weight_update_direction(state)]
        got_objective, got = model.descent(x, y, cfg.n_updates, cfg.beta)
        assert got_objective == objective
        assert [d.shape for d in got] == [w.shape for w in model.weights]
        for d, want in zip(got, directions):
            assert d.tobytes() == want.tobytes()


class TestNonFinite:
    @pytest.mark.parametrize("overrides", [dict(), dict(model="bp")])
    def test_nan_pixel_stops_training_at_its_batch(self, overrides, tmp_path):
        sample = 300
        images = TRAIN.images.copy()
        images[10, sample] = np.nan
        split = DatasetSplit(images=images, labels=TRAIN.labels, name="nan")
        cfg = _cfg(out_dir=str(tmp_path / "out"), **overrides)
        batch = next(b for b, idx in enumerate(BatchPlan(cfg.batch_size, cfg.seed)
                                               .batches(1, split.n_samples), start=1)
                     if sample in idx)
        with pytest.raises(NonFiniteError, match=rf"^epoch 1, batch {batch}: .* nan$"):
            train(cfg, split, TEST)
        assert not (tmp_path / "out").exists()


class TestEvaluate:
    LARGE = synthetic_split(5000, seed=7, name="large")  # two chunks, the second partial
    ODD = synthetic_split(8193, seed=8, name="odd")

    @pytest.mark.parametrize("kind", ["pc", "pc_div", "bp"])
    def test_matches_two_sweep_reference(self, kind):
        if kind == "bp":
            model = init_network([784, 300, 300, 10], seed=2, model_class=MLP)
        elif kind == "pc_div":
            model = init_network([784, 300, 300, 10], encoding=enc.Division(),
                                 positive_activities=True, bias=0.1, seed=2)
        else:
            model = init_network([784, 300, 300, 10], seed=2)
        assert evaluate(model, self.LARGE) == _two_sweep_evaluate(model, self.LARGE)

    def test_one_forward_sweep_per_chunk(self):
        net = init_network([784, 300, 300, 10], seed=2)
        calls = []
        predict = net.predict
        net.predict = lambda x: calls.append(x.shape[1]) or predict(x)
        evaluate(net, self.LARGE)
        assert calls == [4096, 5000 - 4096]

    @pytest.mark.parametrize("n", [4097, 4100, 8193])
    @pytest.mark.parametrize("kind", ["sigmoid", "tanh_div"])
    def test_predict_split_same_bits_as_one_predict(self, kind, n):
        # A last chunk of 1-511 samples would make a block narrower than
        # PREDICT_BLOCK, which moves bits.
        if kind == "tanh_div":
            model = init_network([784, 300, 300, 10], encoding=enc.Division(),
                                 hidden_activation=ActivationKind.TANH,
                                 positive_activities=True, bias=0.1, seed=3)
        else:
            model = init_network([784, 300, 300, 10], seed=3)
        floats = DatasetSplit(self.ODD.images[:, :n], self.ODD.labels[:n], "odd")
        # a split of pixel bytes is scaled one chunk at a time, each into its own array
        pixels = DatasetSplit(np.rint(floats.images * 255.0).astype(np.uint8), floats.labels,
                              "pixels")
        for split in (floats, pixels):
            whole = model.predict(split.columns(slice(None)))
            assert predict_split(model, split).tobytes() == whole.tobytes()

    def test_byte_split_is_never_scaled_whole(self, tmp_path):
        # 16384 samples: one 4096-column chunk at a time, the file's bytes
        # and the sweep's arrays fit in half the float64 matrix (51.4 MB)
        n = 16384
        rng = np.random.default_rng(11)
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        write_idx_images(mnist / "t10k-images-idx3-ubyte",
                         rng.integers(0, 256, size=(n, 784), dtype=np.uint8))
        write_idx_labels(mnist / "t10k-labels-idx1-ubyte", rng.integers(0, 10, size=n))
        model = init_network([784, 300, 300, 10], seed=2)
        tracemalloc.start()
        try:
            result = evaluate(model, load_split(tmp_path, "mnist", "test"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 784 * n * 8 / 2
        floats = DatasetSplit(load_idx_images(mnist / "t10k-images-idx3-ubyte"),
                              load_idx_labels(mnist / "t10k-labels-idx1-ubyte"), "floats")
        assert result == evaluate(model, floats)

    def test_outputs_must_cover_the_split(self):
        net = init_network([784, 300, 300, 10], seed=2)
        outputs = predict_split(net, TEST)
        assert classification_error(net, TEST, outputs) == evaluate(net, TEST)[0]
        with pytest.raises(ShapeMismatchError):
            output_objective(net, TEST, outputs[:, :-1])


class TestKolenPollackTraining:
    def test_feedback_converges_toward_transpose_and_learns(self):
        # alignment is driven by the per-step decay and the shared
        # adjustments, so give it a few hundred weight updates (small
        # batches); the same run must also actually train, which is what a
        # too-aggressive decay silently breaks
        cfg = _cfg(feedback="kp", batch_size=8, epochs=8, n_updates=2)
        result = train(cfg, TRAIN, TEST)
        net = result.model
        assert isinstance(net.feedback, KolenPollack)
        for l in range(net.n_levels):
            b = net.feedback_weights[l].ravel()
            wt = net.weights[l].T.ravel()
            cos = b @ wt / (np.linalg.norm(b) * np.linalg.norm(wt))
            assert cos > 0.9
        assert result.metrics[-1].error <= 0.5  # well below the 0.9 chance level

    def test_batch_steps_each_level_pair(self):
        # a square hidden layer, so that swapping W and B would not fail on shape
        cfg = _cfg(feedback="kp", gamma=0.05, n_updates=3, beta=0.1)
        net = init_network([6, 5, 5, 3], seed=5, feedback=KolenPollack(gamma=cfg.gamma))
        rng = np.random.default_rng(6)
        x, y = rng.uniform(0.0, 1.0, size=(6, 4)), one_hot(rng.integers(0, 3, size=4), classes=3)
        ws, bs = [w.copy() for w in net.weights], [b.copy() for b in net.feedback_weights]
        _, directions = net.descent(x, y, cfg.n_updates, cfg.beta)
        increments = [adam_step(AdamState.for_shape(d.shape, lr=cfg.lr), d).copy()
                      for d in directions]
        adams = [AdamState.for_shape(w.shape, lr=cfg.lr) for w in net.weights]
        training._train_batch(net, x, y, cfg, adams)
        for w, b, inc, w1, b1 in zip(ws, bs, increments, net.weights, net.feedback_weights):
            assert w1.tobytes() == ((w + inc) - cfg.gamma * w).tobytes()
            assert b1.tobytes() == ((b + inc.T) - cfg.gamma * b).tobytes()

    def test_random_feedback_stays_fixed(self):
        cfg = _cfg(feedback="random")
        result = train(cfg, TRAIN, TEST)
        net = result.model
        assert isinstance(net.feedback, RandomFixed)
        from biopc.network import init_network
        fresh = init_network([784, 300, 300, 10], feedback=RandomFixed(), seed=cfg.seed)
        for trained_b, fresh_b in zip(net.feedback_weights, fresh.feedback_weights):
            np.testing.assert_array_equal(trained_b, fresh_b)


class TestGradcheckReport:
    def test_subtractive_transpose_tight(self):
        report = run_gradcheck(enc.Subtractive())
        assert report.passed
        assert max_gated_error(report) <= 1e-5

    def test_division_transpose(self):
        report = run_gradcheck(enc.Division())
        assert report.passed
        assert max_gated_error(report) <= 1e-4

    def test_threshold_matches_subtractive_tightness(self):
        report = run_gradcheck(enc.SubtractiveThreshold())
        assert max_gated_error(report) <= 1e-5

    def test_tanh_variant(self):
        report = run_gradcheck(enc.Subtractive(),
                               hidden_activation=ActivationKind.TANH)
        assert max_gated_error(report) <= 1e-5

    def test_random_feedback_activity_checks_not_gated(self):
        report = run_gradcheck(enc.Subtractive(), RandomFixed())
        activity_checks = [c for c in report.checks if c.quantity == "activities"]
        assert activity_checks and all(not c.gated for c in activity_checks)
        assert any(c.max_rel_err > 1e-2 for c in activity_checks)  # genuinely off-gradient
        weight_checks = [c for c in report.checks if c.quantity == "weights"]
        assert all(c.gated and c.max_rel_err <= 1e-5 for c in weight_checks)
        assert report.passed

    @pytest.mark.parametrize("feedback", [RandomFixed(), KolenPollack()], ids=["random", "kp"])
    def test_rounding_limited_layer_passes(self, feedback):
        # At this seed weights[1]'s gradients are all below 1e-5, and the
        # central difference's rounding noise, eps |objective| / h, is above
        # 1e-4 of them: the reported error stays, the resolution passes it.
        report = run_gradcheck(enc.Division(), feedback,
                               hidden_activation=ActivationKind.TANH, seed=189)
        check = report.checks[-1]
        assert (check.quantity, check.layer) == ("weights", 1)
        assert GRADCHECK_THRESHOLD < check.max_rel_err <= check.resolution
        assert report.passed

    @pytest.mark.parametrize("case", [
        dict(),
        dict(encoding=enc.Division(), feedback=KolenPollack(),
             hidden_activation=ActivationKind.TANH, seed=189),
    ], ids=["default", "rounding-limited"])
    def test_rule_off_by_1e_3_fails(self, case, monkeypatch):
        rule = PCNetwork.weight_update_direction

        def off(self, state):
            return [d * (1.0 + 1e-3) for d in rule(self, state)]

        monkeypatch.setattr(PCNetwork, "weight_update_direction", off)
        report = run_gradcheck(**case)
        assert not report.passed
        assert all(c.max_rel_err > c.bound for c in report.checks if c.quantity == "weights")

    # A sweep of 4000 random draws of this space gave no FAIL and raised no
    # error, at about 2.5 ms a draw.
    @given(dims=st.lists(st.integers(1, 5), min_size=2, max_size=4),
           batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           act=st.sampled_from(list(ActivationKind)),
           encoding=st.sampled_from([cls() for cls in enc.ENCODINGS]),
           feedback=st.sampled_from([cls() for cls in FEEDBACK_SCHEMES]))
    @settings(max_examples=200, deadline=None)
    def test_any_small_network_passes(self, dims, batch, seed, act, encoding, feedback):
        assert run_gradcheck(encoding, feedback, hidden_activation=act, dims=dims,
                             batch=batch, seed=seed).passed

    @pytest.mark.parametrize("feedback", [RandomFixed(), KolenPollack()], ids=["random", "kp"])
    def test_rectified_zero_activity_is_differenced_one_sided(self, feedback):
        # At this seed a rectified hidden activity is exactly 0, which a
        # central difference would step to -h, outside division's domain.
        report = run_gradcheck(enc.Division(), feedback,
                               hidden_activation=ActivationKind.TANH, seed=33)
        assert report.passed
