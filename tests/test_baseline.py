"""Backprop baseline: forward equivalence with the coding network and
finite-difference verification of the exact gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import activate_deriv

from biopc import encodings as enc
from biopc.baseline import MLP
from biopc.linalg import ActivationKind, ShapeMismatchError
from biopc.network import KolenPollack, RandomFixed, Transpose, init_network

THRESHOLD = enc.SubtractiveThreshold(e_min=-5.0, e_max=10.0)


def _data(dims, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(dims[0], batch))
    y = np.zeros((dims[-1], batch))
    y[rng.integers(0, dims[-1], size=batch), np.arange(batch)] = 1.0
    return x, y


class TestForward:
    def test_matches_network_predict_bit_identical(self):
        dims = [7, 5, 4, 3]
        net = init_network(dims, seed=55, bias=0.05)
        mlp = init_network(dims, seed=55, bias=0.05, model_class=MLP)
        for wa, wb in zip(net.weights, mlp.weights):
            np.testing.assert_array_equal(wa, wb)
        x, _ = _data(dims, 6, 1)
        np.testing.assert_array_equal(net.predict(x), mlp.predict(x))

    def test_zero_weights_sigmoid(self):
        mlp = MLP([3, 2], [np.zeros((2, 3))])
        np.testing.assert_array_equal(mlp.predict(np.zeros((3, 4))),
                                      np.full((2, 4), 0.5))

    def test_deterministic_replay(self):
        mlp = init_network([6, 4, 3], seed=2, model_class=MLP)
        x, _ = _data([6, 4, 3], 5, 3)
        np.testing.assert_array_equal(mlp.predict(x), mlp.predict(x))

    def test_wide_batch_matches_forward(self):
        mlp = init_network([784, 300, 300, 10], seed=3, model_class=MLP)
        x = np.random.default_rng(0).uniform(0.0, 1.0, size=(784, 1204))
        np.testing.assert_array_equal(mlp.predict(x), mlp.init_forward(x).a[3])

    @pytest.mark.parametrize("structure", [
        dict(encoding=enc.Division(), positive_activities=True),
        dict(encoding=enc.SubtractiveThreshold()),
        dict(feedback=KolenPollack(), feedback_weights=[np.zeros((3, 2))]),
        dict(feedback=RandomFixed(), feedback_weights=[np.zeros((3, 2))]),
        dict(positive_activities=True),
        dict(feedback_weights=[np.zeros((3, 2))]),
    ], ids=["division", "threshold", "kp", "random", "positivity", "feedback-matrices"])
    def test_structure_is_backprops(self, structure):
        with pytest.raises(ValueError):
            MLP([3, 2], [np.zeros((2, 3))], **structure)

    def test_structure_defaults(self):
        mlp = MLP([3, 2], [np.zeros((2, 3))])
        assert (mlp.encoding, mlp.feedback) == (enc.Subtractive(), Transpose())
        assert mlp.feedback_weights is None and not mlp.positive_activities

    def test_input_shape_checked(self):
        mlp = init_network([6, 3], seed=0, model_class=MLP)
        with pytest.raises(ShapeMismatchError):
            mlp.predict(np.zeros((5, 1)))

    @pytest.mark.parametrize("call", [
        lambda mlp, x, y: mlp.descent(x, y, 0, 0.0),
        lambda mlp, x, y: mlp.predict(x),
    ], ids=["descent", "predict"])
    def test_empty_batch_refused(self, call):
        # a 0-column mean would be a NaN loss and NaN gradients
        mlp = init_network([6, 4, 3], seed=0, model_class=MLP)
        with pytest.raises(ShapeMismatchError, match="input batch is empty"):
            call(mlp, np.zeros((6, 0)), np.zeros((3, 0)))


def _gradients(mlp, x, y):
    """(loss, gradients) of a batch: `descent`'s objective and its negated
    directions, which negation gives back with `backward`'s bits."""
    loss, directions = mlp.descent(x, y, 0, 0.0)
    return loss, [-d for d in directions]


class TestBackward:
    @pytest.mark.parametrize("n_updates, beta", [(20, 0.1), (0, 0.0)])
    def test_descent_is_loss_and_negative_backward(self, n_updates, beta):
        dims = [7, 6, 5, 4]
        mlp = init_network(dims, seed=14, bias=0.1, hidden_activation=ActivationKind.TANH,
                           model_class=MLP)
        x, y = _data(dims, 9, 15)
        objective, directions = mlp.descent(x, y, n_updates, beta)
        state = mlp.clamp_output(mlp.init_forward(x), y)
        assert objective == mlp.loss(state)
        grads = mlp.backward(state)
        assert len(directions) == len(grads)
        for d, g in zip(directions, grads):
            assert d.tobytes() == g.tobytes()

    def test_zero_gradients_at_perfect_output(self):
        mlp = init_network([5, 4, 3], seed=4, model_class=MLP)
        x, _ = _data([5, 4, 3], 3, 5)
        y = mlp.predict(x)  # loss is exactly zero at its own output
        for g in _gradients(mlp, x, y)[1]:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_scalar_chain_rule(self):
        # x = 1, W = 0, y = 1, sigmoid: dL/dW = -(y - out) f'(0) x = -0.125
        mlp = MLP([1, 1], [np.zeros((1, 1))])
        _, g = _gradients(mlp, np.array([[1.0]]), np.array([[1.0]]))
        assert g[0][0, 0] == -0.125

    @pytest.mark.parametrize("hidden", [ActivationKind.SIGMOID, ActivationKind.TANH])
    @pytest.mark.parametrize("bias", [0.0, 0.1])
    def test_finite_difference_agreement(self, hidden, bias):
        dims = [5, 4, 3]
        mlp = init_network(dims, seed=8, bias=bias, hidden_activation=hidden, model_class=MLP)
        x, y = _data(dims, 2, 9)
        _, grads = _gradients(mlp, x, y)
        h = 1e-6
        for l, w in enumerate(mlp.weights):
            numeric = np.empty_like(w)
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    up = _gradients(mlp, x, y)[0]
                    w[i, j] = orig - h
                    down = _gradients(mlp, x, y)[0]
                    w[i, j] = orig
                    numeric[i, j] = (up - down) / (2 * h)
            scale = max(np.max(np.abs(grads[l])), np.max(np.abs(numeric)), 1e-12)
            assert np.max(np.abs(grads[l] - numeric)) / scale <= 1e-6

    # Widths 1-4 and 9-11 take other OpenBLAS kernel paths than 64 does.
    @pytest.mark.parametrize("batch", [1, 2, 3, 4, 9, 10, 11, 64])
    @pytest.mark.parametrize("hidden", [ActivationKind.SIGMOID, ActivationKind.TANH])
    def test_same_bits_as_preactivation_derivatives(self, hidden, batch):
        # backward runs the network's rule on errors it feeds back, and takes
        # f' from the stored activation value; that must give the bits of the
        # textbook formula with f' evaluated at the pre-activation
        dims = [7, 6, 5, 4]
        mlp = init_network(dims, seed=12, bias=0.1, hidden_activation=hidden, model_class=MLP)
        x, y = _data(dims, batch, 13)
        a = mlp.init_forward(x).a
        L = mlp.n_levels
        p = [None] + [mlp.weights[l - 1] @ a[l - 1] for l in range(1, L + 1)]
        want = [None] * L
        g = (a[L] - y) * activate_deriv(mlp.activation_at(L), p[L])
        for l in range(L, 0, -1):
            want[l - 1] = (g @ a[l - 1].T) / batch
            if l > 1:
                g = (mlp.weights[l - 1].T @ g) * activate_deriv(mlp.activation_at(l - 1), p[l - 1])
        for got, ref in zip(_gradients(mlp, x, y)[1], want):
            np.testing.assert_array_equal(got, ref)

    def test_finite_difference_many_trials(self):
        dims = [5, 4, 3]
        h = 1e-6
        for trial in range(100):
            mlp = init_network(dims, seed=trial, model_class=MLP)
            x, y = _data(dims, 2, trial + 500)
            _, grads = _gradients(mlp, x, y)
            # spot-check one random entry per layer each trial to stay fast
            rng = np.random.default_rng(trial)
            for l, w in enumerate(mlp.weights):
                i = rng.integers(0, w.shape[0])
                j = rng.integers(0, w.shape[1])
                orig = w[i, j]
                w[i, j] = orig + h
                up = _gradients(mlp, x, y)[0]
                w[i, j] = orig - h
                down = _gradients(mlp, x, y)[0]
                w[i, j] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(grads[l][i, j]), abs(numeric), 1e-8)
                assert abs(grads[l][i, j] - numeric) / denom <= 1e-5

    def test_loss_value(self):
        mlp = MLP([2, 2], [np.zeros((2, 2))])
        x = np.zeros((2, 3))
        y = np.ones((2, 3))  # out = 0.5, per-sample loss = 2 * 0.5 * 0.25
        assert _gradients(mlp, x, y)[0] == pytest.approx(0.25, abs=1e-15)


def _pc_backprop(net, x, y) -> list:
    """PC weight directions under the fixed-prediction schedule: L-1 full
    activity steps with the predictions held at their forward values make
    every level's error backprop's delta, and the presynaptic terms are put
    back to the forward values before the weight directions are taken."""
    state = net.init_forward(x)
    net.clamp_output(state, y)
    L = net.n_levels
    for _ in range(L - 1):
        net.compute_errors(state)
        dirs = net.activity_directions(state)
        for l in range(1, L):
            state.a[l] += dirs[l]
    net.compute_errors(state)
    for l in range(1, L):
        state.a[l][...] = state.phat[l]
    return net.weight_update_direction(state)


def _oracle_deviations(dims, batch, seed, act, bias, encoding, whole_network=False) -> list:
    """Per layer, max|pc - bp| of the fixed-prediction PC directions
    against `MLP.descent` on the same weights, over max|bp| of that layer
    or, with `whole_network`, of every layer."""
    net = init_network(dims, seed=seed, hidden_activation=act, bias=bias, encoding=encoding)
    mlp = MLP(dims, net.weights, bias=bias, hidden_activation=act)
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0.0, 1.0, size=(dims[0], batch))
    y = rng.uniform(0.0, 1.0, size=(dims[-1], batch))
    pc = _pc_backprop(net, x, y)
    _, bp = mlp.descent(x, y, 0, 0.0)
    scales = [np.max(np.abs(b)) for b in bp]
    if whole_network:
        scales = [max(scales)] * len(scales)
    return [np.max(np.abs(p - b)) / s for p, b, s in zip(pc, bp, scales)]


class TestExactBackpropOracle:
    """With the predictions held at their forward values, PC's machinery
    gives backprop's gradients at every layer (the fixed prediction
    assumption). Division minimises another cost and is left out."""

    @pytest.mark.parametrize("act", list(ActivationKind))
    @pytest.mark.parametrize("encoding", [enc.Subtractive(), THRESHOLD],
                             ids=["subtractive", "threshold"])
    def test_default_network(self, act, encoding):
        deviations = _oracle_deviations([784, 300, 300, 10], 8, 3, act, 0.0, encoding)
        assert max(deviations) <= 1e-12, deviations

    # Narrow random networks lose more digits. The threshold decode rounds
    # at the scale of the largest error, not of a layer's gradient, so a
    # layer whose gradient is tiny can read above 1e-9 against its own
    # size (the example: 1.8e-9 on a W0 gradient of at most 1.4e-8, 2.4e-17
    # absolute); threshold draws are measured against the network's
    # largest gradient entry. Over 6000 draws (half with seeds below 50)
    # the worst was 9.4e-12 for subtractive draws and 2.6e-12 for threshold
    # ones (6.3e-11 against each layer's own largest entry).
    @given(dims=st.lists(st.integers(1, 8), min_size=2, max_size=5),
           batch=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           act=st.sampled_from(list(ActivationKind)), bias=st.sampled_from([0.0, 0.3]),
           encoding=st.sampled_from([enc.Subtractive(), THRESHOLD]))
    @example(dims=[1, 1, 7, 1], batch=1, seed=2, act=ActivationKind.SIGMOID, bias=0.0,
             encoding=THRESHOLD)
    @settings(max_examples=60, deadline=None)
    def test_any_small_network(self, dims, batch, seed, act, bias, encoding):
        deviations = _oracle_deviations(dims, batch, seed, act, bias, encoding,
                                        whole_network=encoding is THRESHOLD)
        assert max(deviations) <= 1e-9, deviations
