"""Network mechanics: state initialization, clamping, relaxation, update
directions, feedback schemes. The backprop baseline serves as the oracle for
the output-layer update identity."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import activate_deriv

from biopc import encodings as enc
from biopc.baseline import MLP
from biopc.linalg import ActivationKind, ShapeMismatchError
from biopc.network import (
    FEEDBACK_SCHEMES,
    PREDICT_BLOCK,
    KolenPollack,
    PCNetwork,
    RandomFixed,
    Transpose,
    init_network,
    kp_step,
)

SIG = ActivationKind.SIGMOID


def _zero_net(dims, **kwargs):
    weights = [np.zeros((dims[l + 1], dims[l])) for l in range(len(dims) - 1)]
    return PCNetwork(dims, weights, **kwargs)


def _random_batch(net, batch, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(net.dims[0], batch))
    y = np.zeros((net.dims[-1], batch))
    y[rng.integers(0, net.dims[-1], size=batch), np.arange(batch)] = 1.0
    return x, y


class TestInitNetwork:
    def test_same_seed_bit_identical(self):
        a = init_network([8, 5, 3], feedback=RandomFixed(), seed=123)
        b = init_network([8, 5, 3], feedback=RandomFixed(), seed=123)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(a.feedback_weights, b.feedback_weights):
            np.testing.assert_array_equal(ba, bb)

    def test_different_seed_differs(self):
        a = init_network([8, 5, 3], seed=1)
        b = init_network([8, 5, 3], seed=2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_full_scale_shapes(self):
        net = init_network([784, 300, 300, 10], seed=0)
        assert [w.shape for w in net.weights] == [(300, 784), (300, 300), (10, 300)]

    def test_xavier_bounds(self):
        net = init_network([40, 30], seed=5)
        bound = np.sqrt(6.0 / (40 + 30))
        assert np.max(np.abs(net.weights[0])) <= bound
        # spread should actually use the range
        assert np.max(np.abs(net.weights[0])) > 0.5 * bound

    def test_kp_feedback_starts_unaligned(self):
        net = init_network([200, 150, 10], feedback=KolenPollack(), seed=3)
        for l in range(2):
            b = net.feedback_weights[l].ravel()
            wt = net.weights[l].T.ravel()
            cos = b @ wt / (np.linalg.norm(b) * np.linalg.norm(wt))
            assert abs(cos) < 0.05

    def test_division_requires_positivity(self):
        with pytest.raises(ValueError, match="positive_activities"):
            init_network([4, 3], encoding=enc.Division(), positive_activities=False)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            PCNetwork([4, 3], [np.zeros((2, 4))])
        with pytest.raises(ValueError):
            init_network([4])

    @pytest.mark.parametrize("bias", [-0.1, float("nan"), float("inf")])
    def test_bias_must_be_finite_and_non_negative(self, bias):
        with pytest.raises(ValueError, match="bias"):
            init_network([4, 3], bias=bias)
        with pytest.raises(ValueError, match="bias"):
            init_network([4, 3], bias=bias, model_class=MLP)


class TestInitForward:
    def test_zero_weights_sigmoid_gives_half(self):
        net = _zero_net([3, 4, 2])
        state = net.init_forward(np.zeros((3, 5)))
        np.testing.assert_array_equal(state.a[1], np.full((4, 5), 0.5))
        np.testing.assert_array_equal(state.a[2], np.full((2, 5), 0.5))

    def test_errors_zero_before_clamp(self):
        net = init_network([6, 5, 4, 3], seed=11, bias=0.2)
        x, _ = _random_batch(net, 4, 0)
        state = net.compute_errors(net.init_forward(x))
        for l in range(1, net.n_levels + 1):
            np.testing.assert_array_equal(state.terms[l].e, np.zeros_like(state.terms[l].e))

    def test_errors_where_positivity_clips_a_negative_prediction(self):
        # tanh predicts below zero and positivity rectifies those activities
        # to 0, so there the error is -phat, and 0 everywhere else
        net = init_network([784, 30, 20, 10], hidden_activation=ActivationKind.TANH,
                           positive_activities=True, seed=3)
        x, _ = _random_batch(net, 8, 0)
        state = net.compute_errors(net.init_forward(x))
        for l in range(1, net.n_levels + 1):
            phat = state.phat[l]
            assert state.terms[l].e.tobytes() == np.where(phat < 0, -phat, 0.0).tobytes()
        assert all(np.any(state.terms[l].e != 0.0) for l in (1, 2))

    @pytest.mark.parametrize("encoding", [enc.Subtractive(), enc.SubtractiveThreshold(),
                                          enc.Division()], ids=lambda e: e.name)
    def test_reads_before_compute_errors_are_nan(self, encoding):
        # the level terms start as NaN, so a read before any error is computed
        # cannot return what their memory held before
        net = init_network([6, 5, 4, 3], encoding=encoding, seed=11,
                           positive_activities=encoding.needs_positive,
                           bias=0.1 if encoding.needs_positive else 0.0)
        x, y = _random_batch(net, 4, 0)
        state = net.clamp_output(net.init_forward(x), y)
        for _ in range(2):
            assert np.isnan(net.objective(state))
            dirs = net.activity_directions(state)
            assert all(np.isnan(dirs[l]).all() for l in range(1, net.n_levels))
            assert all(np.isnan(d).all() for d in net.weight_update_direction(state))

    def test_scalar_chain(self):
        net = _zero_net([1, 1, 1])
        state = net.init_forward(np.array([[1.0]]))
        for l in (1, 2):  # f(0) = 0.5 and no shift
            assert state.fp[l][0, 0] == 0.5 and state.phat[l][0, 0] == 0.5
        assert state.a[1][0, 0] == 0.5 and state.a[2][0, 0] == 0.5

    def test_input_shape_checked(self):
        net = init_network([6, 3], seed=0)
        with pytest.raises(ShapeMismatchError):
            net.init_forward(np.zeros((5, 2)))
        with pytest.raises(ShapeMismatchError, match="empty"):
            net.init_forward(np.zeros((6, 0)))

    def test_predict_refuses_empty_batch(self):
        net = init_network([6, 3], seed=0)
        with pytest.raises(ShapeMismatchError, match="input batch is empty"):
            net.predict(np.zeros((6, 0)))

    def test_input_is_level_0_not_a_copy(self):
        # no step writes level 0, so the caller's batch keeps its bits
        net = init_network([3, 2, 2], seed=0)
        x = np.random.default_rng(0).uniform(size=(3, 2))
        before = x.copy()
        state = net.clamp_output(net.init_forward(x), np.eye(2))
        assert state.a[0] is x
        net.relax(state, 5, 0.1)
        net.compute_errors(state)
        net.weight_update_direction(state)
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("width", [1, 2, 7, 64, 129])
    @pytest.mark.parametrize("model_class", [PCNetwork, MLP], ids=["pc", "bp"])
    def test_fortran_ordered_batch_gives_the_same_bits(self, model_class, width):
        # level 0 keeps the memory order of the batch it is given, and
        # DatasetSplit.columns gathers Fortran-ordered ones
        net = init_network([784, 300, 300, 10], seed=5, model_class=model_class)
        x, y = _random_batch(net, width, width)
        got = net.descent(np.asfortranarray(x), y, 5, 0.1)
        want = net.descent(np.ascontiguousarray(x), y, 5, 0.1)
        assert got[0] == want[0]
        for g, w in zip(got[1], want[1]):
            _same_bits(g, w)


class TestClampOutput:
    def test_error_is_target_minus_effective_prediction(self):
        net = init_network([5, 4, 3], seed=7, bias=0.1)
        x, y = _random_batch(net, 3, 1)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        np.testing.assert_allclose(state.terms[2].e, y - state.phat[2], atol=0)

    def test_matched_target_zero_error(self):
        net = init_network([5, 4, 3], seed=7)
        x, _ = _random_batch(net, 3, 1)
        state = net.init_forward(x)
        y = state.phat[2].copy()
        net.clamp_output(state, y)
        net.compute_errors(state)
        np.testing.assert_array_equal(state.terms[2].e, np.zeros_like(y))

    def test_one_hot_against_half_predictions(self):
        net = _zero_net([3, 2])
        state = net.init_forward(np.zeros((3, 4)))
        y = np.zeros((2, 4))
        y[0] = 1.0
        net.clamp_output(state, y)
        net.compute_errors(state)
        assert set(np.unique(state.terms[1].e)) == {-0.5, 0.5}

    def test_shape_checked(self):
        net = init_network([5, 4, 3], seed=7)
        state = net.init_forward(np.zeros((5, 2)))
        with pytest.raises(ShapeMismatchError):
            net.clamp_output(state, np.zeros((4, 2)))
        with pytest.raises(ShapeMismatchError):
            net.clamp_output(state, np.zeros((3, 9)))


class TestComputeErrors:
    def test_matched_state_all_encodings(self):
        for encoding in (enc.Subtractive(), enc.SubtractiveThreshold(), enc.Division()):
            positive = isinstance(encoding, enc.Division)
            net = init_network([5, 4, 3], encoding=encoding, seed=2,
                               positive_activities=positive, bias=0.1)
            x, _ = _random_batch(net, 3, 5)
            state = net.compute_errors(net.init_forward(x))
            for l in (1, 2):
                if isinstance(encoding, enc.Subtractive):
                    np.testing.assert_array_equal(state.terms[l].e, np.zeros_like(state.terms[l].e))
                elif isinstance(encoding, enc.SubtractiveThreshold):
                    baseline = 2.0 * (0.0 - encoding.e_min) / encoding.e_max
                    np.testing.assert_allclose(state.terms[l].e_star, baseline, atol=1e-12)
                    np.testing.assert_allclose(state.terms[l].e, 0.0, atol=1e-12)
                else:
                    np.testing.assert_allclose(state.terms[l].e, 1.0, atol=1e-12)

    def test_error_shapes_match_activities(self):
        net = init_network([6, 5, 4, 3], seed=4)
        x, y = _random_batch(net, 7, 2)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        for l in range(1, net.n_levels + 1):
            assert state.terms[l].e.shape == state.a[l].shape


class TestActivityStep:
    def test_beta_zero_is_identity(self):
        net = init_network([5, 4, 3], seed=9)
        x, y = _random_batch(net, 3, 3)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        before_a = [a.copy() for a in state.a]
        before_fp = [None] + [f.copy() for f in state.fp[1:]]
        before_phat = [None] + [ph.copy() for ph in state.phat[1:]]
        net.activity_step(state, 0.0)
        for l in range(len(before_a)):
            np.testing.assert_array_equal(state.a[l], before_a[l])
        for l in range(1, len(before_fp)):
            np.testing.assert_array_equal(state.fp[l], before_fp[l])
            np.testing.assert_array_equal(state.phat[l], before_phat[l])

    @pytest.mark.parametrize("positive", [False, True])
    def test_moves_activities_in_place(self, positive):
        net = init_network([5, 4, 4, 3], bias=0.1, positive_activities=positive, seed=9)
        x, y = _random_batch(net, 3, 3)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        hidden = state.a[1:-1]
        expected = [a + 0.3 * d for a, d in zip(hidden, net.activity_directions(state)[1:-1])]
        net.activity_step(state, 0.3)
        for l, (a, want) in enumerate(zip(hidden, expected), start=1):
            assert state.a[l] is a
            np.testing.assert_array_equal(a, np.maximum(want, 0.0) if positive else want)

    def test_beta_out_of_range(self):
        net = init_network([5, 4, 3], seed=9)
        x, y = _random_batch(net, 3, 3)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        with pytest.raises(ValueError, match="beta"):
            net.activity_step(state, 1.5)
        with pytest.raises(ValueError, match="beta"):
            net.activity_step(state, -0.1)

    def test_first_direction_is_pure_bottom_up(self):
        # hidden errors are zero right after init + clamp, so the top hidden
        # level's direction reduces to feedback of the output error
        net = init_network([6, 5, 4], seed=13)
        x, y = _random_batch(net, 2, 4)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        dirs = net.activity_directions(state)
        p2 = net.weights[1] @ state.a[1]
        expected = net.weights[1].T @ (state.terms[2].e * activate_deriv(SIG, p2))
        np.testing.assert_allclose(dirs[1], expected, atol=0)

    def test_scalar_chain_direction_zero(self):
        net = _zero_net([1, 1, 1])
        state = net.init_forward(np.array([[1.0]]))
        net.clamp_output(state, np.array([[1.0]]))
        net.compute_errors(state)
        assert state.terms[2].e[0, 0] == 0.5
        dirs = net.activity_directions(state)
        assert dirs[1][0, 0] == 0.0  # 0 * (0.5 * 0.25) - 0

    def test_clamped_levels_never_move(self):
        net = init_network([6, 5, 4, 3], seed=1)
        x, y = _random_batch(net, 3, 8)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        x_before, y_before = state.a[0].copy(), state.a[3].copy()
        for _ in range(17):
            net.compute_errors(state)
            net.activity_step(state, 0.1)
        np.testing.assert_array_equal(state.a[0], x_before)
        np.testing.assert_array_equal(state.a[3], y_before)

    @given(seed=st.integers(0, 50), batch=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_positivity_enforced(self, seed, batch):
        net = init_network([6, 5, 4, 3], seed=seed, positive_activities=True,
                           hidden_activation=ActivationKind.TANH)
        x, y = _random_batch(net, batch, seed + 1000)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        for _ in range(5):
            net.compute_errors(state)
            net.activity_step(state, 0.2)
            for l in range(net.n_levels + 1):
                assert np.min(state.a[l]) >= 0.0

    def test_energy_descends_with_small_steps(self):
        ok = 0
        trials = 30
        for seed in range(trials):
            net = init_network([6, 5, 4, 3], seed=seed)
            x, y = _random_batch(net, 4, seed + 77)
            state = net.init_forward(x)
            net.clamp_output(state, y)
            energies = []
            for _ in range(20):
                net.compute_errors(state)
                energies.append(net.objective(state))
                net.activity_step(state, 0.05)
            net.compute_errors(state)
            energies.append(net.objective(state))
            diffs = np.diff(energies)
            if np.all(diffs <= 1e-12):
                ok += 1
        assert ok >= 0.95 * trials


class TestWeightUpdateDirection:
    def test_zero_errors_zero_directions(self):
        net = init_network([5, 4, 3], seed=21, bias=0.3)
        x, _ = _random_batch(net, 3, 2)
        state = net.compute_errors(net.init_forward(x))
        for d in net.weight_update_direction(state):
            np.testing.assert_array_equal(d, np.zeros_like(d))

    def test_scalar_case(self):
        # x = 1, W = 0, y = 1, sigmoid: e = 0.5, f'(0) = 0.25, a_0 = 1
        net = _zero_net([1, 1])
        state = net.init_forward(np.array([[1.0]]))
        net.clamp_output(state, np.array([[1.0]]))
        net.compute_errors(state)
        d = net.weight_update_direction(state)
        assert d[0][0, 0] == 0.125

    @pytest.mark.parametrize("bias", [0.0, 0.15])
    def test_output_layer_matches_backprop(self, bias):
        # with zero activity steps the top update equals the negated MSE
        # gradient of the baseline holding the same weights
        net = init_network([6, 5, 4], seed=31, bias=bias)
        mlp = init_network([6, 5, 4], seed=31, bias=bias, model_class=MLP)
        x, y = _random_batch(net, 5, 6)
        state = net.init_forward(x)
        net.clamp_output(state, y)
        net.compute_errors(state)
        pc_top = net.weight_update_direction(state)[-1]
        bp_top = mlp.descent(x, y, 0, 0.0)[1][-1]
        np.testing.assert_allclose(pc_top, bp_top, atol=1e-10)

    def test_threshold_equivalent_to_subtractive_within_1e12(self):
        sub = init_network([6, 5, 4], seed=8)
        thr = init_network([6, 5, 4], encoding=enc.SubtractiveThreshold(), seed=8)
        x, y = _random_batch(sub, 4, 9)
        states = []
        for net in (sub, thr):
            state = net.init_forward(x)
            net.clamp_output(state, y)
            net.relax(state, 5, 0.1)
            net.compute_errors(state)
            states.append(state)
        for da, db in zip(sub.weight_update_direction(states[0]),
                          thr.weight_update_direction(states[1])):
            np.testing.assert_allclose(da, db, atol=1e-12)
        for aa, ab in zip(states[0].a, states[1].a):
            np.testing.assert_allclose(aa, ab, atol=1e-12)


class TestKolenPollackStep:
    def test_pure_decay(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 3))
        w2, b2 = w.copy(), b.copy()
        kp_step(w2, b2, np.zeros_like(w), 0.05)
        np.testing.assert_allclose(w2, 0.95 * w, atol=1e-15)
        np.testing.assert_allclose(b2, 0.95 * b, atol=1e-15)

    def test_transpose_alignment_preserved(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(3, 4))
        b = w.T.copy()
        for _ in range(10):
            adj = rng.normal(size=(3, 4)) * 0.1
            kp_step(w, b, adj, 0.01)
        np.testing.assert_allclose(b, w.T, atol=1e-12)

    def test_convergence_over_random_adjustments(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 5))
        gaps = [np.linalg.norm(b - w.T)]
        for _ in range(1000):
            adj = rng.normal(size=(5, 7)) * 0.05
            kp_step(w, b, adj, 0.01)
            gaps.append(np.linalg.norm(b - w.T))
        diffs = np.diff(gaps)
        assert np.all(diffs <= 1e-12)  # gap contracts by (1 - gamma) each step
        assert gaps[-1] < 1e-3 * np.linalg.norm(w)

    def test_float32_updated_in_place(self):
        w, b = np.ones((2, 3), np.float32), np.ones((3, 2), np.float32)
        kp_step(w, b, np.full((2, 3), 0.5), 0.1)
        assert w.dtype == b.dtype == np.float32
        np.testing.assert_array_equal(w, np.float32(1.4))
        np.testing.assert_array_equal(b, np.float32(1.4))


class TestPredict:
    def test_matches_init_forward(self):
        for positive in (False, True):
            net = init_network([6, 5, 4, 3], seed=19, bias=0.1,
                               hidden_activation=ActivationKind.TANH,
                               positive_activities=positive)
            x, _ = _random_batch(net, 6, 3)
            state = net.init_forward(x)
            np.testing.assert_array_equal(net.predict(x), state.a[3])

    def test_zero_weights(self):
        net = _zero_net([4, 3, 2])
        np.testing.assert_array_equal(net.predict(np.zeros((4, 6))),
                                      np.full((2, 6), 0.5))

    def test_deterministic(self):
        net = init_network([6, 5, 3], seed=23)
        x, _ = _random_batch(net, 4, 4)
        np.testing.assert_array_equal(net.predict(x), net.predict(x))

    @pytest.mark.parametrize("width", [1, 7, 9, 10, 11, PREDICT_BLOCK - 1, PREDICT_BLOCK,
                                       2 * PREDICT_BLOCK - 1, 1204, 4096, 4500])
    def test_wide_batch_matches_one_sweep(self, width):
        # Blocked prediction gives the bits of one product over the whole
        # batch, the last columns (a separate path in BLAS) included, for a
        # C- or Fortran-ordered input; an unshifted sigmoid level skips its
        # shift, a tanh level at bias 0 does not.
        x = np.random.default_rng(width).uniform(0.0, 1.0, size=(784, width))
        x_f = np.asfortranarray(x)
        before = x.copy()
        for act, bias in ((ActivationKind.SIGMOID, 0.0), (ActivationKind.SIGMOID, 0.1),
                          (ActivationKind.TANH, 0.0), (ActivationKind.TANH, 1.0)):
            for positive in (False, True):
                net = init_network([784, 300, 300, 10], seed=3, bias=bias, hidden_activation=act,
                                   positive_activities=positive)
                swept = net.init_forward(x).a[3]
                np.testing.assert_array_equal(net.predict(x), swept)
                np.testing.assert_array_equal(net.predict(x_f), swept)
        np.testing.assert_array_equal(x, before)
        np.testing.assert_array_equal(x_f, before)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("model", ["pc", "bp"])
def test_integer_input_is_refused(model, dtype):
    # pixel bytes would enter as values up to 255, not as rates in [0, 1]
    net = init_network([4, 3, 2], seed=1, model_class=MLP if model == "bp" else PCNetwork)
    x = np.full((4, 5), 255, dtype=dtype)
    y = np.zeros((2, 5))
    calls = [lambda: net.predict(x), lambda: net.descent(x, y, 2, 0.1)]
    if model == "pc":
        calls.append(lambda: net.init_forward(x))
    for call in calls:
        with pytest.raises(TypeError, match="DatasetSplit.columns"):
            call()
    # integer-valued floats are rates like any others
    np.testing.assert_array_equal(net.predict(x.astype(np.float64) / 255.0),
                                  net.predict(np.ones((4, 5))))


@pytest.mark.parametrize("y", [np.zeros((3, 5)), np.zeros((2, 4)), np.zeros(5)],
                         ids=["wrong-rows", "wrong-columns", "1-D"])
@pytest.mark.parametrize("model", ["pc", "bp"])
def test_descent_refuses_mismatched_target(model, y):
    # one target column per input sample, as tall as the output level
    net = init_network([4, 3, 2], seed=1, model_class=MLP if model == "bp" else PCNetwork)
    with pytest.raises(ShapeMismatchError):
        net.descent(np.zeros((4, 5)), y, 2, 0.1)


class TestFeedbackSchemes:
    def test_transpose_uses_weight_transpose(self):
        net = init_network([5, 4, 3], seed=1)
        np.testing.assert_array_equal(net.feedback.matrix(net, 0), net.weights[0].T)

    def test_random_uses_separate_matrix(self):
        net = init_network([5, 4, 3], feedback=RandomFixed(), seed=1)
        assert net.feedback.matrix(net, 0) is net.feedback_weights[0]
        assert not np.allclose(net.feedback.matrix(net, 0), net.weights[0].T)

    def test_kp_gamma_validated(self):
        with pytest.raises(ValueError):
            KolenPollack(gamma=0.0)
        with pytest.raises(ValueError):
            KolenPollack(gamma=1.0)

    def test_transpose_rejects_feedback_matrices(self):
        with pytest.raises(ValueError):
            PCNetwork([3, 2], [np.zeros((2, 3))], [np.zeros((3, 2))],
                      feedback=Transpose())

    @pytest.mark.parametrize("feedback", [Transpose(), RandomFixed(), KolenPollack()],
                             ids=["transpose", "random", "kp"])
    def test_empty_feedback_list_refused(self, feedback):
        # a separate-matrix scheme needs one per weight matrix; transpose takes None only
        with pytest.raises(ValueError, match="feedback"):
            PCNetwork([3, 2], [np.zeros((2, 3))], [], feedback=feedback)

    def test_feedback_shape_checked(self):
        with pytest.raises(ShapeMismatchError, match=r"B\[0\] has shape \(2, 3\), expected \(3, 2"):
            PCNetwork([3, 2], [np.zeros((2, 3))], [np.zeros((2, 3))], feedback=RandomFixed())


class TestRegistries:
    @pytest.mark.parametrize("registry", [enc.ENCODINGS, FEEDBACK_SCHEMES])
    def test_names_unique(self, registry):
        assert len({c.name for c in registry}) == len(registry)

    @pytest.mark.parametrize("scheme", [enc.SubtractiveThreshold(e_min=-1.5, e_max=3.0),
                                        enc.Division(epsilon=5e-4), KolenPollack(gamma=0.01),
                                        Transpose()])
    def test_build_by_name(self, scheme):
        registry = FEEDBACK_SCHEMES if type(scheme) in FEEDBACK_SCHEMES else enc.ENCODINGS
        params = dataclasses.asdict(scheme)
        assert enc.build(registry, scheme.name, params) == scheme

    def test_build_rejects_unknown(self):
        with pytest.raises(ValueError, match="named 'nine'"):
            enc.build(enc.ENCODINGS, "nine")
        with pytest.raises(ValueError):
            enc.build(FEEDBACK_SCHEMES, "kp", {"gamma": 5.0})

    def test_domain_error_names_the_level(self):
        net = init_network([5, 4, 3], encoding=enc.SubtractiveThreshold(e_min=0.0), seed=1)
        x, y = _random_batch(net, 3, 2)
        state = net.clamp_output(net.init_forward(x), y)
        with pytest.raises(enc.EncodingDomainError,
                           match=r"^level 2: threshold encoding: entry .* below the "
                                 r"representable minimum e_min=0\.0$"):
            net.compute_errors(state)

    @pytest.mark.parametrize("level, what, array", [(1, "activity", "a"),
                                                    (2, "prediction", "phat")])
    def test_division_domain_error_names_the_level(self, level, what, array):
        net = init_network([5, 4, 3], encoding=enc.Division(), positive_activities=True,
                           bias=0.1, seed=1)
        x, y = _random_batch(net, 3, 2)
        state = net.clamp_output(net.init_forward(x), y)
        getattr(state, array)[level][0, 1] = -0.25
        with pytest.raises(enc.EncodingDomainError,
                           match=rf"^level {level}: division encoding: negative {what} entry "
                                 r"-0\.25; rates must be >= 0$"):
            net.compute_errors(state)


# -- the buffered step against the out-of-place one ----------------------------


def _reference_relax(net, x, y, n_steps, beta):
    """The relaxation and weight directions written out of place, one fresh
    array per operation, in the order the buffered step must keep:
    returns (a, e, phat, weight directions) after `n_steps` steps and one
    more error computation."""
    encoding, L = net.encoding, net.n_levels

    def act(l, z):
        return _reference_sigmoid(z) if net.activation_at(l) is SIG else np.tanh(z)

    def deriv(fl, l):
        return fl * (1.0 - fl) if net.activation_at(l) is SIG else 1.0 - fl * fl

    def errors(a, phat):
        e = [None]
        for l in range(1, L + 1):
            if isinstance(encoding, enc.Division):
                eps = encoding.epsilon
                e.append(np.sqrt((a[l] + eps) / (phat[l] + eps)))
            elif isinstance(encoding, enc.SubtractiveThreshold):
                estar = 2.0 * ((a[l] - phat[l]) - encoding.e_min) / encoding.e_max
                e.append((encoding.e_max / 2.0) * estar + encoding.e_min)
            else:
                e.append(a[l] - phat[l])
        return e

    def rising(e, fp, phat, l):
        if isinstance(encoding, enc.Division):
            return 0.5 * np.log(e[l]) * deriv(fp[l], l) / (phat[l] + encoding.epsilon)
        return e[l] * deriv(fp[l], l)

    def top_down(e, a, l):
        if isinstance(encoding, enc.Division):
            return 0.5 * np.log(e[l]) / (a[l] + encoding.epsilon)
        return e[l]

    a, fp, phat = [x.copy()], [None], [None]
    for l in range(1, L + 1):
        fp.append(act(l, net.weights[l - 1] @ a[l - 1]))
        phat.append(fp[l] + net.bias_at(l))
        a.append(np.maximum(phat[l], 0.0) if net.positive_activities else phat[l].copy())
    a[L] = y.copy()
    for _ in range(n_steps):
        e = errors(a, phat)
        dirs = [None] * (L + 1)
        for l in range(1, L):
            bottom_up = net.feedback.matrix(net, l) @ rising(e, fp, phat, l + 1)
            dirs[l] = bottom_up - top_down(e, a, l)
        for l in range(1, L):
            a[l] = a[l] + dirs[l] * beta
            if net.positive_activities:
                a[l] = np.maximum(a[l], 0.0)
        for l in range(2, L + 1):
            fp[l] = act(l, net.weights[l - 1] @ a[l - 1])
            phat[l] = fp[l] + net.bias_at(l)
    e = errors(a, phat)
    weight_dirs = [(rising(e, fp, phat, l + 1) @ a[l].T) / x.shape[1] for l in range(L)]
    return a, e, phat, weight_dirs


def _reference_sigmoid(z):
    # the piecewise overflow-free form: 1 / (1 + exp(-z)) for z >= 0 and
    # exp(z) / (1 + exp(z)) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _combinations():
    for encoding in (enc.Subtractive(), enc.SubtractiveThreshold(e_min=-2.5, e_max=5.0),
                     enc.Division()):
        for feedback in FEEDBACK_SCHEMES:
            for act in ActivationKind:
                for positive in (False, True):
                    if encoding.needs_positive and not positive:
                        continue
                    yield encoding, feedback(), act, positive


def _net(encoding, feedback, act, positive, dims, seed=0):
    # a shift wherever rates must stay positive, none elsewhere: both the
    # shifted and the unshifted prediction path run
    bias = (1.0 if act is ActivationKind.TANH else 0.1) if positive else 0.0
    return init_network(dims, encoding=encoding, feedback=feedback, hidden_activation=act,
                        bias=bias, positive_activities=positive, seed=seed)


def _check_against_reference(net, x, y, n_steps=6, beta=0.1):
    want_a, want_e, want_phat, want_dw = _reference_relax(net, x, y, n_steps, beta)
    state = net.init_forward(x)
    net.clamp_output(state, y)
    net.relax(state, n_steps, beta)
    net.compute_errors(state)
    for l in range(net.n_levels + 1):
        _same_bits(state.a[l], want_a[l])
    for l in range(1, net.n_levels + 1):
        _same_bits(state.terms[l].e, want_e[l])
        _same_bits(state.phat[l], want_phat[l])
    for got, want in zip(net.weight_update_direction(state), want_dw):
        _same_bits(got, want)


class TestBufferedStep:
    """The relaxation step updates the state's values in place, and moves no
    output bit against the same rules written out of place."""

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("encoding,feedback,act,positive", list(_combinations()),
                             ids=lambda v: getattr(v, "name", None) or str(v))
    def test_same_bits_as_out_of_place(self, encoding, feedback, act, positive, width):
        for dims in ([784, 300, 300, 10], [6, 5, 4, 3]):
            net = _net(encoding, feedback, act, positive, dims)
            x, y = _random_batch(net, width, width)
            _check_against_reference(net, x, y)

    @pytest.mark.parametrize("encoding", [enc.Subtractive(), enc.Division()],
                             ids=lambda e: e.name)
    def test_one_network_two_widths_in_turn(self, encoding):
        net = _net(encoding, Transpose(), SIG, encoding.needs_positive, [784, 300, 300, 10])
        for width, seed in ((64, 1), (7, 2), (64, 3), (1, 4)):
            x, y = _random_batch(net, width, seed)
            _check_against_reference(net, x, y)

    def test_prediction_is_the_activation_only_where_the_shift_moves_no_bit(self):
        # x + 0.0 differs from x only at x = -0.0: tanh(-0.0) is -0.0, but the
        # sigmoid never returns it
        assert np.signbit(np.tanh(-0.0)) and not np.signbit(np.tanh(-0.0) + 0.0)
        for act in ActivationKind:
            for bias in (0.0, 0.1):
                net = init_network([5, 4, 3], hidden_activation=act, bias=bias, seed=1)
                state = net.init_forward(np.ones((5, 2)))
                shared = act is SIG and bias == 0.0
                assert (state.phat[1] is state.fp[1]) == shared
                assert state.phat[2] is state.fp[2]  # unshifted sigmoid output

    def test_states_do_not_share_arrays(self):
        net = init_network([6, 5, 4, 3], seed=2)
        x, y = _random_batch(net, 4, 1)
        first = net.clamp_output(net.init_forward(x), y)
        net.relax(first, 3, 0.1)
        net.compute_errors(first)
        kept = [d.copy() for d in net.weight_update_direction(first)]
        second = net.clamp_output(net.init_forward(x[:, :2]), y[:, :2])
        net.relax(second, 5, 0.1)
        net.compute_errors(second)
        net.weight_update_direction(second)
        for got, want in zip(net.weight_update_direction(first), kept):
            _same_bits(got, want)

    @pytest.mark.parametrize("encoding", [enc.Subtractive(), enc.SubtractiveThreshold(),
                                          enc.Division()], ids=lambda e: e.name)
    def test_returned_directions_are_the_callers(self, encoding):
        # the directions keep their bits through the next step and the next
        # calls on the same state, which return other values
        net = _net(encoding, Transpose(), SIG, encoding.needs_positive, [6, 5, 4, 3])
        x, y = _random_batch(net, 4, 1)
        state = net.clamp_output(net.init_forward(x), y)
        net.relax(state, 3, 0.1)
        net.compute_errors(state)
        acts, weights = net.activity_directions(state), net.weight_update_direction(state)
        assert acts[0] is None and acts[-1] is None
        held = acts[1:-1] + weights
        kept = [d.copy() for d in held]
        net.activity_step(state, 0.1)
        net.compute_errors(state)
        later = net.activity_directions(state)[1:-1] + net.weight_update_direction(state)
        for got, want, new in zip(held, kept, later):
            _same_bits(got, want)
            assert new is not got and not np.array_equal(new, want)

    @pytest.mark.parametrize("encoding", [enc.Subtractive(), enc.SubtractiveThreshold(),
                                          enc.Division()], ids=lambda e: e.name)
    def test_level_terms_keep_their_identity(self, encoding):
        net = _net(encoding, Transpose(), SIG, encoding.needs_positive, [6, 5, 4, 3])
        x, y = _random_batch(net, 4, 0)
        state = net.clamp_output(net.init_forward(x), y)
        held = [None] + [(t, t.e, t.e_star) for t in state.terms[1:]]
        net.relax(state, 3, 0.1)
        net.compute_errors(state)
        for l in range(1, net.n_levels + 1):
            terms, e, e_star = held[l]
            assert state.terms[l] is terms and terms.e is e and terms.e_star is e_star
            assert (e_star is None) == (encoding.name != "threshold")

