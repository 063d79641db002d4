import numpy as np
import pytest

from biopc.optim import AdamState, adam_step, sgd_step


def test_sgd_points():
    np.testing.assert_array_equal(sgd_step(0.0, np.ones((2, 2))), np.zeros((2, 2)))
    g = np.array([[1.0, -2.0]])
    np.testing.assert_array_equal(sgd_step(1.0, g), g)
    np.testing.assert_array_equal(sgd_step(0.5, np.array([[2.0]])), [[1.0]])


def test_adam_first_step_is_signed_learning_rate():
    state = AdamState.for_shape((2, 3), lr=1e-3)
    g = np.array([[0.5, -2.0, 1.0], [3.0, -0.25, 0.125]])
    inc = adam_step(state, g)
    np.testing.assert_allclose(np.abs(inc), state.lr, atol=1e-6)
    np.testing.assert_array_equal(np.sign(inc), np.sign(g))


def test_adam_zero_directions_stay_zero():
    state = AdamState.for_shape((2, 2))
    for _ in range(5):
        inc = adam_step(state, np.zeros((2, 2)))
        np.testing.assert_array_equal(inc, np.zeros((2, 2)))


def test_adam_identical_sequences_identical_increments():
    rng = np.random.default_rng(9)
    grads = [rng.normal(size=(3, 4)) for _ in range(10)]
    s1 = AdamState.for_shape((3, 4))
    s2 = AdamState.for_shape((3, 4))
    for g in grads:
        np.testing.assert_array_equal(adam_step(s1, g), adam_step(s2, g))


def test_adam_step_counter_increases():
    state = AdamState.for_shape((1, 1))
    for t in range(1, 6):
        adam_step(state, np.ones((1, 1)))
        assert state.step_count == t


def test_adam_step_magnitude_bounded_by_lr_constant_directions():
    # For a constant direction the bias-corrected moments cancel exactly and
    # the per-entry step is lr * g / (|g| + eps), never above lr.
    for scale in (1e-6, 1e-2, 1.0, 1e3):
        state = AdamState.for_shape((3, 3), lr=1e-3)
        g = np.full((3, 3), scale)
        for _ in range(50):
            inc = adam_step(state, g)
            assert np.max(np.abs(inc)) <= state.lr * (1.0 + 1e-6)


def test_adam_step_magnitude_bounded_by_lr_decaying_gradients():
    # Training-like regime: gradient magnitudes shrink over time, so the
    # slow second moment never underestimates the fast first moment.
    rng = np.random.default_rng(31)
    state = AdamState.for_shape((4, 4), lr=1e-3)
    g = rng.normal(size=(4, 4))
    for t in range(200):
        inc = adam_step(state, g * 0.98 ** t)
        assert np.max(np.abs(inc)) <= state.lr * (1.0 + 1e-6)


def test_adam_shape_mismatch():
    state = AdamState.for_shape((2, 2))
    with pytest.raises(ValueError):
        adam_step(state, np.ones((3, 2)))


def _reference_adam_step(state, g):
    # Reference: the out-of-place Adam update the in-place one replaced.
    state.step_count += 1
    t = state.step_count
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (g * g)
    m_hat = state.m / (1.0 - state.beta1 ** t)
    v_hat = state.v / (1.0 - state.beta2 ** t)
    return state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


@pytest.mark.parametrize("shape, lr", [((300, 784), 1e-3), ((10, 300), 0.05), ((3, 4), 1.0)])
def test_adam_in_place_matches_out_of_place_reference(shape, lr):
    rng = np.random.default_rng(17)
    ours = AdamState.for_shape(shape, lr=lr)
    ref = AdamState.for_shape(shape, lr=lr)
    for k in range(6):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3)
        if k == 3:
            g[0, 0] = 0.0
        m_before, v_before = ours.m, ours.v
        inc = adam_step(ours, g)
        np.testing.assert_array_equal(inc, _reference_adam_step(ref, g))
        np.testing.assert_array_equal(ours.m, ref.m)
        np.testing.assert_array_equal(ours.v, ref.v)
        assert ours.step_count == ref.step_count
        assert ours.m is m_before and ours.v is v_before  # updated in place
        assert not np.shares_memory(inc, ours.m) and not np.shares_memory(inc, ours.v)
