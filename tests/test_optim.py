import math
import tracemalloc

import numpy as np
import pytest

from biopc.checkpoint import load_checkpoint, save_checkpoint
from biopc.network import init_network
from biopc.optim import ADAM_BLOCK, BETA1, BETA2, EPS, AdamState, adam_step


def test_adam_first_step_is_signed_learning_rate():
    state = AdamState.for_shape((2, 3), lr=1e-3)
    g = np.array([[0.5, -2.0, 1.0], [3.0, -0.25, 0.125]])
    inc = adam_step(state, g)
    np.testing.assert_allclose(np.abs(inc), state.lr, atol=1e-6)
    np.testing.assert_array_equal(np.sign(inc), np.sign(g))


@pytest.mark.parametrize("field,value", [
    ("lr", 0.0), ("lr", -1.0), ("lr", math.nan), ("lr", math.inf), ("step_count", -1),
])
def test_adam_state_refuses_values_outside_its_bounds(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        AdamState(m=np.zeros((2, 2)), v=np.zeros((2, 2)), **{field: value})


def test_adam_state_takes_its_bounds_edges():
    AdamState.for_shape((2, 2), lr=1e-300)


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
    state.m = BETA1 * state.m + (1.0 - BETA1) * g
    state.v = BETA2 * state.v + (1.0 - BETA2) * (g * g)
    m_hat = state.m / (1.0 - BETA1 ** t)
    v_hat = state.v / (1.0 - BETA2 ** t)
    return state.lr * m_hat / (np.sqrt(v_hat) + EPS)


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


def _block_rows(shape):
    return max(1, min(shape[0], ADAM_BLOCK // shape[1]))


# 300 x 784 spans many blocks (in elements, not a multiple of ADAM_BLOCK),
# 300 x 300 ends in a partial block of rows, 3 x 4 is smaller than one
# block, and a row longer than ADAM_BLOCK makes one-row blocks.
BLOCKED_SHAPES = [(300, 784), (300, 300), (3, 4), (3, ADAM_BLOCK + 5)]


def test_blocked_shapes_cover_the_block_edges():
    assert (300 * 784) % ADAM_BLOCK != 0
    assert 300 % _block_rows((300, 300)) != 0
    assert 3 * 4 < ADAM_BLOCK
    assert _block_rows((3, ADAM_BLOCK + 5)) == 1


@pytest.mark.parametrize("shape", BLOCKED_SHAPES)
def test_blocked_adam_matches_reference_bit_for_bit(shape):
    rng = np.random.default_rng(23)
    ours = AdamState.for_shape(shape, lr=0.01)
    ref = AdamState.for_shape(shape, lr=0.01)
    increments = []
    for _ in range(4):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
        inc = adam_step(ours, g)
        np.testing.assert_array_equal(inc, _reference_adam_step(ref, g))
        np.testing.assert_array_equal(ours.m, ref.m)
        np.testing.assert_array_equal(ours.v, ref.v)
        increments.append(inc)
    # the increment is one state-owned buffer, overwritten by each step
    assert all(inc is increments[0] for inc in increments)


def test_blocked_adam_after_checkpoint_round_trip(tmp_path):
    net = init_network([784, 300, 10], seed=4)
    rng = np.random.default_rng(8)
    adams = [AdamState.for_shape(w.shape, lr=0.003) for w in net.weights]
    refs = [AdamState.for_shape(w.shape, lr=0.003) for w in net.weights]
    for _ in range(2):
        for state, ref, w in zip(adams, refs, net.weights):
            g = rng.normal(size=w.shape)
            adam_step(state, g)
            _reference_adam_step(ref, g)
    save_checkpoint(tmp_path / "m.pcck", net, adams)
    _, loaded = load_checkpoint(tmp_path / "m.pcck")
    for state, ref, w in zip(loaded, refs, net.weights):
        for _ in range(2):
            g = rng.normal(size=w.shape)
            np.testing.assert_array_equal(adam_step(state, g), _reference_adam_step(ref, g))
        np.testing.assert_array_equal(state.m, ref.m)
        np.testing.assert_array_equal(state.v, ref.v)


def test_warm_adam_step_allocates_less_than_one_matrix():
    shape = (300, 784)
    rng = np.random.default_rng(2)
    state = AdamState.for_shape(shape)
    g = rng.normal(size=shape)
    adam_step(state, g)  # makes the state's buffers
    tracemalloc.start()
    try:
        adam_step(state, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.nbytes
