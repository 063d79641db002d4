"""Matrix kernels and activations against hand-computed values and
finite differences."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import activate_deriv

from biopc.linalg import (
    ActivationKind,
    ShapeMismatchError,
    _sigmoid,
    activate,
    matmul,
)

ALL_KINDS = list(ActivationKind)


def _piecewise_sigmoid(x):
    # Reference: the masked piecewise sigmoid that _sigmoid replaced.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), m), m)

    def test_scalar_case(self):
        np.testing.assert_array_equal(matmul([[2.0]], [[3.0]]), [[6.0]])

    def test_hand_multiplied(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        np.testing.assert_array_equal(matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 5))
            b = rng.normal(size=(5, 3))
            c = rng.normal(size=(3, 6))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)

    def test_pure(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        np.testing.assert_array_equal(matmul(a, b), matmul(a, b))


class TestActivations:
    def test_sigmoid_at_zero(self):
        x = np.array([[0.0]])
        assert activate(ActivationKind.SIGMOID, x)[0, 0] == 0.5
        assert activate_deriv(ActivationKind.SIGMOID, x)[0, 0] == 0.25

    def test_sigmoid_at_two(self):
        # 1 / (1 + exp(-2))
        got = activate(ActivationKind.SIGMOID, np.array([[2.0]]))[0, 0]
        assert got == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_tanh_and_relu_points(self):
        assert activate(ActivationKind.TANH, np.array([[0.0]]))[0, 0] == 0.0

    def test_sigmoid_finite_for_extreme_inputs(self):
        x = np.array([[-1e4, -50.0, 50.0, 1e4]])
        got = activate(ActivationKind.SIGMOID, x)
        assert np.all(np.isfinite(got))
        assert np.all((got >= 0) & (got <= 1))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deriv_matches_finite_difference(self, kind):
        rng = np.random.default_rng(42)
        x = rng.uniform(-5.0, 5.0, size=(1, 100))
        h = 1e-6
        numeric = (activate(kind, x + h) - activate(kind, x - h)) / (2 * h)
        np.testing.assert_allclose(activate_deriv(kind, x), numeric, atol=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_deterministic(self, kind):
        x = np.random.default_rng(5).uniform(-5, 5, size=(7, 9))
        np.testing.assert_array_equal(activate(kind, x), activate(kind, x))
        np.testing.assert_array_equal(activate_deriv(kind, x), activate_deriv(kind, x))

    def test_does_not_mutate_input(self):
        x = np.array([[-1.0, 2.0]])
        kept = x.copy()
        for kind in ALL_KINDS:
            activate(kind, x)
            activate_deriv(kind, x)
        np.testing.assert_array_equal(x, kept)


class TestSigmoidMatchesPiecewise:
    """The branch-free sigmoid must reproduce the piecewise form bit for bit,
    NaN sign and payload included, so no checkpoint byte moves."""

    SPECIAL = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                         745.0, -745.0, 745.2, -745.2, 709.8, -709.8, 36.0, -36.0,
                         1e308, -1e308, 1.0, -1.0]])

    def test_special_values(self):
        nan_bits = np.array([[0x7FF8000000000000, 0xFFF8000000000000,
                              0x7FF0000000000001, 0xFFFBEEF000000000]], dtype=np.uint64)
        for x in (self.SPECIAL, nan_bits.view(np.float64)):
            assert _same_bits(_sigmoid(x), _piecewise_sigmoid(x))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(2021)
        for shape in ((1024, 1024), (300, 64), (3, 5)):
            x = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64).view(np.float64)
            assert _same_bits(_sigmoid(x), _piecewise_sigmoid(x))

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=16),
                      elements=st.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True)))
    def test_any_float64_matrix(self, x):
        assert _same_bits(_sigmoid(x), _piecewise_sigmoid(x))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_in_place_same_bits(self, kind):
        # written over its input, with given work arrays, as the network's
        # buffered level step does
        x = np.concatenate([self.SPECIAL, -self.SPECIAL], axis=1)
        x = np.concatenate([x, np.random.default_rng(7).normal(0.0, 20.0, size=(5, x.shape[1]))])
        want = _piecewise_sigmoid(x) if kind is ActivationKind.SIGMOID else np.tanh(x)
        scratch, mask = np.empty_like(x), np.empty(x.shape, dtype=bool)
        got = activate(kind, x, out=x, scratch=scratch, mask=mask)
        assert got is x and _same_bits(got, want)
