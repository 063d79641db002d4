"""Error encodings: hand-evaluated values, round trips, domain errors and
the equivalence of the threshold path with the plain subtractive one."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from biopc import encodings as enc
from biopc.linalg import ActivationKind
from biopc.network import PCNetwork

M = lambda *rows: np.array(rows, dtype=np.float64)


def _error(encoding, a, phat):
    """The level terms `encoding.error` writes for activities `a` against
    predictions `phat`, into fresh ones: it returns nothing and writes
    every array of `encoding.terms(a.shape)` in place."""
    terms = encoding.terms(a.shape)
    arrays = dict(vars(terms))
    assert encoding.error(a, phat, terms) is None
    assert all(getattr(terms, name) is arr for name, arr in arrays.items())
    return terms


def _ratio_terms(e):
    """Division's level terms for ratios `e`, with 0.5 log e as its `error`
    writes it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return enc.LevelTerms(e=e, half_log_e=0.5 * np.log(e))


def _threshold(e, e_min=-1.0, e_max=2.1):
    """(decoded, encoded) threshold errors for raw errors `e`: activities `e`
    against a zero prediction."""
    terms = _error(enc.SubtractiveThreshold(e_min, e_max), e, np.zeros_like(e))
    return terms.e, terms.e_star


class TestVariants:
    def test_threshold_parameter_validation(self):
        for params in (dict(e_min=-1.0, e_max=0.0), dict(e_min=0.5, e_max=2.0),
                       dict(e_min=math.nan), dict(e_min=-math.inf),
                       dict(e_max=math.nan), dict(e_max=math.inf)):
            with pytest.raises(ValueError):
                enc.SubtractiveThreshold(**params)

    def test_division_epsilon_validation(self):
        for epsilon in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError):
                enc.Division(epsilon=epsilon)

    @pytest.mark.parametrize("encoding", [e() for e in enc.ENCODINGS], ids=lambda e: e.name)
    def test_error_writes_every_term_in_place(self, encoding):
        a, phat = M([0.3, 0.7], [0.2, 0.0]), M([0.5, 0.1], [0.2, 0.4])
        terms = encoding.terms(a.shape)
        arrays = [v for v in vars(terms).values() if v is not None]
        for arr in arrays:
            arr.fill(np.nan)
        assert encoding.error(a, phat, terms) is None
        assert not any(np.isnan(arr).any() for arr in arrays)

    def test_defaults(self):
        t = enc.SubtractiveThreshold()
        assert (t.e_min, t.e_max) == (-1.0, 2.1)
        assert enc.Division().epsilon == 1e-3


def _effective_prediction(kind, bias):
    # a level's effective prediction f(p) + b at p = 0: the hidden level of a
    # zero-weight 1-1-1 network
    net = PCNetwork([1, 1, 1], [np.zeros((1, 1))] * 2, bias=bias, hidden_activation=kind)
    return net.init_forward(M([1.0])).phat[1]


class TestPredictedRate:
    def test_sigmoid_no_bias(self):
        assert _effective_prediction(ActivationKind.SIGMOID, 0.0)[0, 0] == 0.5

    def test_tanh_with_bias(self):
        got = _effective_prediction(ActivationKind.TANH, 0.1)
        assert got[0, 0] == pytest.approx(0.1, abs=1e-15)

    def test_sigmoid_with_bias(self):
        got = _effective_prediction(ActivationKind.SIGMOID, 0.1)
        assert got[0, 0] == pytest.approx(0.6, abs=1e-15)


class TestSubtractive:
    def test_zero_when_matched(self):
        a = M([0.3, 0.7])
        terms = _error(enc.Subtractive(), a, a)
        assert np.all(terms.e == 0.0) and terms.e_star is None

    def test_simple_difference(self):
        assert _error(enc.Subtractive(), M([1.0]), M([0.5])).e[0, 0] == 0.5

    def test_bias_enters_through_prediction(self):
        # a = 1 against f(p) = 0.5 shifted by b = 0.1
        phat = _effective_prediction(ActivationKind.SIGMOID, 0.1)
        got = _error(enc.Subtractive(), M([1.0]), phat).e
        assert got[0, 0] == pytest.approx(0.4, abs=1e-15)


class TestThreshold:
    def test_floor_maps_to_zero(self):
        got = _threshold(M([-1.0]))[1]
        assert got[0, 0] == 0.0

    def test_zero_error_near_baseline(self):
        got = _threshold(M([0.0]))[1]
        assert got[0, 0] == pytest.approx(2.0 / 2.1, abs=1e-15)  # ~0.95238

    def test_ceiling_maps_to_two(self):
        got = _threshold(M([-1.0 + 2.1]))[1]
        assert got[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_below_floor_raises(self):
        with pytest.raises(enc.EncodingDomainError, match="e_min"):
            _threshold(M([-1.2]))

    def test_decode_points(self):
        # decoding the floor's rate 0 and the baseline rate 2 / 2.1
        assert _threshold(M([-1.0]))[0][0, 0] == -1.0
        back = _threshold(M([0.0]))[0]
        assert back[0, 0] == pytest.approx(0.0, abs=1e-15)

    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                   elements=st.floats(0.0, 1.0)),
        st.floats(-3.0, 0.0),
        st.floats(0.5, 4.0),
    )
    def test_round_trip(self, unit, e_min, e_max):
        e = e_min + unit * e_max  # anywhere in the representable range
        back, estar = _threshold(e, e_min, e_max)
        assert np.all(estar >= 0.0)
        np.testing.assert_allclose(back, e, atol=1e-12)

    @given(
        hnp.arrays(np.float64, (3, 2), elements=st.floats(0.0, 1e300)),
        st.floats(-1e300, 0.0),
        # from twice the smallest normal on, e_max / 2 is exact
        st.floats(2 * np.finfo(np.float64).tiny, np.finfo(np.float64).max),
    )
    def test_encoding_is_doubling_then_division(self, above_floor, e_min, e_max):
        # one division by e_max / 2 rounds the real number that doubling
        # and then dividing by e_max rounds
        e = e_min + above_floor
        with np.errstate(over="ignore"):  # a tiny e_max overflows both to inf
            estar = _threshold(e, e_min, e_max)[1]
            assert estar.tobytes() == (((e - e_min) * 2.0) / e_max).tobytes()

    @given(hnp.arrays(np.float64, (3, 2), elements=st.floats(-1.0, 1.1)))
    def test_encoded_rates_non_negative(self, e):
        estar = _threshold(e)[1]
        assert np.all(estar >= 0.0)


class TestDivision:
    def test_one_when_matched(self):
        a = M([0.2, 0.9])
        got = _error(enc.Division(1e-3), a, a).e
        np.testing.assert_allclose(got, 1.0, atol=1e-15)

    def test_ratio_of_four_gives_two(self):
        got = _error(enc.Division(1e-12), M([1.0]), M([0.25])).e
        assert got[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_zero_over_zero_is_one(self):
        got = _error(enc.Division(1e-3), M([0.0]), M([0.0])).e
        assert got[0, 0] == 1.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(enc.EncodingDomainError, match="negative"):
            _error(enc.Division(1e-3), M([-0.1]), M([0.5]))
        with pytest.raises(enc.EncodingDomainError, match="negative"):
            _error(enc.Division(1e-3), M([0.1]), M([-0.5]))

    @given(
        hnp.arrays(np.float64, (4, 3), elements=st.floats(0.0, 5.0)),
        hnp.arrays(np.float64, (4, 3), elements=st.floats(0.0, 5.0)),
        st.floats(1e-6, 1e-1),
    )
    @example(a=np.zeros((4, 3)), phat=np.full((4, 3), 1.72e-18), epsilon=1e-6)
    def test_strictly_positive_and_one_iff_matched(self, a, phat, epsilon):
        got = _error(enc.Division(epsilon), a, phat).e
        assert np.all(got > 0.0)
        assert np.all(got[a == phat] == 1.0)
        # e = sqrt(1 + d) with d = (a - phat) / (phat + eps), so |e - 1| is
        # |d| / 2 to first order: |e - 1| <= 1e-12 means |d| <= 2e-12. A 1%
        # band around that boundary, far wider than the few-ulp rounding of
        # e, is left to rounding.
        matched = np.abs(got - 1.0) <= 1e-12
        d = np.abs(a - phat) / (phat + epsilon)
        assert np.all(matched[d <= 2e-12 * 0.99])
        assert not np.any(matched[d >= 2e-12 * 1.01])


class TestDivisionCost:
    def test_zero_iff_all_ones(self):
        assert enc.Division().cost(_ratio_terms(np.ones((3, 2)))) == 0.0
        almost = np.ones((3, 2))
        almost[1, 0] = 1.5
        assert enc.Division().cost(_ratio_terms(almost)) > 0.0

    def test_euler_ratio(self):
        assert enc.Division().cost(_ratio_terms(M([math.e]))) == pytest.approx(0.5, abs=1e-12)

    def test_ratio_two(self):
        # (1/2) ln(2)^2
        assert (enc.Division().cost(_ratio_terms(M([2.0])))
                == pytest.approx(0.24022650695910071, abs=1e-15))

    def test_mean_over_batch_sum_over_units(self):
        block = np.full((2, 3), 2.0)  # 2 units, 3 samples
        assert (enc.Division().cost(_ratio_terms(block))
                == pytest.approx(2 * 0.24022650695910071, abs=1e-12))

    def test_non_positive_entries_rejected(self):
        with pytest.raises(enc.EncodingDomainError):
            enc.Division().cost(_ratio_terms(M([0.0])))
        with pytest.raises(enc.EncodingDomainError):
            enc.Division().cost(_ratio_terms(M([-1.0])))


    @given(
        hnp.arrays(np.float64, (4, 3), elements=st.floats(0.0, 1.0)),
        hnp.arrays(np.float64, (4, 3), elements=st.floats(0.0, 1.0)),
        st.floats(1e-6, 1e-1),
    )
    def test_output_cost_is_the_cost_of_the_ratio(self, y, out, epsilon):
        # the ratio written out of place, bit for bit
        division = enc.Division(epsilon)
        want = division.cost(_ratio_terms(np.sqrt((y + epsilon) / (out + epsilon))))
        assert np.float64(division.output_cost(y, out)).tobytes() == np.float64(want).tobytes()

    @given(hnp.arrays(np.float64, (4, 3), elements=st.floats(1e-3, 1e3)))
    def test_cost_from_half_log_equals_cost_from_log(self, e):
        # 2 * (0.5 log e) is log e exactly, so the cost keeps the bits of
        # taking the log of the ratio itself
        logs = np.log(e)
        want = 0.5 * np.sum(logs * logs) / e.shape[1]
        got = enc.Division().cost(_ratio_terms(e))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_output_cost_rejects_negative_rates(self):
        for y, out in ((M([-0.1]), M([0.5])), (M([0.1]), M([-0.5]))):
            with pytest.raises(enc.EncodingDomainError, match="negative"):
                enc.Division().output_cost(y, out)


class TestSubtractiveCost:
    def test_zero(self):
        assert enc.Subtractive().cost(enc.LevelTerms(np.zeros((3, 2)))) == 0.0

    def test_single_entry(self):
        assert enc.Subtractive().cost(enc.LevelTerms(M([2.0]))) == 2.0

    def test_two_units(self):
        assert (enc.Subtractive().cost(enc.LevelTerms(np.array([[0.5], [-0.5]])))
                == pytest.approx(0.25, abs=1e-15))

    def test_mean_over_batch(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert enc.Subtractive().cost(enc.LevelTerms(e)) == pytest.approx(0.5, abs=1e-15)


class TestThresholdEquivalence:
    """Re-expressing subtractive errors through the threshold encoding must
    leave update quantities unchanged to float rounding."""

    @given(
        hnp.arrays(np.float64, (4, 2), elements=st.floats(-0.9, 1.0)),
        hnp.arrays(np.float64, (4, 2), elements=st.floats(-2.0, 2.0)),
    )
    def test_decoded_errors_match(self, e, fprime):
        decoded, _ = _threshold(e)
        np.testing.assert_allclose(decoded * fprime, e * fprime, atol=1e-12)
