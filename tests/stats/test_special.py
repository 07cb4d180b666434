"""Cross-validate the from-scratch special functions against scipy."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats.special import (
    inverse_regularized_incomplete_beta,
    inverse_regularized_lower_gamma,
    log_beta,
    log_gamma,
    regularized_incomplete_beta,
    regularized_lower_gamma,
    regularized_upper_gamma,
)


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 100.0, 1234.5])
    def test_matches_scipy(self, x):
        assert log_gamma(x) == pytest.approx(sp.gammaln(x), rel=1e-12)

    def test_integer_factorials(self):
        # Gamma(n) = (n-1)!
        for n in range(1, 15):
            assert math.exp(log_gamma(n)) == pytest.approx(math.factorial(n - 1), rel=1e-10)

    def test_half_integer(self):
        # Gamma(1/2) = sqrt(pi)
        assert math.exp(log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    @given(st.floats(min_value=0.05, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        # ln Gamma(x + 1) = ln Gamma(x) + ln x
        assert log_gamma(x + 1.0) == pytest.approx(log_gamma(x) + math.log(x), rel=1e-9, abs=1e-9)


class TestRegularizedGamma:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 8.0, 50.0])
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 5.0, 30.0, 200.0])
    def test_matches_scipy(self, a, x):
        assert regularized_lower_gamma(a, x) == pytest.approx(sp.gammainc(a, x), abs=1e-12)

    def test_upper_is_complement(self):
        assert regularized_upper_gamma(3.0, 2.0) == pytest.approx(
            1.0 - regularized_lower_gamma(3.0, 2.0)
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(1.0, -1.0)

    @given(
        st.floats(min_value=0.2, max_value=50.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_a_cdf(self, a, x):
        value = regularized_lower_gamma(a, x)
        assert 0.0 <= value <= 1.0
        # Monotone in x.
        assert regularized_lower_gamma(a, x + 1.0) >= value - 1e-12


class TestIncompleteBeta:
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("b", [0.5, 2.0, 7.5])
    @pytest.mark.parametrize("x", [0.0, 0.05, 0.3, 0.5, 0.9, 1.0])
    def test_matches_scipy(self, a, b, x):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            sp.betainc(a, b, x), abs=1e-12
        )

    def test_log_beta_matches_scipy(self):
        for a, b in [(0.5, 0.5), (1.0, 3.0), (12.0, 7.0), (100.0, 0.3)]:
            assert log_beta(a, b) == pytest.approx(sp.betaln(a, b), rel=1e-12)

    def test_symmetry(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        value = regularized_incomplete_beta(2.0, 5.0, 0.3)
        complement = regularized_incomplete_beta(5.0, 2.0, 0.7)
        assert value == pytest.approx(1.0 - complement, abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestInverses:
    @given(
        st.floats(min_value=0.3, max_value=40.0),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=150, deadline=None)
    def test_gamma_inverse_roundtrip(self, a, probability):
        x = inverse_regularized_lower_gamma(a, probability)
        assert regularized_lower_gamma(a, x) == pytest.approx(probability, abs=1e-9)

    @given(
        st.floats(min_value=0.3, max_value=25.0),
        st.floats(min_value=0.3, max_value=25.0),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @example(21.0, 0.30078125, 0.99609375)
    @settings(max_examples=150, deadline=None)
    def test_beta_inverse_roundtrip(self, a, b, probability):
        x = inverse_regularized_incomplete_beta(a, b, probability)
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(probability, abs=1e-9)

    def test_edge_probabilities(self):
        assert inverse_regularized_lower_gamma(2.0, 0.0) == 0.0
        assert inverse_regularized_lower_gamma(2.0, 1.0) == np.inf
        assert inverse_regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert inverse_regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            inverse_regularized_lower_gamma(1.0, 1.5)
        with pytest.raises(ValueError):
            inverse_regularized_incomplete_beta(1.0, 1.0, -0.1)
