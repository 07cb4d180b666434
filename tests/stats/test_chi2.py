"""Chi-square distribution vs scipy, plus the effective-radius semantics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.stats.chi2 import chi2_cdf, chi2_pdf, chi2_ppf, chi2_sf, effective_radius
from repro.stats.special import inverse_regularized_lower_gamma


class TestChi2Distribution:
    @pytest.mark.parametrize("df", [1, 2, 3, 7, 16, 48])
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 5.0, 20.0, 100.0])
    def test_cdf_matches_scipy(self, df, x):
        assert chi2_cdf(x, df) == pytest.approx(st.chi2.cdf(x, df), abs=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 5, 12])
    @pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 30.0])
    def test_pdf_matches_scipy(self, df, x):
        assert chi2_pdf(x, df) == pytest.approx(st.chi2.pdf(x, df), rel=1e-10)

    @pytest.mark.parametrize("df", [1, 3, 9, 16])
    @pytest.mark.parametrize("q", [0.01, 0.05, 0.5, 0.95, 0.99])
    def test_ppf_matches_scipy(self, df, q):
        assert chi2_ppf(q, df) == pytest.approx(st.chi2.ppf(q, df), rel=1e-9)

    @pytest.mark.parametrize("df", [32, 64, 128])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-4, 1e-6])
    def test_ppf_matches_scipy_at_served_sizes(self, df, alpha):
        # Served dimensions, down to the merge loop's alpha floor (1e-6).
        expected = st.chi2.ppf(1.0 - alpha, df)
        assert chi2_ppf(1.0 - alpha, float(df)) == pytest.approx(expected, rel=1e-9)

    def test_sf_is_complement(self):
        assert chi2_sf(4.2, 6) == pytest.approx(1.0 - chi2_cdf(4.2, 6))

    def test_pdf_edge_cases(self):
        assert chi2_pdf(-1.0, 3) == 0.0
        assert chi2_pdf(0.0, 2) == 0.5  # exponential(1/2) at 0
        assert chi2_pdf(0.0, 1) == np.inf
        assert chi2_pdf(0.0, 4) == 0.0

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_ppf(0.5, 0)

    def test_ppf_memo_returns_the_bisection(self):
        # The memo only skips recomputation; it never changes a value.
        first = chi2_ppf(0.95, 16.0)
        assert first == 2.0 * inverse_regularized_lower_gamma(8.0, 0.95)
        hits = chi2_ppf.cache_info().hits
        assert chi2_ppf(0.95, 16.0) == first
        assert chi2_ppf.cache_info().hits == hits + 1

    @given(hst.integers(min_value=1, max_value=64), hst.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_ppf_cdf_roundtrip(self, df, q):
        assert chi2_cdf(chi2_ppf(q, df), df) == pytest.approx(q, abs=1e-9)


class TestEffectiveRadius:
    def test_matches_paper_semantics(self):
        # chi2_p(alpha) = the 100(1 - alpha) percentile (Lemma 1).
        assert effective_radius(3, 0.05) == pytest.approx(st.chi2.ppf(0.95, 3), rel=1e-9)

    def test_decreasing_alpha_grows_radius(self):
        # "As alpha decreases, a given effective radius increases."
        radii = [effective_radius(7, alpha) for alpha in (0.2, 0.1, 0.05, 0.01)]
        assert radii == sorted(radii)

    def test_coverage_of_gaussian_data(self, rng):
        # ~95% of standard normal points fall inside the alpha=0.05 radius.
        dim = 4
        points = rng.standard_normal((20_000, dim))
        radius = effective_radius(dim, 0.05)
        inside = np.sum(np.einsum("ij,ij->i", points, points) < radius)
        assert inside / 20_000 == pytest.approx(0.95, abs=0.01)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            effective_radius(0, 0.05)
        with pytest.raises(ValueError):
            effective_radius(3, 0.0)
        with pytest.raises(ValueError):
            effective_radius(3, 1.0)
