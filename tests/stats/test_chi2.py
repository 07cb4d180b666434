"""Chi-square distribution vs scipy, plus the effective-radius semantics."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats as st
from scipy.special import chdtri
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.stats.chi2 import chi2_cdf, chi2_pdf, chi2_sf, effective_radius


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
        assert effective_radius(df, 1.0 - q) == pytest.approx(st.chi2.ppf(q, df), rel=1e-9)

    @pytest.mark.parametrize("df", [32, 64, 128])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-4, 1e-6])
    def test_ppf_matches_scipy_at_served_sizes(self, df, alpha):
        # Served dimensions, down to the merge loop's alpha floor (1e-6).
        assert effective_radius(df, alpha) == pytest.approx(st.chi2.isf(alpha, df), rel=1e-9)

    @pytest.mark.parametrize("df", [1, 7, 33, 1501, 4000])
    @pytest.mark.parametrize("alpha", [0.9, 0.05, 1e-6, 1e-30])
    def test_odd_and_very_large_df_match_scipy(self, df, alpha):
        # Odd p adds the erfc term; p in the thousands rescales the tail sum.
        assert effective_radius(df, alpha) == pytest.approx(chdtri(df, alpha), rel=1e-12)

    @pytest.mark.parametrize("df", [3, 16, 64, 1501])
    def test_sf_matches_scipy_in_the_tail(self, df):
        x = st.chi2.isf(1e-6, df)
        assert chi2_sf(x, df) == pytest.approx(st.chi2.sf(x, df), rel=1e-12)

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
            effective_radius(-2, 0.5)
        with pytest.raises(ValueError):
            effective_radius(2.5, 0.5)

    @given(hst.integers(min_value=1, max_value=64), hst.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=100, deadline=None)
    def test_ppf_cdf_roundtrip(self, df, alpha):
        assert st.chi2.sf(effective_radius(df, alpha), df) == pytest.approx(alpha, abs=1e-9)


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
