"""F distribution vs scipy, plus the paper's random-F draw (Equation 20)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats as st
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.stats.fdist import f_cdf, f_pdf, f_sf, f_upper_quantile, random_f


class TestFDistribution:
    @pytest.mark.parametrize("df1", [1, 3, 12])
    @pytest.mark.parametrize("df2", [2, 10, 48])
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 10.0])
    def test_cdf_matches_scipy(self, df1, df2, x):
        assert f_cdf(x, df1, df2) == pytest.approx(st.f.cdf(x, df1, df2), abs=1e-12)

    @pytest.mark.parametrize("df1", [2, 6])
    @pytest.mark.parametrize("df2", [4, 20])
    @pytest.mark.parametrize("x", [0.2, 1.0, 3.0])
    def test_pdf_matches_scipy(self, df1, df2, x):
        assert f_pdf(x, df1, df2) == pytest.approx(st.f.pdf(x, df1, df2), rel=1e-10)

    @pytest.mark.parametrize("df1", [1, 3, 12])
    @pytest.mark.parametrize("df2", [5, 48])
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.95, 0.99])
    def test_ppf_matches_scipy(self, df1, df2, q):
        expected = st.f.ppf(q, df1, df2)
        assert f_upper_quantile(1.0 - q, df1, df2) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("df1", [16, 32, 64])
    @pytest.mark.parametrize("df2_offset", ["p", "p+1", "2p"])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3, 1e-4, 1e-6])
    def test_ppf_matches_scipy_at_served_sizes(self, df1, df2_offset, alpha):
        # The merge test's F branch starts at df2 = p; the served merge
        # config relaxes alpha down to 1e-6.
        df2 = {"p": df1, "p+1": df1 + 1, "2p": 2 * df1}[df2_offset]
        expected = st.f.isf(alpha, df1, df2)
        assert f_upper_quantile(alpha, float(df1), float(df2)) == pytest.approx(expected, rel=1e-8)

    def test_sf_is_complement(self):
        assert f_sf(1.7, 3, 14) == pytest.approx(1.0 - f_cdf(1.7, 3, 14))

    def test_upper_quantile_notation(self):
        # F_{p,n}(alpha) is the point exceeded with probability alpha.
        value = f_upper_quantile(0.05, 12, 48)
        assert st.f.sf(value, 12, 48) == pytest.approx(0.05, abs=1e-9)

    def test_table_values(self):
        # The paper's quantile-F for dim 12, pairs of size 30:
        # F_{12, 48}(0.05) ~ 1.96 (Table 2).
        assert f_upper_quantile(0.05, 12, 48) == pytest.approx(1.96, abs=0.01)

    def test_tiny_df2_overflows_to_inf(self):
        # Fractional relevance mass can leave m_i + m_j - p - 1 just above 0.
        assert f_upper_quantile(1e-6, 2.0, 1e-3) == np.inf
        assert f_upper_quantile(1e-6, 2.0, 0.1) == pytest.approx(5e118, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            f_cdf(1.0, 0, 5)
        with pytest.raises(ValueError):
            f_upper_quantile(0.05, 0, 5)
        with pytest.raises(ValueError):
            f_upper_quantile(1.5, 3, 5)
        with pytest.raises(ValueError):
            f_upper_quantile(0.0, 3, 5)

    @given(
        hst.integers(min_value=1, max_value=30),
        hst.integers(min_value=2, max_value=60),
        hst.floats(min_value=0.02, max_value=0.98),
    )
    @settings(max_examples=100, deadline=None)
    def test_ppf_cdf_roundtrip(self, df1, df2, alpha):
        quantile = f_upper_quantile(alpha, df1, df2)
        assert st.f.sf(quantile, df1, df2) == pytest.approx(alpha, abs=1e-8)


class TestRandomF:
    def test_positive(self, rng):
        values = [random_f(12, 48, rng) for _ in range(100)]
        assert all(v > 0 for v in values)

    def test_mean_matches_unnormalized_ratio(self, rng):
        # E[chi2_12 / chi2_48] = 12 * E[1/chi2_48] = 12 / 46 (Eq. 20 is
        # deliberately unnormalized).
        values = np.array([random_f(12, 48, rng) for _ in range(20_000)])
        assert values.mean() == pytest.approx(12.0 / 46.0, rel=0.05)

    def test_rejects_bad_dfs(self, rng):
        with pytest.raises(ValueError):
            random_f(0, 5, rng)
