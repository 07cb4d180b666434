"""F distribution, its upper quantile and the paper's random-F draw.

The F quantile supplies the critical distance ``c^2`` of the
cluster-merging test (paper Equation 16):

    c^2 = (m_i + m_j - 2) p / (m_i + m_j - p - 1) * F_{p, m_i + m_j - p - 1}(alpha)

where ``F_{d1, d2}(alpha)`` is the upper 100(1 - alpha) percentile of the
F distribution.  ``random_f`` reproduces the paper's Equation 20, which
draws critical values as ratios of chi-square sums of squared normals.
"""

from __future__ import annotations

import math

import numpy as np

from .special import (
    inverse_regularized_incomplete_beta,
    log_beta,
    regularized_incomplete_beta,
)

__all__ = ["f_pdf", "f_cdf", "f_sf", "f_upper_quantile", "random_f"]


def _validate_dfs(df1: float, df2: float) -> None:
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({df1}, {df2})")


def f_pdf(x: float, df1: float, df2: float) -> float:
    """Density of the F distribution with ``(df1, df2)`` degrees of freedom."""
    _validate_dfs(df1, df2)
    if x <= 0.0:
        return 0.0
    half1 = 0.5 * df1
    half2 = 0.5 * df2
    log_density = (
        half1 * math.log(df1 / df2)
        + (half1 - 1.0) * math.log(x)
        - (half1 + half2) * math.log1p(df1 * x / df2)
        - log_beta(half1, half2)
    )
    return math.exp(log_density)


def f_cdf(x: float, df1: float, df2: float) -> float:
    """CDF ``P(F <= x) = I_{df1 x / (df1 x + df2)}(df1/2, df2/2)``."""
    _validate_dfs(df1, df2)
    if x <= 0.0:
        return 0.0
    return regularized_incomplete_beta(0.5 * df1, 0.5 * df2, df1 * x / (df1 * x + df2))


def f_sf(x: float, df1: float, df2: float) -> float:
    """Survival function ``P(F > x) = I_{df2 / (df2 + df1 x)}(df2/2, df1/2)``."""
    _validate_dfs(df1, df2)
    if x <= 0.0:
        return 1.0
    return regularized_incomplete_beta(0.5 * df2, 0.5 * df1, df2 / (df2 + df1 * x))


def f_upper_quantile(significance_level: float, df1: float, df2: float) -> float:
    """Upper 100(1 - alpha) percentile ``F_{df1, df2}(alpha)`` as the paper writes it.

    The paper's notation ``F_{p, n}(alpha)`` denotes the point exceeded with
    probability ``alpha``.  With ``X ~ F(df1, df2)``,
    ``B = df2 / (df2 + df1 X)`` follows ``Beta(df2/2, df1/2)`` and
    ``P(X > x) = P(B < b)``, so the quantile is solved from ``alpha``
    itself as ``b = I^{-1}_alpha(df2/2, df1/2)``; going through
    ``1 - alpha`` would lose the digits ``alpha`` holds below ``1e-3``.
    """
    _validate_dfs(df1, df2)
    if not 0.0 < significance_level < 1.0:
        raise ValueError(
            f"significance level must lie strictly in (0, 1), got {significance_level}"
        )
    # scipy.special loads on this first call: the served merge test
    # reaches the F branch only when a pair holds more than 2p relevance mass.
    b = inverse_regularized_incomplete_beta(0.5 * df2, 0.5 * df1, significance_level)
    if b == 0.0:  # df2 near zero: the quantile is past the float range
        return math.inf
    return df2 * (1.0 - b) / (df1 * b)


def random_f(df1: int, df2: int, rng: np.random.Generator) -> float:
    """Draw a random F value per the paper's Equation 20.

    ``random F_{d1, d2} = (sum of d1 squared N(0,1)) / (sum of d2 squared
    N(0,1))`` — note the paper deliberately omits the usual normalization
    by degrees of freedom; we reproduce their formula verbatim because the
    Q-Q plots of Figures 18/19 are built from it.
    """
    if df1 <= 0 or df2 <= 0:
        raise ValueError(f"degrees of freedom must be positive, got ({df1}, {df2})")
    numerator = float(np.sum(rng.standard_normal(df1) ** 2))
    denominator = float(np.sum(rng.standard_normal(df2) ** 2))
    if denominator == 0.0:  # pragma: no cover - probability zero
        raise ZeroDivisionError("degenerate chi-square draw in random_f")
    return numerator / denominator
