"""F distribution built on :mod:`repro.stats.special`.

The F quantile supplies the critical distance ``c^2`` of the
cluster-merging test (paper Equation 16):

    c^2 = (m_i + m_j - 2) p / (m_i + m_j - p - 1) * F_{p, m_i + m_j - p - 1}(alpha)

where ``F_{d1, d2}(alpha)`` is the upper 100(1 - alpha) percentile of the
F distribution.  ``random_f`` reproduces the paper's Equation 20, which
draws critical values as ratios of chi-square sums of squared normals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .special import (
    inverse_regularized_incomplete_beta,
    log_beta,
    regularized_incomplete_beta,
)

__all__ = ["f_pdf", "f_cdf", "f_sf", "f_ppf", "f_upper_quantile", "random_f"]


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
    """CDF ``P(F <= x)`` via the incomplete-beta change of variables."""
    _validate_dfs(df1, df2)
    if x <= 0.0:
        return 0.0
    transformed = df1 * x / (df1 * x + df2)
    return regularized_incomplete_beta(0.5 * df1, 0.5 * df2, transformed)


def f_sf(x: float, df1: float, df2: float) -> float:
    """Survival function ``P(F > x)``."""
    return 1.0 - f_cdf(x, df1, df2)


@functools.lru_cache(maxsize=256)
def f_ppf(q: float, df1: float, df2: float) -> float:
    """Quantile function: the ``x`` with ``f_cdf(x, df1, df2) = q``.

    Memoized like :func:`~repro.stats.chi2.chi2_ppf`: the incomplete-beta
    inversion costs about 0.8 ms of pure Python, and the merge loop asks
    for the critical of every F-test pair again at each relaxed alpha.
    """
    _validate_dfs(df1, df2)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return math.inf
    transformed = inverse_regularized_incomplete_beta(0.5 * df1, 0.5 * df2, q)
    if transformed >= 1.0:  # pragma: no cover - numerical guard
        return math.inf
    return df2 * transformed / (df1 * (1.0 - transformed))


def f_upper_quantile(significance_level: float, df1: float, df2: float) -> float:
    """Upper 100(1 - alpha) percentile ``F_{df1, df2}(alpha)`` as the paper writes it.

    The paper's notation ``F_{p, n}(alpha)`` denotes the point exceeded with
    probability ``alpha``; that is ``f_ppf(1 - alpha, p, n)``.
    """
    if not 0.0 < significance_level < 1.0:
        raise ValueError(
            f"significance level must lie strictly in (0, 1), got {significance_level}"
        )
    return f_ppf(1.0 - significance_level, df1, df2)


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
