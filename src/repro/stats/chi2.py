"""Chi-square distribution built on :mod:`repro.stats.special`.

The chi-square quantile supplies the *effective radius* of a cluster
ellipsoid (paper Equation 6): for significance level ``alpha``, a point
``x`` lies inside the cluster when

    (x - mean)' S^{-1} (x - mean)  <  chi2_ppf(1 - alpha, p)

so that ``100 (1 - alpha) %`` of Gaussian-distributed members fall inside.
"""

from __future__ import annotations

import functools
import math

from .special import (
    inverse_regularized_lower_gamma,
    regularized_lower_gamma,
    regularized_upper_gamma,
)

__all__ = ["chi2_pdf", "chi2_cdf", "chi2_sf", "chi2_ppf", "effective_radius"]


def _validate_df(df: float) -> None:
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")


def chi2_pdf(x: float, df: float) -> float:
    """Density of the chi-square distribution with ``df`` degrees of freedom."""
    _validate_df(df)
    if x < 0.0:
        return 0.0
    if x == 0.0:
        if df < 2.0:
            return math.inf
        return 0.5 if df == 2.0 else 0.0
    half_df = 0.5 * df
    from .special import log_gamma

    log_density = (
        (half_df - 1.0) * math.log(x) - 0.5 * x - half_df * math.log(2.0) - log_gamma(half_df)
    )
    return math.exp(log_density)


def chi2_cdf(x: float, df: float) -> float:
    """CDF ``P(X <= x)`` of the chi-square distribution."""
    _validate_df(df)
    if x <= 0.0:
        return 0.0
    return regularized_lower_gamma(0.5 * df, 0.5 * x)


def chi2_sf(x: float, df: float) -> float:
    """Survival function ``P(X > x)`` of the chi-square distribution."""
    _validate_df(df)
    if x <= 0.0:
        return 1.0
    return regularized_upper_gamma(0.5 * df, 0.5 * x)


@functools.lru_cache(maxsize=256)
def chi2_ppf(q: float, df: float) -> float:
    """Quantile function: the ``x`` with ``chi2_cdf(x, df) = q``.

    Memoized: the bisection costs about 0.7 ms of pure Python, and a
    feedback round asks for the same few ``(1 - alpha, p)`` pairs dozens
    of times (the classifier's effective radius and every low-mass pair
    of the merge loop), so an uncached round could hold the interpreter
    for tens of milliseconds.
    """
    _validate_df(df)
    return 2.0 * inverse_regularized_lower_gamma(0.5 * df, q)


def effective_radius(dimension: int, significance_level: float) -> float:
    """Effective radius of a cluster ellipsoid (paper Equation 6).

    For Gaussian-distributed cluster members, ``100 (1 - alpha) %`` of them
    satisfy ``(x - mean)' S^{-1} (x - mean) < chi2_p(alpha)``.  As ``alpha``
    decreases the radius grows and fewer points are flagged as outliers.

    Args:
        dimension: feature-space dimensionality ``p``.
        significance_level: the paper's ``alpha``; typically 0.01-0.05.

    Returns:
        The squared-Mahalanobis-distance threshold.
    """
    if dimension <= 0:
        raise ValueError(f"dimension must be positive, got {dimension}")
    if not 0.0 < significance_level < 1.0:
        raise ValueError(
            f"significance level must lie strictly in (0, 1), got {significance_level}"
        )
    return chi2_ppf(1.0 - significance_level, float(dimension))
