"""Chi-square distribution and the effective radius of paper Equation 6.

For significance level ``alpha``, a point ``x`` lies inside a cluster when

    (x - mean)' S^{-1} (x - mean)  <  chi2_p(alpha)

so that ``100 (1 - alpha) %`` of Gaussian-distributed members fall inside.
``chi2_p(alpha)`` is the point a chi-square variable with ``p`` degrees of
freedom exceeds with probability ``alpha``.  It is solved from ``alpha``
itself, not from ``1 - alpha``, so it stays exact down to the merge loop's
``alpha = 1e-6``.

For an integer ``p`` the upper tail is a finite sum of positive terms
(``e^{-x/2}`` times a Poisson partial sum, plus ``erfc`` when ``p`` is
odd), so the quantile, density and tails need nothing beyond
:mod:`math`.  That is deliberate: every feedback round asks for the
quantile, and importing ``scipy.special`` costs each serving process
about 25 MB and 0.2 s.
"""

from __future__ import annotations

import math

__all__ = ["chi2_pdf", "chi2_cdf", "chi2_sf", "effective_radius"]

#: Rescale the running tail sum before it can overflow (large ``p``).
_RESCALE_AT = 1e250
_LOG_RESCALE = math.log(_RESCALE_AT)
#: Newton converges quadratically, so the step after one this small
#: would be below float resolution; stopping here avoids chasing the
#: rounding noise of the tail sum.
_STEP_TOLERANCE = 1e-9


def _log_upper_tail(dimension: int, x: float) -> float:
    """``log P(chi2_p > x)`` for an integer ``p`` and ``x > 0``.

    ``P = e^{-h} sum_k h^{k+s} / Gamma(k+s+1)`` with ``h = x/2`` over
    ``k < p // 2``, where ``s = 0`` for even ``p``; odd ``p`` has
    ``s = 1/2`` and adds ``erfc(sqrt(h))``.
    """
    half = 0.5 * x
    offset = 0.5 * (dimension % 2)
    term = 1.0 if offset == 0.0 else 2.0 * math.sqrt(half / math.pi)
    total = 0.0
    log_scale = -half
    for k in range(dimension // 2):
        if k:
            term *= half / (k + offset)
        total += term
        if total > _RESCALE_AT:
            total /= _RESCALE_AT
            term /= _RESCALE_AT
            log_scale += _LOG_RESCALE
    log_sum = math.log(total) + log_scale if total > 0.0 else -math.inf
    odd_term = math.erfc(math.sqrt(half)) if offset else 0.0
    if odd_term == 0.0:
        return log_sum
    log_erfc = math.log(odd_term)
    high, low = max(log_sum, log_erfc), min(log_sum, log_erfc)
    return high + math.log1p(math.exp(low - high))


def _validate_df(df: float) -> int:
    if df <= 0 or df != int(df):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
    return int(df)


def _log_density(dimension: int, x: float) -> float:
    """``log`` of the chi-square density at ``x > 0``."""
    half_df = 0.5 * dimension
    log_norm = half_df * math.log(2.0) + math.lgamma(half_df)
    return (half_df - 1.0) * math.log(x) - 0.5 * x - log_norm


def chi2_pdf(x: float, df: int) -> float:
    """Density of the chi-square distribution with integer ``df`` degrees of freedom."""
    dimension = _validate_df(df)
    if x < 0.0:
        return 0.0
    if x == 0.0:
        return {1: math.inf, 2: 0.5}.get(dimension, 0.0)
    return math.exp(_log_density(dimension, x))


def chi2_cdf(x: float, df: int) -> float:
    """CDF ``P(X <= x)``: the complement of the closed-form tail."""
    dimension = _validate_df(df)
    if x <= 0.0:
        return 0.0
    return -math.expm1(_log_upper_tail(dimension, x))


def chi2_sf(x: float, df: int) -> float:
    """Survival function ``P(X > x)``, the tail :func:`effective_radius` inverts."""
    dimension = _validate_df(df)
    if x <= 0.0:
        return 1.0
    return math.exp(_log_upper_tail(dimension, x))


def effective_radius(dimension: int, significance_level: float) -> float:
    """Effective radius of a cluster ellipsoid (paper Equation 6).

    For Gaussian-distributed cluster members, ``100 (1 - alpha) %`` of them
    satisfy ``(x - mean)' S^{-1} (x - mean) < chi2_p(alpha)``.  As ``alpha``
    decreases the radius grows and fewer points are flagged as outliers.

    Newton's method on ``log P(chi2_p > x) = log alpha``: that function
    is concave in ``x`` for ``p >= 2`` (convex for ``p = 1``), so after
    the first step the iterates approach the root from one side.

    Args:
        dimension: feature-space dimensionality ``p``.
        significance_level: the paper's ``alpha``; typically 0.01-0.05.

    Returns:
        The squared-Mahalanobis-distance threshold.
    """
    if dimension <= 0 or dimension != int(dimension):
        raise ValueError(f"dimension must be a positive integer, got {dimension}")
    if not 0.0 < significance_level < 1.0:
        raise ValueError(
            f"significance level must lie strictly in (0, 1), got {significance_level}"
        )
    dimension = int(dimension)
    log_alpha = math.log(significance_level)
    x = dimension - 2.0 * log_alpha
    for _ in range(100):
        log_tail = _log_upper_tail(dimension, x)
        step = (log_tail - log_alpha) * math.exp(log_tail - _log_density(dimension, x))
        x = x + step if x + step > 0.0 else 0.5 * x
        if abs(step) <= _STEP_TOLERANCE * x:
            break
    return x
