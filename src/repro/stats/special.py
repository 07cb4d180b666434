"""Special functions underlying the chi-square and F distributions.

The Qcluster paper leans on two statistical quantiles:

* the chi-square quantile ``chi2_p(alpha)`` that defines the *effective
  radius* of a cluster ellipsoid (Lemma 1 / Equation 6), and
* the F quantile ``F_{p, m_i + m_j - p - 1}(alpha)`` that defines the
  critical distance ``c^2`` for Hotelling's ``T^2`` merge test
  (Equation 16).

Rather than treating those as black boxes, this module implements the
special functions they are built from — the log-gamma function, the
regularized lower incomplete gamma function ``P(a, x)`` and the
regularized incomplete beta function ``I_x(a, b)`` — using the classic
Lanczos and continued-fraction constructions.  ``scipy`` is used only in
the test-suite to cross-validate these implementations.

All routines are scalar; the distribution modules vectorize on top of
them with :func:`numpy.vectorize` where convenient.
"""

from __future__ import annotations

import math

__all__ = [
    "log_gamma",
    "regularized_lower_gamma",
    "regularized_upper_gamma",
    "log_beta",
    "regularized_incomplete_beta",
    "inverse_regularized_lower_gamma",
    "inverse_regularized_incomplete_beta",
]

# Lanczos coefficients for g = 7, n = 9 — accurate to ~15 significant
# digits over the right half-plane, which covers every use in this
# package (degrees of freedom are positive).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_MAX_ITERATIONS = 500
_EPSILON = 1e-15
_TINY = 1e-300


def log_gamma(x: float) -> float:
    """Return ``ln Gamma(x)`` for ``x > 0`` via the Lanczos approximation.

    Raises:
        ValueError: if ``x <= 0`` (the reflection branch is not needed for
            degrees-of-freedom arguments and is deliberately unsupported).
    """
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Reflection formula keeps the Lanczos series in its sweet spot.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    x -= 1.0
    series = _LANCZOS_COEFFS[0]
    for i, coeff in enumerate(_LANCZOS_COEFFS[1:], start=1):
        series += coeff / (x + i)
    t = x + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (x + 0.5) * math.log(t) - t + math.log(series)


def _lower_gamma_series(a: float, x: float) -> float:
    """Series expansion of ``P(a, x)``; converges fastest for ``x < a + 1``."""
    term = 1.0 / a
    total = term
    denominator = a
    for _ in range(_MAX_ITERATIONS):
        denominator += 1.0
        term *= x / denominator
        total += term
        if abs(term) < abs(total) * _EPSILON:
            break
    log_prefactor = a * math.log(x) - x - log_gamma(a)
    return total * math.exp(log_prefactor)


def _upper_gamma_continued_fraction(a: float, x: float) -> float:
    """Continued fraction for ``Q(a, x)``; converges fastest for ``x >= a + 1``.

    Modified Lentz's method, as in Numerical Recipes section 6.2.
    """
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPSILON:
            break
    log_prefactor = a * math.log(x) - x - log_gamma(a)
    return h * math.exp(log_prefactor)


def regularized_lower_gamma(a: float, x: float) -> float:
    """Return ``P(a, x) = gamma(a, x) / Gamma(a)`` for ``a > 0, x >= 0``.

    This is the CDF of a Gamma(a, 1) random variable, and with
    ``a = p / 2`` and ``x = t / 2`` it is the chi-square CDF with ``p``
    degrees of freedom evaluated at ``t``.
    """
    if a <= 0.0:
        raise ValueError(f"regularized_lower_gamma requires a > 0, got {a}")
    if x < 0.0:
        raise ValueError(f"regularized_lower_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x)
    return 1.0 - _upper_gamma_continued_fraction(a, x)


def regularized_upper_gamma(a: float, x: float) -> float:
    """Return ``Q(a, x) = 1 - P(a, x)``, the chi-square survival function."""
    return 1.0 - regularized_lower_gamma(a, x)


def log_beta(a: float, b: float) -> float:
    """Return ``ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)``."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _incomplete_beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Numerical Recipes 6.4)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        # Even step.
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        # Odd step.
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPSILON:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Return ``I_x(a, b)``, the regularized incomplete beta function.

    With ``a = d1 / 2``, ``b = d2 / 2`` and ``x = d1 f / (d1 f + d2)``
    this is the CDF of an F(d1, d2) random variable evaluated at ``f``.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"regularized_incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"regularized_incomplete_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    )
    front = math.exp(log_front)
    # Use the continued fraction directly where it converges rapidly,
    # otherwise use the symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _incomplete_beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _incomplete_beta_continued_fraction(b, a, 1.0 - x) / b


def _bisect_refine(
    func,
    target: float,
    low: float,
    high: float,
    tolerance: float = 1e-15,
) -> float:
    """Find ``x`` in ``[low, high]`` with ``func(x) == target`` by bisection.

    ``func`` must be monotonically increasing on the bracket.  Bisection is
    slower than Newton but unconditionally robust, which matters because the
    quantile functions are called with arbitrary user-supplied significance
    levels.
    """
    f_low = func(low) - target
    for _ in range(300):
        mid = 0.5 * (low + high)
        f_mid = func(mid) - target
        # Converge relative to |mid|: quantiles can be arbitrarily small
        # (e.g. chi-square tails) where the CDF is extremely steep.
        if f_mid == 0.0 or (high - low) < tolerance * abs(mid):
            return mid
        if (f_low < 0.0) == (f_mid < 0.0):
            low, f_low = mid, f_mid
        else:
            high = mid
    return 0.5 * (low + high)


def inverse_regularized_lower_gamma(a: float, probability: float) -> float:
    """Return ``x`` such that ``P(a, x) = probability``.

    Used to evaluate chi-square quantiles: ``chi2.ppf(q, p)`` equals
    ``2 * inverse_regularized_lower_gamma(p / 2, q)``.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    if probability == 0.0:
        return 0.0
    if probability == 1.0:
        return math.inf
    # Bracket the root: the mean of Gamma(a, 1) is a, so expand
    # geometrically from there in both directions.
    high = max(a, 1.0)
    while regularized_lower_gamma(a, high) < probability:
        high *= 2.0
        if high > 1e300:  # pragma: no cover - defensive
            return high
    low = min(a, 1.0)
    while low > _TINY and regularized_lower_gamma(a, low) > probability:
        low *= 0.5
    return _bisect_refine(lambda x: regularized_lower_gamma(a, x), probability, low, high)


def inverse_regularized_incomplete_beta(a: float, b: float, probability: float) -> float:
    """Return ``x`` such that ``I_x(a, b) = probability``.

    Used to evaluate F quantiles through the beta/F change of variables.
    A root above 1/2 is solved in the complementary variable through
    ``I_x(a, b) = 1 - I_{1-x}(b, a)``: bisection converges relative to
    the variable it works in, and near 1 (where ``I_x`` is steepest for
    ``b < 1``) a few ulps of ``x`` move ``I_x`` by more than 1e-9.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {probability}")
    if probability == 0.0:
        return 0.0
    if probability == 1.0:
        return 1.0
    if probability > regularized_incomplete_beta(a, b, 0.5):
        return 1.0 - _bisect_refine(
            lambda y: regularized_incomplete_beta(b, a, y), 1.0 - probability, 0.0, 0.5
        )
    return _bisect_refine(lambda x: regularized_incomplete_beta(a, b, x), probability, 0.0, 0.5)
