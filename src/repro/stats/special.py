"""Validated scalar special functions over :mod:`scipy.special`.

The gamma and beta functions behind the chi-square and F distributions.
Each checks its arguments (raising ``ValueError`` rather than returning
``nan``) and returns a Python ``float``.  ``scipy.special`` is imported
inside each call: importing it costs a process about 25 MB and 0.2 s,
and the served feedback round never needs it (the chi-square quantile is
solved from its closed-form tail in :mod:`repro.stats.chi2`).
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


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def log_gamma(x: float) -> float:
    """``ln Gamma(x)`` for ``x > 0``."""
    _check_positive(x=x)
    return math.lgamma(x)


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(a, x) = gamma(a, x) / Gamma(a)``."""
    _check_positive(a=a)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    from scipy.special import gammainc

    return float(gammainc(a, x))


def regularized_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma ``Q(a, x) = 1 - P(a, x)``, exact in the tail."""
    _check_positive(a=a)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    from scipy.special import gammaincc

    return float(gammaincc(a, x))


def log_beta(a: float, b: float) -> float:
    """``ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)``."""
    _check_positive(a=a, b=b)
    from scipy.special import betaln

    return float(betaln(a, b))


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)`` for ``x`` in ``[0, 1]``."""
    _check_positive(a=a, b=b)
    _check_probability("x", x)
    from scipy.special import betainc

    return float(betainc(a, b, x))


def inverse_regularized_lower_gamma(a: float, probability: float) -> float:
    """The ``x`` with ``P(a, x) = probability`` (``inf`` at probability 1)."""
    _check_positive(a=a)
    _check_probability("probability", probability)
    from scipy.special import gammaincinv

    return float(gammaincinv(a, probability))


def inverse_regularized_incomplete_beta(a: float, b: float, probability: float) -> float:
    """The ``x`` in ``[0, 1]`` with ``I_x(a, b) = probability``."""
    _check_positive(a=a, b=b)
    _check_probability("probability", probability)
    from scipy.special import betaincinv

    return float(betaincinv(a, b, probability))
