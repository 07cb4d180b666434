"""Statistical substrate for the Qcluster reproduction.

Everything the paper's measures need — chi-square quantiles for the
effective radius (Equation 6), F quantiles for the merge test's critical
distance (Equation 16), weighted moments (Definitions 1-2) and
Hotelling's two-sample ``T^2`` (Equation 14).  Both quantiles are
solved from the upper tail ``alpha`` itself: the chi-square one from its
closed-form integer-``p`` tail with :mod:`math` alone (every feedback
round needs it), the F one from ``scipy.special.betaincinv``.  The
gamma and beta functions in :mod:`repro.stats.special` are validated
calls into ``scipy.special``, imported on first use.
"""

from .chi2 import chi2_cdf, chi2_pdf, chi2_sf, effective_radius
from .descriptive import (
    as_weights,
    pooled_covariance,
    pooled_scatter,
    weighted_covariance,
    weighted_mean,
    weighted_scatter,
)
from .fdist import f_cdf, f_pdf, f_sf, f_upper_quantile, random_f
from .hotelling import HotellingResult, critical_distance, hotelling_t2, two_sample_test
from .normal import log_mvn_density, mahalanobis_sq, mvn_density
from .special import (
    inverse_regularized_incomplete_beta,
    inverse_regularized_lower_gamma,
    log_beta,
    log_gamma,
    regularized_incomplete_beta,
    regularized_lower_gamma,
    regularized_upper_gamma,
)

__all__ = [
    "chi2_cdf",
    "chi2_pdf",
    "chi2_sf",
    "effective_radius",
    "as_weights",
    "pooled_covariance",
    "pooled_scatter",
    "weighted_covariance",
    "weighted_mean",
    "weighted_scatter",
    "f_cdf",
    "f_pdf",
    "f_sf",
    "f_upper_quantile",
    "random_f",
    "HotellingResult",
    "critical_distance",
    "hotelling_t2",
    "two_sample_test",
    "log_mvn_density",
    "mahalanobis_sq",
    "mvn_density",
    "inverse_regularized_incomplete_beta",
    "inverse_regularized_lower_gamma",
    "log_beta",
    "log_gamma",
    "regularized_incomplete_beta",
    "regularized_lower_gamma",
    "regularized_upper_gamma",
]
