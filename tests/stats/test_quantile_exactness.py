"""The two quantiles stay exact at the served dimensions and merge alphas.

The merge loop relaxes alpha down to 1e-6, where a quantile solved from
``1 - alpha`` keeps only about ten significant digits of the tail.  Each
quantile is pushed back through scipy's upper-tail CDF and must return
its own alpha to within 1e-12 relative.
"""

from __future__ import annotations

import pytest
from scipy.special import chdtrc, fdtrc

from repro.stats.chi2 import effective_radius
from repro.stats.fdist import f_upper_quantile

ALPHAS = [1e-3, 1e-6]
DIMENSIONS = [16, 32, 64]


@pytest.mark.parametrize("p", DIMENSIONS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_chi2_radius_returns_its_alpha(alpha, p):
    tail = chdtrc(p, effective_radius(p, alpha))
    assert abs(tail / alpha - 1.0) < 1e-12


@pytest.mark.parametrize("p", DIMENSIONS)
@pytest.mark.parametrize("df2_of", ["p", "2p", "100"])
@pytest.mark.parametrize("alpha", ALPHAS)
def test_f_quantile_returns_its_alpha(alpha, df2_of, p):
    df2 = {"p": p, "2p": 2 * p, "100": 100}[df2_of]
    tail = fdtrc(p, df2, f_upper_quantile(alpha, p, df2))
    assert abs(tail / alpha - 1.0) < 1e-12
