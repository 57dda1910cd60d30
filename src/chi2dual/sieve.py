"""The standardized test for countably many linear constraints.

The family size grows with n as k(n) = d * ``default_m(n)``: the marginal
test puts ``default_m(n)`` cuts per coordinate.  ``sieve_test`` runs on a
given family of k functions.  With k growing, n * chi2_n concentrates
around k, so the test statistic is the standardized value
(n * chi2_n - k) / sqrt(2k), compared against the standard normal upper
tail.  The uniform grids of successive sizes refine rather than extend one
another, so the families are not nested.

The admissible growth of k(n) is governed by two sequences involving the
smallest covariance eigenvalue lambda_1(k) and the Gaussian-bridge coupling
rate delta_n of the function class.  Nothing here evaluates them: the
results are asymptotic and give no finite-n certificate, so the rate check
is a test (``tests/reference.py``).  It shows that the default marginal
rule, k = d * ceil(n^(1/4)) with lambda_1 = (m+1)^(-2), has a
covariance-error sequence k^(3/2) / (lambda_1 sqrt(n)) that grows like
n^(3/8) (ROADMAP item 4).
"""

from __future__ import annotations

import math

from .core import ConstraintFamily, MomentVectors, Sample, chi2_quadratic, moment_vectors
from .errors import InvalidInput
from .linear import STD_NORMAL, TestReport, _check_level


def default_m(n: int) -> int:
    """Default per-coordinate family size: max(2, ceil(n^(1/4))), in exact integers."""
    if n < 1:
        raise InvalidInput(f"sample size must be >= 1, got {n}")
    return max(2, math.isqrt(math.isqrt(n - 1)) + 1)  # floor((n-1)^(1/4)) + 1 = ceil(n^(1/4))


def sieve_test(sample: Sample, fam: ConstraintFamily, alpha: float) -> TestReport:
    """Standardize the family's statistic and test one-sided.

    Rejection is for large positive values only: away from the null the
    standardized statistic drifts to +infinity.
    """
    alpha = _check_level(alpha)
    return _sieve_report(moment_vectors(sample, fam), alpha)


def _sieve_report(mv: MomentVectors, alpha: float, **extra: float) -> TestReport:
    """One-sided report on (n * chi2_n - k) / sqrt(2k) at a checked level ``alpha``;
    ``extra`` diagnostics follow the sieve's own."""
    chi2 = chi2_quadratic(mv)
    statistic = (mv.n * chi2 - mv.k) / math.sqrt(2.0 * mv.k)
    diagnostics = {
        "k": float(mv.k),
        "n": float(mv.n),
        "chi2_value": chi2,
        "scaled_statistic": float(mv.n * chi2),
        **extra,
    }
    return TestReport(float(statistic), STD_NORMAL, 1.0, alpha, diagnostics)
