"""Growing constraint families for countably many linear constraints.

A sieve plan maps the sample size to a family size k(n) and builds nested
families (each family's functions form a prefix of the next).  With k
growing, n * chi2_n concentrates around k, so the test statistic is the
standardized value (n * chi2_n - k) / sqrt(2k), compared against the
standard normal upper tail.

The admissible growth of k(n) is governed by two sequences involving the
smallest covariance eigenvalue lambda_1(k) and the Gaussian-bridge coupling
rate delta_n of the function class.  Nothing here evaluates them: the
results are asymptotic and give no finite-n certificate, so the rate check
is a test (``tests/reference.py``).  It shows that the default marginal plan,
k = d * ceil(n^(1/4)) with lambda_1 = (m+1)^(-2), has a covariance-error
sequence k^(3/2) / (lambda_1 sqrt(n)) that grows like n^(3/8) (ROADMAP
item 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import ConstraintFamily, MomentVectors, Sample, chi2_quadratic, moment_vectors
from .errors import InvalidInput
from .linear import STD_NORMAL, TestReport, _check_level, normal_cdf


def default_m(n: int) -> int:
    """Default per-coordinate family size: max(2, ceil(n^(1/4)))."""
    if n < 1:
        raise InvalidInput(f"sample size must be >= 1, got {n}")
    return max(2, math.ceil(n ** 0.25 - 1e-9))


@dataclass(frozen=True)
class SievePlan:
    """How a family grows with n.

    ``k_of_n`` must be nondecreasing and ``family_builder(k)`` must return
    nested families: the functions of the family for k' < k are exactly the
    first k' functions of the family for k.
    """

    k_of_n: Callable[[int], int]
    family_builder: Callable[[int], ConstraintFamily]


def sieve_test(sample: Sample, plan: SievePlan, alpha: float) -> TestReport:
    """Build the family for k(n), standardize, and test one-sided.

    Rejection is for large positive values only: away from the null the
    standardized statistic drifts to +infinity.
    """
    alpha = _check_level(alpha)
    k = int(plan.k_of_n(sample.n))
    fam = plan.family_builder(k)
    if fam.k != k:
        raise InvalidInput(f"family builder returned k={fam.k}, expected {k}")
    return _sieve_report(moment_vectors(sample, fam), alpha)


def _sieve_report(mv: MomentVectors, alpha: float) -> TestReport:
    """One-sided report on (n * chi2_n - k) / sqrt(2k) at a checked level ``alpha``."""
    chi2 = chi2_quadratic(mv)
    statistic = (mv.n * chi2 - mv.k) / math.sqrt(2.0 * mv.k)
    p_value = 1.0 - normal_cdf(statistic)
    diagnostics = {
        "k": float(mv.k),
        "n": float(mv.n),
        "chi2_value": chi2,
        "scaled_statistic": float(mv.n * chi2),
    }
    return TestReport(
        statistic=float(statistic),
        df_or_sd=1.0,
        reference_law=STD_NORMAL,
        p_value=p_value,
        alpha=alpha,
        reject=p_value < alpha,
        diagnostics=diagnostics,
    )
