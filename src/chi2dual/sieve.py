"""Growing constraint families for countably many linear constraints.

A sieve plan maps the sample size to a family size k(n) and builds nested
families (each family's functions form a prefix of the next).  With k
growing, n * chi2_n concentrates around k, so the test statistic is the
standardized value (n * chi2_n - k) / sqrt(2k), compared against the
standard normal upper tail.

The admissible growth of k(n) is governed by two sequences involving the
smallest covariance eigenvalue lambda_1(k) and the Gaussian-bridge coupling
rate delta_n of the function class; ``check_rate_conditions`` evaluates
them on a grid of sample sizes and warns when they fail to decrease.  The
check is advisory: the underlying results are asymptotic and give no
finite-n certificate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

from .core import ConstraintFamily, Sample, chi2_quadratic, moment_vectors
from .errors import InvalidInput, MissingBound, RateConditionWarning
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
    first k' functions of the family for k.  ``lambda1_lower_bound`` maps k
    to a problem-specific lower bound on the smallest eigenvalue of the
    constraint covariance; ``bridge_rate`` maps n to the coupling rate
    delta_n of the function class.  Both are optional and only needed by
    the rate checker.
    """

    k_of_n: Callable[[int], int]
    family_builder: Callable[[int], ConstraintFamily]
    lambda1_lower_bound: Callable[[int], float] | None = None
    bridge_rate: Callable[[int], float] | None = None


def _chi2_and_standardized(sample: Sample, fam: ConstraintFamily) -> tuple[float, float]:
    """chi2_n and (n * chi2_n - k) / sqrt(2k) for the given finite family."""
    chi2 = chi2_quadratic(moment_vectors(sample, fam))
    return chi2, (sample.n * chi2 - fam.k) / math.sqrt(2.0 * fam.k)


def standardized_statistic(sample: Sample, fam: ConstraintFamily) -> float:
    """(n * chi2_n - k) / sqrt(2k) for the given finite family."""
    return _chi2_and_standardized(sample, fam)[1]


@dataclass(frozen=True)
class RateConditionReport:
    """Advisory evaluation of the two growth-rate sequences on an n grid.

    ``eigen_seq`` is lambda_1(k)^(-1/2) k^(1/2) delta_n log n (controls the
    normal approximation); ``covariance_seq`` is lambda_1(k)^(-1) k^(3/2)
    n^(-1/2) (controls the empirical-covariance error).  Both must tend to
    zero for the standardized statistic to be asymptotically standard
    normal.
    """

    n_grid: tuple[int, ...]
    k_values: tuple[int, ...]
    eigen_seq: tuple[float, ...]
    covariance_seq: tuple[float, ...]
    eigen_decreasing: bool
    covariance_decreasing: bool
    flags: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.flags


def check_rate_conditions(plan: SievePlan, n_grid: list[int]) -> RateConditionReport:
    """Evaluate both rate sequences on ``n_grid`` and flag growth.

    Purely advisory; emits RateConditionWarning for each non-decreasing
    sequence rather than raising.
    """
    if plan.lambda1_lower_bound is None:
        raise MissingBound("plan has no lambda1_lower_bound rule")
    if plan.bridge_rate is None:
        raise MissingBound("plan has no bridge_rate rule")
    if len(n_grid) < 2:
        raise InvalidInput("need at least two sample sizes to assess monotonicity")
    ns = sorted(int(n) for n in n_grid)
    ks, eigen_seq, cov_seq = [], [], []
    for n in ns:
        k = int(plan.k_of_n(n))
        lam = float(plan.lambda1_lower_bound(k))
        if lam <= 0.0:
            raise InvalidInput(f"lambda1 bound must be positive, got {lam} at k={k}")
        delta = float(plan.bridge_rate(n))
        ks.append(k)
        eigen_seq.append(lam ** -0.5 * k ** 0.5 * delta * math.log(n))
        cov_seq.append(k ** 1.5 / (lam * math.sqrt(n)))
    eigen_dec = all(b <= a for a, b in zip(eigen_seq, eigen_seq[1:]))
    cov_dec = all(b <= a for a, b in zip(cov_seq, cov_seq[1:]))
    flags = []
    if not eigen_dec:
        flags.append("normal-approximation sequence not decreasing on the grid")
    if not cov_dec:
        flags.append("covariance-error sequence not decreasing on the grid")
    for message in flags:
        warnings.warn(message, RateConditionWarning, stacklevel=2)
    return RateConditionReport(
        n_grid=tuple(ns),
        k_values=tuple(ks),
        eigen_seq=tuple(eigen_seq),
        covariance_seq=tuple(cov_seq),
        eigen_decreasing=eigen_dec,
        covariance_decreasing=cov_dec,
        flags=tuple(flags),
    )


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
    chi2, statistic = _chi2_and_standardized(sample, fam)
    p_value = 1.0 - normal_cdf(statistic)
    diagnostics = {
        "k": float(k),
        "n": float(sample.n),
        "chi2_value": chi2,
        "scaled_statistic": float(sample.n * chi2),
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
