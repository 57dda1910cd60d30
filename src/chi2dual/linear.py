"""Hypothesis test for a finite set of linear moment constraints, and the
report and reference laws that all three tests share.

Under the null (all constraint moments correct) n * chi2_n follows a
chi-square law with k degrees of freedom, so the test rejects for large
values of the scaled quadratic form.  Away from the null the estimate is
asymptotically normal around the population divergence; that normal
confidence interval is attached as a diagnostic, never used for the
decision.

``TestReport`` is the outcome of all three tests.  Its p-value and its CDF
come from ``_LAWS``, which holds each reference law as a (CDF, upper tail)
pair: chi-square(k) for the linear test, chi-square(1) for the
contamination test, and the standard normal for the marginal sieve test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .core import (
    ConstraintFamily,
    Sample,
    dual_coefficients,
    h1_variance,
    moment_vectors,
)
from .errors import InvalidLevel

CHI_SQUARED = "chi_squared"
STD_NORMAL = "std_normal"


# reference law -> (CDF, upper tail), each at (value, df); the standard
# normal ignores df, which it reports as its standard deviation 1.0.  The
# chi-square pair reads t < 0 as 0, where gammainc and gammaincc are exactly
# 0 and 1; below 0 they return nan
_LAWS = {
    CHI_SQUARED: (
        lambda t, k: scipy.special.gammainc(k / 2.0, max(t, 0.0) / 2.0),
        lambda t, k: scipy.special.gammaincc(k / 2.0, max(t, 0.0) / 2.0),
    ),
    STD_NORMAL: (
        lambda z, _: scipy.special.ndtr(z),
        lambda z, _: 1.0 - scipy.special.ndtr(z),
    ),
}


@dataclass(frozen=True)
class TestReport:
    """Outcome of one hypothesis test.

    Built from the statistic, a reference law named in ``_LAWS`` and its
    ``df_or_sd`` (degrees of freedom of a chi-square law, standard deviation
    1.0 of the standard normal).  ``p_value`` is that law's upper tail at the
    statistic, ``reject`` the strict comparison p_value < alpha, and ``cdf``
    the law's CDF, which calibration measures many statistics against.
    """

    statistic: float
    reference_law: str
    df_or_sd: float
    alpha: float
    diagnostics: dict = field(default_factory=dict)
    p_value: float = field(init=False)
    reject: bool = field(init=False)

    def __post_init__(self) -> None:
        p_value = float(_LAWS[self.reference_law][1](self.statistic, self.df_or_sd))
        object.__setattr__(self, "p_value", p_value)
        object.__setattr__(self, "reject", p_value < self.alpha)

    def cdf(self, value: float) -> float:
        """CDF of the report's reference law at ``value``."""
        return float(_LAWS[self.reference_law][0](value, self.df_or_sd))

    def to_json_dict(self) -> dict:
        """Wire format with the documented field names and order."""
        return {
            "statistic": self.statistic,
            "reference_law": self.reference_law,
            "df": self.df_or_sd,
            "p_value": self.p_value,
            "alpha": self.alpha,
            "reject": self.reject,
            "diagnostics": dict(self.diagnostics),
        }


def _check_level(alpha: float) -> float:
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise InvalidLevel(f"test level must lie in (0, 1), got {alpha}")
    return float(alpha)


def test_linear(sample: Sample, fam: ConstraintFamily, alpha: float) -> TestReport:
    """Test whether the sampling law satisfies all constraint moments.

    The statistic is n * chi2_n with an upper-tail chi-square(k) p-value.
    Diagnostics carry the dual condition number and a (1 - alpha) normal
    interval for the population divergence based on the plug-in variance,
    which is informative only away from the null.
    """
    alpha = _check_level(alpha)
    mv = moment_vectors(sample, fam)
    dual = dual_coefficients(mv)
    statistic = sample.n * dual.chi2_value
    variance = h1_variance(sample, dual, fam)
    half_width = scipy.special.ndtri(1.0 - alpha / 2.0) * np.sqrt(
        max(variance, 0.0) / sample.n
    )
    diagnostics = {
        "condition_number": dual.condition_number,
        "k": float(fam.k),
        "n": float(sample.n),
        "chi2_value": dual.chi2_value,
        "h1_variance": variance,
        "h1_ci_low": dual.chi2_value - half_width,
        "h1_ci_high": dual.chi2_value + half_width,
    }
    return TestReport(float(statistic), CHI_SQUARED, float(fam.k), alpha, diagnostics)
