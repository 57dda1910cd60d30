"""Parametric test of exponential data against heavy-tail contamination.

The null states that the data density is exponential with unknown rate in a
compact interval; the alternative mixes the exponential with a Pareto-type
outlier density in proportion lambda > 0.  The test statistic is the dual
divergence estimate

    n * inf_alpha  sup_(theta, lambda)  [ int g f_alpha dx - T(g, P_n) ],

with g = 2 (f_alpha / h(theta, lambda) - 1) and h the mixture density.
The inf and sup may be nested in either order; ``tests/reference.py``
checks the commutation numerically.

What the search covers: the mixing box is ``[0, lambda_hi)``, the null
lambda = 0 on its edge (the boundary setting of Chernoff 1954 and Self &
Liang 1987).  Admissibility is analytic: h is positive on (0, inf) for
every lambda in [0, 1), and for every lambda < 0 the Pareto term outlasts
the exponential, so h turns negative far out, whatever the nodes see.  At rate
alpha the search box is [theta_lo, min(theta_hi, 1.5 alpha)] x [0, lambda_hi)
(``THETA_CAP``): on lambda = 0 the model integral 2 alpha^2 / (theta (2 alpha
- theta)) - 2 is unbounded as theta -> 2 alpha, while below the cap
h >= (1 - lambda) theta e^(-theta x) keeps it finite.  Under the null,
(f_alpha / f_theta)^2 has a finite mean only while theta < 1.5 alpha, which
the plug-in step of the dual representation needs (Broniatowski & Keziou,
J. Multivariate Anal. 2009).  ``model_integral`` takes any point.

The p-value is taken from chi-square with one degree of freedom (one free
parameter).  That reference law is not calibrated: under the null the
statistic sits at the lambda = 0 edge of what the search admits, and the
``contam_null`` scenario (n = 200, 40 replicates, seed 7) puts it at KS
distance 0.600 from chi-square(1), with 23 of the 40 statistics exactly 0.

Numerical layout: the model integral reduces to int f_alpha^2 / h, closed
form below the Pareto onset nu.  Above it, in the capped box, h >= (1 -
lambda) theta e^(-theta x) bounds every tail, so one truncation point X
from the worst corner of every rate's box (rate theta_lo / 1.5) serves the
whole spec, each point's tail above it added in closed form.  [nu, X] is
cut into graded panels, the first nu / (gamma + 1) wide and each next twice
as wide, with Gauss-Legendre rules of 28 and 36 nodes that must agree to
``QUAD_TOLERANCE``; the box points of a batch take one pass whatever their
rates.  Other points go to ``scipy.integrate.quad``, imported on first use.
lambda outside [0, 1) or theta <= 0 is refused by rule, and a divergent
integral (lambda = 0, theta >= 2 alpha) is outside the dual class.  On the
sample, ``_density_ratio`` divides alpha by h e^(alpha x) term by term, so
that a far observation does not give 0 / 0.  ``model_integral`` and
``dual_objective_contam`` are one-row calls of the search's objective: n *
dual_objective_contam at the reported optimum is the statistic exactly.

Search: the profile's first rates take a grid (with the lambda = 0 line and
the null point adjoined; cached with its model integrals at the coarse
rates), later ones the optima of their nearest evaluated neighbours and the
null point, to seed projected Newton ascent, the derivatives summed on the
rule's nodes and the sample (``_slopes``).  On the lambda = 0 face
d/dlambda is -inf wherever theta > alpha, so a search there moves theta
alone while d/dlambda <= 0.  The anchor (alpha, 0) is exactly 0 (f_alpha /
h = 1 on the sample, model integral 2 alpha^2 / alpha^2 - 2), so the
statistic is >= 0 with no clamp, and exactly 0 when the anchor wins at the
MLE 1/mean(x).  The inf over alpha takes a coarse grid of rates and the
MLE, then safeguarded parabolic steps around the best rate (midpoints where
the parabola misleads) until the best value is 0 but for rounding or the
bracket is within ``alpha_tol``.  One routine, ``_chi2_lockstep``, searches
the rates evaluated together: one objective call per rate's candidates, one
for all the rates' starts and one per Newton round.

Standing model assumptions (identifiability of the exponential/Pareto pair,
Glivenko-Cantelli regularity, smoothness in theta, domination near the null
point) are documented preconditions; only identifiability (gamma > 1,
nu > 1) and density positivity are checkable and enforced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from .core import Sample, legendre_batch
from .errors import (
    InvalidInput,
    InvalidSpec,
    NonPositiveDensity,
    OptimizationFailure,
    QuadratureFailure,
)
from .linear import CHI_SQUARED, TestReport, _check_level

# Truncate the model integral where the tail bound of every point of the
# capped box drops below this level; each point's tail is added in closed form.
TAIL_TOLERANCE = 1e-15
# Quadrature error target; the inf-sup/sup-inf check keeps its own tolerance in tests/reference.py.
QUAD_TOLERANCE = 1e-10
# the inner search at rate alpha keeps theta <= 1.5 alpha (module docstring)
THETA_CAP = 1.5
# Gauss-Legendre nodes and weights on [0, 1] of the two rules compared on every panel
_GL_RULES = [((t + 1.0) / 2.0, w / 2.0) for t, w in map(np.polynomial.legendre.leggauss, (28, 36))]


@dataclass(frozen=True)
class ContaminationSpec:
    """Exponential base family on [theta_lo, theta_hi] with a Pareto contaminant.

    The mixing weight lies in [lambda_lo, lambda_hi), lambda_lo the constant
    0 and 0 < lambda_hi < 1; gamma > 1 and nu > 1 make the
    exponential/Pareto pair identifiable, and the Pareto density
    gamma nu^gamma x^(-gamma - 1) needs a finite scale gamma nu^gamma.
    """

    lambda_lo: ClassVar[float] = 0.0

    theta_lo: float
    theta_hi: float
    lambda_hi: float = 0.75
    pareto_gamma: float = 2.0
    pareto_nu: float = 1.5

    def __post_init__(self) -> None:
        # equality is tolerated: a degenerate interval pins the null rate,
        # which collapses the profile step (useful for cross-checks)
        if not (0.0 < self.theta_lo <= self.theta_hi < math.inf):
            raise InvalidSpec(
                "rate interval must satisfy 0 < theta_lo <= theta_hi, got "
                f"theta_lo={self.theta_lo}, theta_hi={self.theta_hi}"
            )
        if not (0.0 < self.lambda_hi < 1.0):
            raise InvalidSpec(
                "mixing interval [0, lambda_hi) must satisfy 0 < lambda_hi < 1, "
                f"got lambda_hi={self.lambda_hi}"
            )
        gamma, nu = self.pareto_gamma, self.pareto_nu
        if not (gamma > 1.0 and nu > 1.0):
            raise InvalidSpec(
                f"identifiability requires gamma > 1 and nu > 1, got gamma={gamma}, nu={nu}"
            )
        try:
            scale = gamma * nu**gamma
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise InvalidSpec(
                "the Pareto density needs finite gamma, nu and gamma * nu^gamma, "
                f"got gamma={gamma}, nu={nu}"
            )


def pareto_pdf(x: np.ndarray, gamma: float, nu: float) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=float))
    above = x > nu
    out[above] = gamma * nu**gamma * x[above] ** (-(gamma + 1.0))
    return out


def _density_ratio(
    x: np.ndarray, alpha, theta, lam, r_x: np.ndarray, e_x: np.ndarray
) -> np.ndarray:
    """f_alpha(x) / h(x) for x >= 0, given r_x = r(x) and e_x = e^(alpha x),
    with h the mixture density (1 - lambda) theta e^(-theta x) + lambda r(x).

    Computed as alpha / ((1 - lambda) theta e^((alpha - theta) x) + lambda r(x) e^(alpha x)),
    with the lambda term 0 where lambda = 0: far in the tail f_alpha and the
    exponential part of h both underflow, and the quotient of the two
    densities would be 0 / 0.  The caller holds the floating-point errstate.
    """
    contaminant = np.where(lam == 0.0, 0.0, lam * r_x * e_x)
    return alpha / ((1.0 - lam) * theta * np.exp((alpha - theta) * x) + contaminant)


@dataclass(frozen=True)
class DualGFunction:
    """Dual candidate g = 2 (f_alpha / h(theta, lambda) - 1), f_alpha the
    exponential density at the profiled null rate ``alpha``: the point that
    ``model_integral`` and ``dual_objective_contam`` evaluate."""

    alpha: float
    theta: float
    lam: float
    spec: ContaminationSpec

    def __post_init__(self) -> None:
        # a NaN or infinite parameter would pass every admissibility check
        # and only fail inside the quadrature
        for name in ("alpha", "theta", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"{name} must be finite, got {getattr(self, name)}")
        if not self.alpha > 0.0:
            raise InvalidInput(f"alpha must be > 0, got {self.alpha}")


def _theta_top(alpha, spec: ContaminationSpec):
    """The top theta of the capped box at rate(s) ``alpha``: min(theta_hi, 1.5 alpha)."""
    return np.minimum(spec.theta_hi, THETA_CAP * alpha)


# ---------------------------------------------------------------------------
# Model integral int g f_alpha dx = amp * int e^(-s x) / h dx - 2,
# with s = 2 alpha and amp = 2 alpha^2.

def _quad_integral(alpha: float, theta: float, lam: float, spec: ContaminationSpec) -> float:
    """amp int e^(-s x) / h over [nu, inf) by ``scipy.integrate.quad``,
    imported here so that the search inside the box never loads it."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    gamma, nu, s = spec.pareto_gamma, spec.pareto_nu, 2.0 * alpha
    log_exp = math.log((1.0 - lam) * theta)
    log_pareto = math.log(lam * gamma) + gamma * math.log(nu)

    def logs(x: float) -> tuple[float, float]:
        # the logs of the two terms of e^(s x) h, which cannot overflow
        return log_exp + (s - theta) * x, log_pareto - (gamma + 1.0) * math.log(x) + s * x

    def integrand(x: float) -> float:
        a, b = logs(x)
        return s * alpha * math.exp(-max(a, b)) / (1.0 + math.exp(-abs(a - b)))

    def slope(x: float) -> float:  # of log(integrand); log(e^a + e^b) is convex
        a, b = logs(x)
        share = 0.5 + 0.5 * math.tanh(0.5 * (a - b))  # of e^a in e^a + e^b
        return share * theta + (1.0 - share) * (gamma + 1.0) / x - s

    # the integrand is log-concave: quad runs up to its one peak through the
    # breaks of graded panels, which keep the Pareto onset in view, and on
    # from the peak, so that it cannot step over a peak far out
    lo = peak = nu
    while slope(peak) > 0.0:
        lo, peak = peak, 2.0 * peak
    for _ in range(60 if peak > lo else 0):
        mid = 0.5 * (lo + peak)
        lo, peak = (mid, peak) if slope(mid) > 0.0 else (lo, mid)
    breaks = [nu + nu / (gamma + 1.0) * (2.0**k - 1.0) for k in range(1, 48)]
    breaks = [x for x in breaks if x < peak]
    opts = dict(epsabs=0.25 * QUAD_TOLERANCE, epsrel=1e-13, limit=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            head = quad(integrand, nu, peak, points=breaks, **opts)[0] if peak > nu else 0.0
            return head + quad(integrand, peak, math.inf, **opts)[0]
        except (IntegrationWarning, OverflowError) as exc:
            raise QuadratureFailure(
                f"model integral at alpha={alpha}, theta={theta}, lambda={lam} "
                f"did not reach the error target {QUAD_TOLERANCE:g}: {exc}"
            ) from exc


def _row(g: DualGFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g's point as the one row of an ``_InnerObjective`` at the rate g.alpha."""
    return np.zeros(1, dtype=int), np.array([g.theta]), np.array([g.lam])


def model_integral(g: DualGFunction) -> float:
    """int g(x) f_alpha(x) dx over (0, inf).

    Computed by the search's objective at the one rate alpha on an empty
    sample (module docstring), so that a point the search evaluates gets the
    same float here.  Returns +inf when the integral diverges (the candidate
    is outside the admissible dual class).  Raises NonPositiveDensity when
    lambda lies outside [0, 1) or theta <= 0, where the mixture density is
    not positive on all of (0, inf), and QuadratureFailure when
    ``scipy.integrate.quad``, which takes the points outside the capped box,
    warns that it missed the error target.
    """
    value = _InnerObjective(np.empty(0), [g.alpha], g.spec).integrals(*_row(g))[0][0]
    if np.isnan(value):
        raise NonPositiveDensity(
            f"mixture density not positive on (0, inf) at theta={g.theta}, lambda={g.lam}"
        )
    return float(value)


def dual_objective_contam(g: DualGFunction, sample: Sample) -> float:
    """Dual objective: model integral minus the sample conjugate value of g,
    by the search's objective at the one rate alpha on the sample.  +inf and
    errors as ``model_integral``; InvalidInput where mean(g + g^2 / 4) is not
    finite (h underflows against f_alpha at a far observation)."""
    x, integral = _require_positive_data(sample), model_integral(g)
    value = _InnerObjective(x, [g.alpha], g.spec).values(*_row(g), np.array([integral]))[0][0]
    if np.isnan(value) and math.isfinite(integral):  # the objective maps non-finite values to NaN
        raise InvalidInput(
            f"dual objective not finite on the sample at alpha={g.alpha}, "
            f"theta={g.theta}, lambda={g.lam}: h underflows against f_alpha"
        )
    return float(value) if math.isfinite(integral) else integral


def _require_positive_data(sample: Sample) -> np.ndarray:
    if sample.d != 1:
        raise InvalidInput(f"contamination test is univariate, got d={sample.d}")
    x = sample.data[:, 0]
    if np.any(x <= 0.0):
        raise InvalidInput("exponential support violated: nonpositive observations")
    return x


# ---------------------------------------------------------------------------
# Search machinery

@dataclass(frozen=True)
class SearchSettings:
    """Knobs for the nested optimization; defaults match the documented design.

    ``inner_grid`` points per (theta, lambda) axis and projected Newton
    refinement from the ``nm_starts`` best (in ``chi2_simple`` and at the
    profile's first rates), ``nm_max_evals`` evaluations each;
    ``outer_coarse`` rate points and the MLE, then safeguarded parabolic
    steps around the best rate to ``alpha_tol`` of the rate interval.  The
    inf-sup/sup-inf check in ``tests/reference.py`` reads the same knobs.
    """

    inner_grid: int = 8
    nm_starts: int = 3
    nm_max_evals: int = 60
    outer_coarse: int = 5
    alpha_tol: float = 2e-3

    def __post_init__(self) -> None:
        # a coarse grid of one rate profiles theta_lo alone, and a
        # tolerance that is not positive steps down to adjacent floats
        for name, least in (
            ("inner_grid", 1), ("nm_starts", 0), ("nm_max_evals", 0), ("outer_coarse", 2)
        ):
            if not getattr(self, name) >= least:
                raise InvalidInput(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not 0.0 < self.alpha_tol < math.inf:
            raise InvalidInput(f"alpha_tol must be finite and > 0, got {self.alpha_tol!r}")


# projected Newton (``_projected_newton``): stops, value rounding, face probe
_GRADIENT_TOLERANCE = 1e-9
_STEP_TOLERANCE = 1e-10
_ROUNDING = 1e-14
_PROBE = 1e-3


@functools.lru_cache(maxsize=8)
def _spec_layout(spec: ContaminationSpec) -> tuple:
    """The spec's graded rule, shared read-only: X, the ends of the 28- and
    36-node rules, and all nodes, weights and Pareto densities, the 36-node
    rule on [0, nu] last (for the derivatives only)."""
    gamma, nu = spec.pareto_gamma, spec.pareto_nu
    # a box point's tail bound amp e^(-c x) / ((1 - lambda) theta c) is
    # largest at the lowest rate with a box, alpha = theta_lo / 1.5, its
    # corner theta_lo, lambda -> lambda_hi and c = alpha / 2
    low = spec.theta_lo / THETA_CAP
    c = 0.5 * low
    corner = (1.0 - spec.lambda_hi) * spec.theta_lo
    log_scale = math.log(2.0 / corner) + 2.0 * math.log(low)
    first = nu / (gamma + 1.0)
    x_cut = max((log_scale - math.log(TAIL_TOLERANCE * c)) / c, nu + first)
    panels = math.ceil(math.log2((x_cut - nu) / first + 1.0))
    breaks = np.minimum(nu + first * (2.0 ** np.arange(panels + 1) - 1.0), x_cut)
    breaks[-1] = x_cut
    lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
    rules = [((lo + width * t).ravel(), (width * w).ravel()) for t, w in _GL_RULES]
    rules.append((nu * _GL_RULES[1][0], nu * _GL_RULES[1][1]))
    nodes, weights = (np.concatenate(column) for column in zip(*rules))
    pareto = pareto_pdf(nodes, gamma, nu)
    for a in (nodes, weights, pareto):
        a.flags.writeable = False
    return x_cut, rules[0][0].size, nodes.size - rules[-1][0].size, nodes, weights, pareto


class _InnerObjective:
    """sup-side objective over (theta, lambda) at each rate of ``alphas``:
    per rate, e^(alpha x) at the sample and the rule's weights times amp
    e^(-s x) are precomputed, so a point costs one exp over the sample plus
    h at the rule's nodes (``_spec_layout``)."""

    def __init__(self, x: np.ndarray, alphas: Iterable[float], spec: ContaminationSpec) -> None:
        self.x = x
        self.alphas = np.array(alphas, dtype=float)
        self.spec = spec
        self.r_x = pareto_pdf(x, spec.pareto_gamma, spec.pareto_nu)
        self.x_cut, self.split, self.fine, self.nodes, weights, self.pareto = _spec_layout(spec)
        # the columns of ``_slopes``: the 36-node rule's and the segment's nodes, then the sample
        self.columns = np.concatenate((self.nodes[self.split :], x))
        self.multiplier = np.repeat([2.0, 3.0], [self.nodes.size - self.split, x.size])
        s = 2.0 * self.alphas[:, None]
        with np.errstate(over="ignore"):
            self.e_x = np.exp(self.alphas[:, None] * x)
            self.p_x = self.r_x * self.e_x  # r e^(alpha x), 0 below nu
            self.weights = weights * (s * self.alphas[:, None]) * np.exp(-s * self.nodes)
        self.evaluations = np.zeros(self.alphas.size, dtype=int)

    def integrals(
        self, rates: np.ndarray, thetas: np.ndarray, lams: np.ndarray, slopes: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Model integral at (alphas[rates], thetas, lams): +inf where it
        diverges (lambda = 0, theta >= s), NaN where the point is refused
        (lambda outside [0, 1) or theta <= 0).  The box rows of every rate take
        the rule in one pass, each row summed on its own, so that its value
        does not depend on the batch; the finer sum serves where the two agree.
        Raises QuadratureFailure where ``scipy.integrate.quad``, which takes
        the other rows, misses its target.  Then, with ``slopes``, the box rows
        (lambda = 0 included) and there weight / h and r / h at the 36-node
        rule's and the segment's nodes (the tail has none: below
        ``TAIL_TOLERANCE``)."""
        spec, alphas, nu = self.spec, self.alphas[rates], self.spec.pareto_nu
        s = 2.0 * alphas
        amp = s * alphas
        out = np.full(thetas.shape[0], np.nan)

        invalid = (lams < 0.0) | (lams >= 1.0) | (thetas <= 0.0)
        zero = lams == 0.0
        box = ~invalid & (thetas >= spec.theta_lo) & (thetas <= _theta_top(alphas, spec))
        box = (box & (lams < spec.lambda_hi) & (slopes | ~zero)).nonzero()[0]
        th, lm, end, r_h = thetas[box], lams[box], None if slopes else self.fine, None
        value = np.full(out.size, np.nan)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            closed = np.where(thetas >= s, np.inf, amp / (thetas * (s - thetas)) - 2.0)
            out[zero & ~invalid] = closed[zero & ~invalid]
            c = s - thetas
            scale = amp / ((1.0 - lams) * thetas)
            # closed-form segment below the Pareto onset: h is purely exponential
            flat = c == 0.0
            seg0 = -np.expm1(-c * nu) / np.where(flat, 1.0, c)
            seg0[flat] = nu
            h = np.exp(np.multiply(-th[:, None], self.nodes[:end]))
            h *= ((1.0 - lm) * th)[:, None]
            h += lm[:, None] * self.pareto[:end]
            vals = self.weights[rates[box], :end] / h
            coarse = vals[:, : self.split].sum(axis=1)
            fine = vals[:, self.split : self.fine].sum(axis=1)
            # relative floor: absolute targets below float64 roundoff are
            # unreachable once the integral itself is large
            limit = np.maximum(0.5 * QUAD_TOLERANCE, 1e-13 * np.abs(fine))
            tail = scale[box] * np.exp(-c[box] * self.x_cut) / c[box]
            value[box] = np.where(np.abs(fine - coarse) < limit, fine, np.nan) + tail
            if slopes:  # a node where weight / h underflows to 0 (or is 0 / 0) adds nothing
                vals, r_h = vals[:, self.split :], self.pareto[self.split :] / h[:, self.split :]
                vals, r_h = np.where(vals > 0.0, vals, 0.0), np.where(vals > 0.0, r_h, 0.0)
        # the lambda = 0 box rows take the rule for their derivatives only
        idx = (~(invalid | zero)).nonzero()[0]
        for i in idx[np.isnan(value[idx])].tolist():
            value[i] = _quad_integral(float(alphas[i]), float(thetas[i]), float(lams[i]), spec)
        out[idx] = scale[idx] * seg0[idx] + value[idx] - 2.0
        return out, box, vals, r_h

    def values(self, rates, thetas, lams, integrals=None) -> tuple[np.ndarray, np.ndarray]:
        """Values at (alphas[rates], thetas, lams), NaN outside the dual class,
        from the rows' model ``integrals`` if given, and f_alpha / h on the sample."""
        integrals = self.integrals(rates, thetas, lams)[0] if integrals is None else integrals
        self.evaluations += np.bincount(rates, minlength=self.alphas.size)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = _density_ratio(self.x, self.alphas[rates, None], thetas[:, None],
                                   lams[:, None], self.r_x, self.e_x[rates])
            values = integrals - legendre_batch(2.0 * (ratio - 1.0))
        values[~np.isfinite(values)] = np.nan
        return values, ratio

    def batch(self, rates, thetas, lams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``values``, gradients and Hessians in (theta, lambda), the derivatives NaN
        outside the capped box; on the sample r / h = rho r e^(alpha x) / alpha."""
        integrals, box, v_h, r_h = self.integrals(rates, thetas, lams, slopes=True)
        values, ratio = self.values(rates, thetas, lams, integrals)
        grad, hess = np.full((thetas.size, 2), np.nan), np.full((thetas.size, 2, 2), np.nan)
        ratio, alpha = ratio[box], self.alphas[rates[box], None]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            weight = np.concatenate((v_h, ratio * ratio * (-2.0 / self.x.size)), axis=1)
            sample = self.p_x[rates[box]] * (ratio / alpha)
            sample[ratio == 0.0] = 0.0
            r_h = np.concatenate((r_h, sample), axis=1)
            grad[box], hess[box] = _slopes(weight, r_h, thetas[box], lams[box], self.columns,
                                           self.multiplier)
        return values, grad, hess


def _slopes(weight, r_h, theta, lam, x, multiplier) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian in (theta, lambda) of sum_j c_j h(x_j)^-m_j, given
    weight = m c h^-m, r / h and multiplier = m + 1 at x: with q_p = h_p / h,
    -sum weight q_p and sum weight (multiplier q_p q_q - h_pq / h).  With e
    = (1 - lambda) e^(-theta x) / h = (1 - lambda r / h) / theta: q_theta =
    e (1 - theta x), q_lambda = r / h - theta e / (1 - lambda), h_thetatheta
    / h = -x (q_theta + e), h_thetalambda / h = -q_theta / (1 - lambda) and
    h_lambdalambda = 0.  ``np.einsum`` sums each row on its own (a matrix
    product would not), so no row depends on the batch."""
    e = (1.0 - lam[:, None] * r_h) / theta[:, None]
    q_t = e * (1.0 - np.multiply.outer(theta, x))
    q_l = r_h - (theta / (1.0 - lam))[:, None] * e
    m_weight = weight * multiplier
    g_t, g_l = np.einsum("ij,ij->i", weight, q_t), np.einsum("ij,ij->i", weight, q_l)
    h_tt = np.einsum("ij,ij,ij->i", m_weight, q_t, q_t)
    h_tt += np.einsum("ij,ij,j->i", weight, q_t + e, x)
    h_tl = np.einsum("ij,ij,ij->i", m_weight, q_t, q_l) + g_t / (1.0 - lam)
    h_ll = np.einsum("ij,ij,ij->i", m_weight, q_l, q_l)
    hess = np.stack((h_tt, h_tl, h_tl, h_ll), axis=1).reshape(-1, 2, 2)
    return np.stack((-g_t, -g_l), axis=1), hess


@dataclass(frozen=True)
class Chi2SimpleResult:
    """Supremum of the dual objective over the mixture parameters.

    ``start_points`` records the refinement starts (at a later rate of the
    profile, its neighbours' optima) as (theta, lambda, alpha, objective)
    tuples: the search certificate.  Slot 2 always holds the fixed rate.
    """

    value: float
    theta_hat: float
    lambda_hat: float
    start_points: tuple[tuple[float, float, float, float], ...]
    n_evaluations: int


def _candidate_grid(
    alpha: float, theta_top: float, spec: ContaminationSpec, settings: SearchSettings
) -> tuple[np.ndarray, np.ndarray]:
    g = settings.inner_grid
    thetas = np.linspace(spec.theta_lo, theta_top, g)
    # the midpoints of g cells of [0, lambda_hi) plus the lambda = 0 line,
    # where the closed form is exact and the null optimum lives
    lams = np.append(spec.lambda_hi / g * (np.arange(g) + 0.5), 0.0)
    t_grid, l_grid = np.meshgrid(thetas, lams, indexing="ij")
    # and the anchor: the exactly-null candidate (theta = alpha, lambda = 0)
    return np.append(t_grid, alpha), np.append(l_grid, 0.0)


def _starts(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` largest finite values, the first of equal ones first."""
    finite = np.flatnonzero(np.isfinite(values))
    if finite.size == 0:
        raise OptimizationFailure("no admissible candidate in the mixture-parameter grid")
    return finite[np.argsort(-values[finite], kind="stable")[:count]]


def _projected_newton(objective, rows, start, lower, upper, budget, radius):
    """Maximize from every start at once by projected Newton ascent.

    ``start`` holds points (searches x 2) with their values, gradients and
    Hessians, as ``objective(rows, thetas, lams)`` gives them for each
    round's trials.  Search i keeps to [lower, upper[i]], scaled by its
    width; a bound holds a coordinate whose derivative points out of it.
    The others step by Newton along the Hessian's concave directions and by
    steepest ascent along the rest, at most ``radius`` (max norm).  A trial
    is taken if the value rises, or stays within ``_ROUNDING`` while the
    projected gradient shrinks; the radius becomes twice the step (at most
    1), else half of it.  A search stops at a projected gradient of
    ``_GRADIENT_TOLERANCE``, a step below ``_STEP_TOLERANCE``, derivatives
    not finite or ``budget`` evaluations, but on lambda = 0 it first tries
    lambda = ``_PROBE`` box widths.  A stop on the step certifies no gradient:
    the projected gradient may stay above ``_GRADIENT_TOLERANCE`` (1.38e-9 at
    a warm-started rate of seed-7 ``contam_null`` replicate 4).  Returns
    points and values.
    """
    point, value, grad, hess = (np.array(a, dtype=float) for a in start)
    width, unit = upper - lower, np.where(upper > lower, upper - lower, 1.0)
    first, radius, evals = radius, np.full(value.size, radius), np.zeros(value.size, dtype=int)
    live, probe = np.full(value.size, budget > 0), np.full(value.size, True)
    minus_one = -np.eye(2)  # the Hessian of a held coordinate

    def scaled(point, grad, upper, width):  # the gradient in box widths, 0 where held
        held = np.where(grad > 0.0, point >= upper, point <= lower)
        return held, np.where(held, 0.0, grad * width)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            held, g = scaled(point, grad, upper, width)
            norm = np.abs(g).max(axis=1)
            h = hess * width[:, :, None] * width[:, None, :]
            h = np.where(held[:, :, None] | held[:, None, :], minus_one, h)
            live &= np.isfinite(h).all(axis=(1, 2)) & (norm > _GRADIENT_TOLERANCE)
            live &= evals < budget
            h[~live], g[~live], norm[~live] = minus_one, 0.0, 1.0
            eig, vec = np.linalg.eigh(h)
            d = np.einsum("nji,nj->ni", vec, g) / np.maximum(-eig, norm[:, None])
            d = np.einsum("nij,nj->ni", vec, d)
            length = np.abs(d).max(axis=1)
            d *= (np.minimum(length, radius) / length)[:, None]
            trial = np.clip(point + d * width, lower, upper)
            step = (np.abs(trial - point) / unit).max(axis=1)
            live &= step > _STEP_TOLERANCE
            face = ~live & probe & (point[:, 1] == lower[1]) & (evals < budget)
            trial[face], step[face] = point[face] + [0.0, _PROBE] * width[face], _PROBE
            live, probe = live | face, probe & ~face
            idx = live.nonzero()[0]
            if idx.size == 0:
                return point, value
            new = objective(rows[idx], trial[idx, 0], trial[idx, 1])
            evals[idx] += 1
            flat = new[0] >= value[idx] - _ROUNDING * np.maximum(1.0, np.abs(value[idx]))
            g_new = scaled(trial[idx], new[1], upper[idx], width[idx])[1]
            rise = (new[0] > value[idx]) | (flat & (np.abs(g_new).max(axis=1) < norm[idx]))
            radius[idx] = np.where(rise, np.minimum(1.0, 2.0 * step[idx]), 0.5 * step[idx])
            radius[idx[rise & face[idx]]] = first
            up = idx[rise]
            point[up], value[up], grad[up], hess[up] = trial[up], *(a[rise] for a in new)


@functools.lru_cache(maxsize=8)
def _coarse_grids(spec: ContaminationSpec, settings: SearchSettings) -> dict:
    """rate -> (thetas, lams, model integrals) of each ``outer_coarse`` rate's
    candidate grid: the same for every sample, so computed once, read-only."""
    grids = {}
    for alpha in map(float, np.linspace(spec.theta_lo, spec.theta_hi, settings.outer_coarse)):
        ts, ls = _candidate_grid(alpha, _theta_top(alpha, spec), spec, settings)
        inner = _InnerObjective(np.empty(0), [alpha], spec)
        grids[alpha] = ts, ls, inner.integrals(np.zeros(ts.size, dtype=int), ts, ls)[0]
        for a in grids[alpha]:
            a.flags.writeable = False
    return grids


def _chi2_lockstep(
    x: np.ndarray, alphas: list[float], spec: ContaminationSpec, settings: SearchSettings,
    evaluated: dict[float, Chi2SimpleResult] | None = None,
) -> list[Chi2SimpleResult]:
    """``chi2_simple`` at each rate of ``alphas`` in lockstep.  Each rate's
    candidates (its coarse grid, cached, or a fresh grid; with ``evaluated``,
    rate -> result, the optima of the nearest evaluated rates, theta capped,
    and the anchor) take one objective call and give its best value; then one
    ``_projected_newton`` call raises all rates' starts, a grid's ``nm_starts``
    best or the finite warm starts.  A search replaces its rate's optimum only
    when it ends strictly higher, earlier starts first."""
    inner = _InnerObjective(x, alphas, spec)
    cache, known = _coarse_grids(spec, settings), sorted(evaluated or ())
    tops, optima, start_points = _theta_top(inner.alphas, spec), [], []
    for i, (alpha, top) in enumerate(zip(alphas, tops)):
        if known:
            k = np.searchsorted(known, alpha, side="right")
            near = [evaluated[rate] for rate in known[max(k - 1, 0) : k + 1]]
            warm = [(min(r.theta_hat, top), r.lambda_hat) for r in near] + [(alpha, 0.0)]
            ts, ls, model = *np.array(warm).T, None
        else:
            ts, ls, model = cache.get(alpha) or (*_candidate_grid(alpha, top, spec, settings), None)
        values = inner.values(np.full(ts.size, i), ts, ls, model)[0]
        j = _starts(values, 1)[0]
        optima.append([float(values[j]), float(ts[j]), float(ls[j])])
        picked = (np.flatnonzero(np.isfinite(values[:-1])) if known
                  else _starts(values, settings.nm_starts))
        start_points.append(tuple(
            (float(ts[j]), float(ls[j]), float(alpha), float(values[j])) for j in picked))
    rows = np.repeat(np.arange(len(alphas)), [len(recorded) for recorded in start_points])
    if rows.size and settings.nm_max_evals > 0:
        starts = np.array([start[:2] for recorded in start_points for start in recorded])
        lam_top = np.nextafter(spec.lambda_hi, 0.0)  # below the open upper end
        points, values = _projected_newton(
            inner.batch, rows, (starts, *inner.batch(rows, starts[:, 0], starts[:, 1])),
            np.array([spec.theta_lo, 0.0]), np.stack((tops[rows], np.full(rows.size, lam_top)), 1),
            settings.nm_max_evals, 1.0 / settings.inner_grid,
        )
        for i, value, point in zip(rows.tolist(), values.tolist(), points.tolist()):
            if value > optima[i][0]:
                optima[i] = [value, *point]
    return [
        Chi2SimpleResult(*optimum, recorded, evaluations)
        for optimum, recorded, evaluations in zip(optima, start_points, inner.evaluations.tolist())
    ]


def chi2_simple(
    sample: Sample,
    alpha_fixed: float,
    spec: ContaminationSpec,
    settings: SearchSettings | None = None,
) -> Chi2SimpleResult:
    """Divergence estimate for the simple null at rate ``alpha_fixed``.

    Supremum of the dual objective over the mixture parameters with theta <=
    1.5 alpha: a coarse grid (with the lambda = 0 line and the exact null
    anchor adjoined), then projected Newton ascent from its best
    ``settings.nm_starts`` points.  The anchor is exactly 0: never negative.
    """
    settings = settings or SearchSettings()
    if not (spec.theta_lo <= alpha_fixed <= spec.theta_hi):
        raise InvalidInput(
            f"alpha={alpha_fixed} outside the rate interval "
            f"[{spec.theta_lo}, {spec.theta_hi}]"
        )
    return _chi2_lockstep(_require_positive_data(sample), [alpha_fixed], spec, settings)[0]


def _inf_sup(
    x: np.ndarray, spec: ContaminationSpec, settings: SearchSettings
) -> tuple[float, Chi2SimpleResult]:
    """The profiled rate alpha_hat and ``chi2_simple`` there: the inf over the
    rate interval of the sup over the mixture parameters.  One lockstep call
    takes ``outer_coarse`` rates and the MLE; each next one the vertex u of
    the parabola through the best rate and its neighbours a < best < b,
    clamped into [a + tol/2, b - tol/2], with u -/+ tol/2, so that a winning
    u leaves a bracket of tol.  Where the parabola is not convex (best at an
    end, or flat), the last call did not halve the bracket (a kinked or
    jagged profile) or none of these rates is new, it takes the midpoints of
    [a, best] and [best, b].  It stops at a best value of 0 but for rounding
    (the profile is >= 0), a bracket within ``alpha_tol`` of the interval,
    or no new rate."""
    lo, hi = spec.theta_lo, spec.theta_hi
    tol = settings.alpha_tol * (hi - lo)
    half = max(tol / 2.0 - math.ulp(hi), 0.0)  # u -/+ half stay within tol once rounded
    mle = min(max(1.0 / float(np.mean(x)), lo), hi)
    evaluated: dict[float, Chi2SimpleResult] = {}
    new = sorted(set(_coarse_grids(spec, settings)) | {mle})
    width = math.inf
    while True:
        evaluated.update(zip(new, _chi2_lockstep(x, new, spec, settings, evaluated)))
        rates = sorted(evaluated)
        i = min(range(len(rates)), key=lambda k: evaluated[rates[k]].value)
        a, best, b = rates[max(i - 1, 0)], rates[i], rates[min(i + 1, len(rates) - 1)]
        fa, fm, fb = (evaluated[rate].value for rate in (a, best, b))
        # r <= 0 <= q, and r < q (convex) puts the vertex inside (a, b)
        r, q = (best - a) * (fm - fb), (best - b) * (fm - fa)
        new = []
        if r < q and b - a <= width / 2.0:
            u = best - ((best - a) * r - (best - b) * q) / (2.0 * (r - q))
            u = min(max(u, a + half), b - half)
            new = [rate for rate in (u - half, u, u + half) if a < rate < b]
        new = [rate for rate in new if rate not in evaluated] or [
            rate for rate in ((a + best) / 2.0, (best + b) / 2.0) if rate not in evaluated
        ]
        width = b - a
        if fm <= _ROUNDING or width <= tol or not new:
            return best, evaluated[best]


def contamination_test(
    sample: Sample,
    spec: ContaminationSpec,
    alpha_level: float,
    settings: SearchSettings | None = None,
) -> TestReport:
    """Test exponentiality against Pareto contamination.

    Statistic: n times the profile minimum over the null rate of the
    supremum divergence; chi-square(1) upper-tail p-value.  Diagnostics
    carry the profiled rate and the best mixture parameters; the order of
    the inf and sup is checked in ``tests/reference.py``.
    """
    settings = settings or SearchSettings()
    alpha_level = _check_level(alpha_level)
    alpha_hat, at_min = _inf_sup(_require_positive_data(sample), spec, settings)
    statistic = sample.n * at_min.value
    diagnostics = {
        "alpha_hat": float(alpha_hat),
        "theta_hat": at_min.theta_hat,
        "lambda_hat": at_min.lambda_hat,
        "chi2_value": at_min.value,
        "n": float(sample.n),
    }
    return TestReport(float(statistic), CHI_SQUARED, 1.0, alpha_level, diagnostics)
