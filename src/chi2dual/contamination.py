"""Parametric test of exponential data against heavy-tail contamination.

The null states that the data density is exponential with unknown rate in a
compact interval; the alternative mixes the exponential with a Pareto-type
outlier density in proportion lambda > 0.  The test statistic is the dual
divergence estimate

    n * inf_alpha  sup_(theta, lambda)  [ int g f_alpha dx - T(g, P_n) ],

with g = 2 (f_alpha / h(theta, lambda) - 1) and h the mixture density.
The inf and sup may be nested in either order; ``minimax_gap`` verifies the
commutation numerically.

What the search covers: the mixing box is ``[0, lambda_hi)``, the null
lambda = 0 on its edge (the boundary setting of Chernoff 1954 and Self &
Liang 1987).  Admissibility is analytic: for every lambda in [0, 1) the
mixture density h is positive on (0, inf), while for every lambda < 0 the
Pareto term outlasts the exponential and h turns negative far out, so such
a point is outside the dual class whatever the quadrature sees.  At rate
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
distance 0.596 from chi-square(1), with 24 of the 40 statistics below 1e-3.

Numerical layout: the model integral reduces to int f_alpha^2 / h, which is
exponential below the Pareto support onset nu (closed form).  Above it, in
the capped box, h >= (1 - lambda) theta e^(-theta x) bounds every tail, so
one truncation point X from the worst corner of every rate's box (the
lowest rate with a box, theta_lo / 1.5) serves the whole spec, and each
point's tail above it is added in closed form.  [nu, X] is cut into graded
panels, the first nu / (gamma + 1) wide and each next twice as wide, with
Gauss-Legendre rules of 28 and 36 nodes that must agree to
``QUAD_TOLERANCE``.  The nodes do not depend on the rate, so the box points
of a batch take one pass whatever their rates.  A point outside the box, or
one the two rules do not certify, goes to ``scipy.integrate.quad``,
imported on first use.  The lambda = 0 line is closed form.  A point with
lambda outside [0, 1) or theta <= 0 is refused by rule, and one whose
integral diverges (lambda = 0 with theta >= 2 alpha) is outside the dual
class too; the search excludes both.

The sample side of the objective needs f_alpha / h at each observation.
``_density_ratio`` divides alpha by h e^(alpha x), expanded term by term,
so that an observation far enough out to underflow both densities does
not give 0 / 0; the search computes e^(alpha x) once per profiled rate.
The search and ``dual_objective_contam`` share this ratio and the
conjugate (``core.legendre_batch``): n * dual_objective_contam at the
reported (alpha_hat, theta_hat, lambda_hat) is the statistic exactly.

Search: for each profiled alpha, the sup over (theta, lambda) evaluates a
grid (with the lambda = 0 line and the exact null point adjoined), then
runs bounded Nelder-Mead from the best grid points under scipy's rules
(``_nelder_mead`` reproduces scipy 1.17's steps bit for bit on Python
floats).  The anchor (theta, lambda) = (alpha, 0) evaluates to exactly 0
(f_alpha / h = 1 at every observation, and the model integral is
2 alpha^2 / alpha^2 - 2), so every supremum, and with it the statistic, is
>= 0 with no clamp.  The inf over alpha takes a coarse grid of rates, then
a golden section that evaluates each point it needs together with both
points that could follow it.  The rates evaluated together are searched in
lockstep: each rate's grid is one objective call, and each round of the
Nelder-Mead searches of all of them shares one call.  The few points of a round cost
little arithmetic, so the fixed cost of each call sets the time.

Standing model assumptions (identifiability of the exponential/Pareto pair,
Glivenko-Cantelli regularity, smoothness in theta, domination near the null
point) are documented preconditions; only identifiability (gamma > 1,
nu > 1) and density positivity are checkable and enforced.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable, ClassVar, Generator, Iterable

import numpy as np

from .core import Sample, legendre_batch, legendre_transform
from .errors import (
    InvalidInput,
    InvalidSpec,
    NonPositiveDensity,
    OptimizationFailure,
    QuadratureFailure,
)
from .linear import CHI_SQUARED, TestReport, _check_level, chi2_sf

# Truncate the model integral where the tail bound of every point of the
# capped box drops below this level; each point's tail is added in closed form.
TAIL_TOLERANCE = 1e-15
# Quadrature error target; Nelder-Mead tolerance on its simplex values.
QUAD_TOLERANCE = 1e-10
OBJECTIVE_TOLERANCE = 1e-8
# the inner search at rate alpha keeps theta <= THETA_CAP * alpha (module docstring)
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
    """Dual candidate g = 2 (f_alpha / h(theta, lambda) - 1).

    The numerator is the exponential density at the null rate ``alpha``
    being profiled.
    """

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

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r_x = pareto_pdf(x, self.spec.pareto_gamma, self.spec.pareto_nu)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e_x = np.exp(self.alpha * x)
            ratio = _density_ratio(x, self.alpha, self.theta, self.lam, r_x, e_x)
        # f_alpha and h both vanish for x < 0, where g is undefined
        return np.where(x >= 0.0, 2.0 * (ratio - 1.0), np.nan)


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
    inner = _InnerObjective(np.empty(0), [g.alpha], g.spec)
    value = inner.integrals(np.zeros(1, dtype=int), np.array([g.theta]), np.array([g.lam]))[0]
    if np.isnan(value):
        raise NonPositiveDensity(
            f"mixture density not positive on (0, inf) at theta={g.theta}, lambda={g.lam}"
        )
    return float(value)


def dual_objective_contam(g: DualGFunction, sample: Sample) -> float:
    """Dual objective: model integral minus the sample conjugate value of g."""
    _require_positive_data(sample)
    integral = model_integral(g)
    if not math.isfinite(integral):
        return integral
    return integral - legendre_transform(g.values(sample.data[:, 0]))


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

    ``inner_grid`` points per (theta, lambda) axis; Nelder-Mead from the
    ``nm_starts`` best, ``nm_max_evals`` calls each; ``outer_coarse`` rate
    points, then golden section to ``alpha_tol`` of the rate interval.
    """

    inner_grid: int = 8
    nm_starts: int = 3
    nm_max_evals: int = 60
    outer_coarse: int = 5
    alpha_tol: float = 2e-3

    def __post_init__(self) -> None:
        # a coarse grid of one rate profiles theta_lo alone, and a
        # tolerance that is not positive runs every golden step
        for name, least in (
            ("inner_grid", 1), ("nm_starts", 0), ("nm_max_evals", 0), ("outer_coarse", 2)
        ):
            if not getattr(self, name) >= least:
                raise InvalidInput(f"{name} must be >= {least}, got {getattr(self, name)!r}")
        if not 0.0 < self.alpha_tol < math.inf:
            raise InvalidInput(f"alpha_tol must be finite and > 0, got {self.alpha_tol!r}")


_EXCLUDED_PENALTY = 1e30


class _InnerObjective:
    """sup-side objective over (theta, lambda) at each rate of ``alphas``.

    Lays out the spec's graded rule (module docstring) and precomputes the
    Pareto density at the sample and the nodes, and per rate e^(alpha x) at
    the sample and the rule's weights times amp e^(-s x), so each parameter
    evaluation costs one exp over the sample plus h at the rule's nodes.
    """

    def __init__(self, x: np.ndarray, alphas: Iterable[float], spec: ContaminationSpec) -> None:
        self.x = x
        self.alphas = np.array(alphas, dtype=float)
        self.spec = spec
        gamma, nu = spec.pareto_gamma, spec.pareto_nu
        self.r_x = pareto_pdf(x, gamma, nu)
        # a box point's tail bound amp e^(-c x) / ((1 - lambda) theta c) is
        # largest at the lowest rate with a box, alpha = theta_lo / 1.5, its
        # corner theta_lo, lambda -> lambda_hi and c = alpha / 2
        low = spec.theta_lo / THETA_CAP
        c = 0.5 * low
        corner = (1.0 - spec.lambda_hi) * spec.theta_lo
        log_scale = math.log(2.0 / corner) + 2.0 * math.log(low)
        first = nu / (gamma + 1.0)
        self.x_cut = max((log_scale - math.log(TAIL_TOLERANCE * c)) / c, nu + first)
        panels = math.ceil(math.log2((self.x_cut - nu) / first + 1.0))
        breaks = np.minimum(nu + first * (2.0 ** np.arange(panels + 1) - 1.0), self.x_cut)
        breaks[-1] = self.x_cut
        lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
        self.nodes = np.concatenate([(lo + width * t).ravel() for t, _ in _GL_RULES])
        weights = np.concatenate([(width * w).ravel() for _, w in _GL_RULES])
        self.pareto = gamma * nu**gamma * self.nodes ** -(gamma + 1.0)
        self.split = panels * _GL_RULES[0][0].size
        s = 2.0 * self.alphas[:, None]
        with np.errstate(over="ignore"):
            self.e_x = np.exp(self.alphas[:, None] * x)
            self.weights = weights * (s * self.alphas[:, None]) * np.exp(-s * self.nodes)
        self.evaluations = np.zeros(self.alphas.size, dtype=int)

    def integrals(self, rates: np.ndarray, thetas: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Model integral at (alphas[rates], thetas, lams).

        Returns +inf where the integral diverges (lambda = 0, theta >= s) and
        NaN where the point is refused: lambda outside [0, 1) or theta <= 0,
        so that the mixture density is not positive on all of (0, inf).  The
        box rows of every rate take the rule in one pass, each row summed on
        its own, so that its value does not depend on the batch; the finer of
        the two sums serves where they agree.  Raises QuadratureFailure where
        ``scipy.integrate.quad``, which takes the other rows, misses its target.
        """
        spec, alphas = self.spec, self.alphas[rates]
        s = 2.0 * alphas
        amp = s * alphas
        nu = spec.pareto_nu
        out = np.full(thetas.shape[0], np.nan)

        invalid = (lams < 0.0) | (lams >= 1.0) | (thetas <= 0.0)
        zero = lams == 0.0
        zero_lam = zero & ~invalid
        if zero_lam.any():
            div = zero_lam & (thetas >= s)
            ok = zero_lam & ~div
            out[div] = np.inf
            out[ok] = amp[ok] / (thetas[ok] * (s[ok] - thetas[ok])) - 2.0

        idx = (~(invalid | zero)).nonzero()[0]
        if idx.size == 0:
            return out

        th, lm, rates, alphas = thetas[idx], lams[idx], rates[idx], alphas[idx]
        amp, s = amp[idx], s[idx]
        value = np.full(idx.size, np.nan)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            c = s - th
            scale = amp / ((1.0 - lm) * th)
            # closed-form segment below the Pareto onset: h is purely exponential
            flat = c == 0.0
            seg0 = -np.expm1(-c * nu) / np.where(flat, 1.0, c)
            seg0[flat] = nu
            tops = np.minimum(spec.theta_hi, THETA_CAP * alphas)
            at = ((th >= spec.theta_lo) & (th <= tops) & (lm < spec.lambda_hi)).nonzero()[0]
            vals = np.exp(np.multiply(-th[at, None], self.nodes))
            vals *= ((1.0 - lm[at]) * th[at])[:, None]
            vals += lm[at, None] * self.pareto
            np.divide(self.weights[rates[at]], vals, out=vals)
            coarse = vals[:, : self.split].sum(axis=1)
            fine = vals[:, self.split :].sum(axis=1)
            # relative floor: absolute targets below float64 roundoff are
            # unreachable once the integral itself is large
            limit = np.maximum(0.5 * QUAD_TOLERANCE, 1e-13 * np.abs(fine))
            tail = scale[at] * np.exp(-c[at] * self.x_cut) / c[at]
            value[at] = np.where(np.abs(fine - coarse) < limit, fine, np.nan) + tail
        for i in np.isnan(value).nonzero()[0].tolist():
            value[i] = _quad_integral(float(alphas[i]), float(th[i]), float(lm[i]), spec)
        out[idx] = scale * seg0 + value - 2.0
        return out

    def batch(self, rates: np.ndarray, thetas: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Values at (alphas[rates], thetas, lams); NaN marks points outside
        the dual class."""
        self.evaluations += np.bincount(rates, minlength=self.alphas.size)
        alpha = self.alphas[rates]
        integrals = self.integrals(rates, thetas, lams)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = _density_ratio(
                self.x, alpha[:, None], thetas[:, None], lams[:, None], self.r_x, self.e_x[rates]
            )
            values = integrals - legendre_batch(2.0 * (ratio - 1.0))
        values[~np.isfinite(values)] = np.nan
        return values


@dataclass(frozen=True)
class Chi2SimpleResult:
    """Supremum of the dual objective over the mixture parameters.

    ``start_points`` records the refinement starts as (theta, lambda, alpha,
    objective) tuples: the search certificate.  Slot 2 always holds the
    fixed null rate alpha.
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
    # anchor: the exactly-null candidate (theta = alpha, lambda = 0)
    t_flat = np.concatenate((t_grid.ravel(), [alpha]))
    l_flat = np.concatenate((l_grid.ravel(), [0.0]))
    return t_flat, l_flat


def _nelder_mead(
    x0: Iterable[float], lower: Iterable[float], upper: Iterable[float], max_evals: int
) -> Generator[list[list[float]], list[float], tuple[np.ndarray, float, int]]:
    """Bounded Nelder-Mead minimization, step for step as scipy 1.17 runs it.

    Yields each batch of points it needs evaluated, as a list of points
    (lists of floats), and receives their values through ``send``; returns
    (x, f(x), evaluations).  As in scipy, the start is clipped into the box,
    the initial simplex steps 5 % along each axis and reflects vertices above
    ``upper`` into the box, every trial point is clipped to the box, no
    evaluation goes past ``max_evals``, a step cut short by the limit is
    abandoned and a shrink cut short keeps the vertices it could evaluate.
    (scipy also moves the next vertex before it finds the budget spent; that
    vertex never comes first in the sort, so the result cannot show it.)

    The vertices are Python floats, and every coordinate goes through the
    same IEEE operations in the same order as scipy's arrays (the centroid
    sums rows first to last, the clip makes ``np.clip``'s comparisons), so
    the path matches scipy bit for bit.  The vertices are ordered by a
    stable sort, which keeps tied values in their current order as scipy's
    ``np.argsort`` does on arrays this small; a stable sort gives the same
    order when repeated, so scipy's second sort after the initial simplex
    is left out.  The values sent in must not be NaN, which has no place in
    a sort order.
    """
    lower = [float(v) for v in lower]
    upper = [float(v) for v in upper]

    def clip(point):
        out = []
        for v, lo, hi in zip(point, lower, upper):
            v = lo if lo >= v else v
            out.append(hi if hi <= v else v)
        return out

    def ordered(sim, fsim):
        order = sorted(range(len(fsim)), key=fsim.__getitem__)
        return [sim[i] for i in order], [fsim[i] for i in order]

    x0 = clip([float(v) for v in x0])
    n = len(x0)
    sim = [x0]
    for k in range(n):
        vertex = list(x0)
        vertex[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(vertex)
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(p, upper)]) for p in sim]
    fsim = [math.inf] * (n + 1)
    evals = min(n + 1, max(max_evals, 0))
    fsim[:evals] = yield sim[:evals]
    sim, fsim = ordered(sim, fsim)

    while evals < max_evals:
        best, worst = sim[0], sim[-1]
        if all(abs(v - b) <= 1e-4 for p in sim[1:] for v, b in zip(p, best)) and all(
            abs(fsim[0] - f) <= OBJECTIVE_TOLERANCE for f in fsim[1:]
        ):
            break
        xbar = [functools.reduce(operator.add, column) / n for column in zip(*sim[:-1])]
        xr = clip([2 * c - w for c, w in zip(xbar, worst)])
        (fxr,) = yield [xr]
        evals += 1
        shrink = False
        if fxr < fsim[0]:
            if evals < max_evals:
                xe = clip([3 * c - 2 * w for c, w in zip(xbar, worst)])
                (fxe,) = yield [xe]
                evals += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif evals < max_evals:
            if fxr < fsim[-1]:
                xc = clip([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)])
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
            else:
                xc = clip([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)])
                (fxc,) = yield [xc]
                shrink = not fxc < fsim[-1]
            evals += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
        if shrink:
            room = min(n, max_evals - evals)
            for j in range(1, 1 + room):
                sim[j] = clip([b + 0.5 * (v - b) for v, b in zip(sim[j], best)])
            if room:
                fsim[1 : 1 + room] = yield sim[1 : 1 + room]
                evals += room
        sim, fsim = ordered(sim, fsim)
    return np.array(sim[0]), fsim[0], evals


def _grid_then_refine(
    objective: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    grids: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    theta_tops: list[float],
    spec: ContaminationSpec,
    settings: SearchSettings,
) -> list[list]:
    """Raise the best point of each grid by Nelder-Mead from its ``nm_starts`` best.

    A grid is (thetas, lams, values), ``values`` holding the objective on it
    (NaN = excluded).  The searches maximize the objective over the box
    [theta_lo, theta_top] x [0, lambda_hi), one ``theta_tops`` entry per
    grid, with excluded points penalized, and all run in lockstep: each
    round gathers the points every live search asks for into one
    ``objective(grid indices, thetas, lams)`` call.  Returns [value, (theta,
    lambda), start indices] per grid; a search replaces its grid's optimum
    only when it ends strictly higher, earlier starts winning ties.
    """
    lam_top = float(np.nextafter(spec.lambda_hi, 0.0))  # below the open upper end
    budget, outcomes, searches = settings.nm_max_evals, [], []
    for g, ((thetas, lams, values), theta_top) in enumerate(zip(grids, theta_tops)):
        finite = np.isfinite(values)
        if not finite.any():
            raise OptimizationFailure("no admissible candidate in the mixture-parameter grid")
        order = np.argsort(-values[finite], kind="stable")
        starts = np.flatnonzero(finite)[order[: settings.nm_starts]]
        top = np.nanargmax(values)
        outcomes.append([float(values[top]), (float(thetas[top]), float(lams[top])), starts])
        box = (spec.theta_lo, 0.0), (theta_top, lam_top)
        searches += [(g, _nelder_mead((thetas[i], lams[i]), *box, budget)) for i in starts]
    pending = [(j, next(search)) for j, (_, search) in enumerate(searches)]
    results = [None] * len(searches)
    while pending:
        points = np.array([p for _, request in pending for p in request]).reshape(-1, 2)
        rows = np.array([searches[j][0] for j, request in pending for _ in request], dtype=int)
        costs = [
            -v if math.isfinite(v) else _EXCLUDED_PENALTY
            for v in objective(rows, points[:, 0], points[:, 1]).tolist()
        ]
        offset, waiting = 0, []
        for j, request in pending:
            try:
                waiting.append((j, searches[j][1].send(costs[offset : offset + len(request)])))
            except StopIteration as stop:
                results[j] = stop.value
            offset += len(request)
        pending = waiting
    for (g, _), (x, fun, _) in zip(searches, results):
        if -fun > outcomes[g][0]:
            outcomes[g][:2] = float(-fun), (float(x[0]), float(x[1]))
    return outcomes


def _chi2_lockstep(
    x: np.ndarray, alphas: list[float], spec: ContaminationSpec, settings: SearchSettings
) -> list[Chi2SimpleResult]:
    """``chi2_simple`` at each rate of ``alphas``, searched in lockstep; no
    objective call holds more than one rate's grid."""
    inner = _InnerObjective(x, alphas, spec)
    tops = [min(spec.theta_hi, THETA_CAP * alpha) for alpha in alphas]
    grids = [_candidate_grid(alpha, top, spec, settings) for alpha, top in zip(alphas, tops)]
    grids = [
        (ts, ls, inner.batch(np.full(ts.size, i), ts, ls)) for i, (ts, ls) in enumerate(grids)
    ]
    refined = _grid_then_refine(inner.batch, grids, tops, spec, settings)
    results = []
    for alpha, (thetas, lams, values), (value, point, starts), evaluations in zip(
        alphas, grids, refined, inner.evaluations.tolist()
    ):
        start_points = tuple(
            (float(thetas[i]), float(lams[i]), float(alpha), float(values[i])) for i in starts
        )
        results.append(Chi2SimpleResult(value, point[0], point[1], start_points, evaluations))
    return results


def chi2_simple(
    sample: Sample,
    alpha_fixed: float,
    spec: ContaminationSpec,
    settings: SearchSettings | None = None,
) -> Chi2SimpleResult:
    """Divergence estimate for the simple null at rate ``alpha_fixed``.

    Supremum of the dual objective over the mixture parameters with
    theta <= 1.5 alpha: a coarse grid (with the lambda = 0 line and the
    exact null anchor adjoined) followed by simplex refinement from the best
    ``settings.nm_starts`` grid points.  The anchor value is exactly 0, so
    the result is never negative.
    """
    settings = settings or SearchSettings()
    if not (spec.theta_lo <= alpha_fixed <= spec.theta_hi):
        raise InvalidInput(
            f"alpha={alpha_fixed} outside the rate interval "
            f"[{spec.theta_lo}, {spec.theta_hi}]"
        )
    return _chi2_lockstep(_require_positive_data(sample), [alpha_fixed], spec, settings)[0]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 200


def _golden_min(
    f: Callable[[list[float]], list], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi], robust to +inf values.

    ``f`` maps a list of points to their values.  The points, their order
    and the result are those of a section run a point at a time, but each
    call also takes both points that could follow the one it needs, one per
    outcome of the next comparison: a call covers two steps, and one point
    in three goes unused.  A call that raises QuadratureFailure is repeated
    without the points ahead, so only a point the section uses can fail it.
    """
    if hi <= lo:
        return lo, f([lo])[0]
    values: dict[float, float] = {}

    def branches(a, b, x1, x2):
        # (bracket, new point): f(x1) <= f(x2) keeps [a, x2], else [x1, b]
        new1, new2 = x2 - _INV_PHI * (x2 - a), x1 + _INV_PHI * (b - x1)
        return ((a, x2, new1, x1), new1), ((x1, b, x2, new2), new2)

    def fetch(points, bracket, steps):
        live = steps < _GOLDEN_STEPS and bracket[1] - bracket[0] > tol
        ahead = [new for _, new in branches(*bracket)] if live else []
        try:
            values.update(zip(points + ahead, f(points + ahead)))
        except QuadratureFailure:  # again without the points ahead
            values.update(zip(points, f(points)))

    bracket = (lo, hi, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
    x1, x2 = bracket[2:]
    fetch([x1, x2], bracket, 0)
    best_x, best_f = (x1, values[x1]) if values[x1] <= values[x2] else (x2, values[x2])
    for step in range(1, _GOLDEN_STEPS + 1):
        a, b, x1, x2 = bracket
        if b - a <= tol:
            break
        bracket, new = branches(*bracket)[0 if values[x1] <= values[x2] else 1]
        if new not in values:
            fetch([new], bracket, step)
        if values[new] < best_f:
            best_x, best_f = new, values[new]
    return best_x, best_f


def _inf_sup(
    x: np.ndarray, spec: ContaminationSpec, settings: SearchSettings
) -> tuple[float, Chi2SimpleResult]:
    """The profiled rate alpha_hat and ``chi2_simple`` there: the inf over the
    rate interval of the sup over the mixture parameters.  A coarse grid of
    rates, searched in one lockstep call, brackets the minimum; golden
    section refines it."""
    evaluated: dict[float, Chi2SimpleResult] = {}

    def profile(alphas: list[float]) -> list[float]:
        results = _chi2_lockstep(x, alphas, spec, settings)
        evaluated.update(zip(alphas, results))
        return [result.value for result in results]

    lo, hi = spec.theta_lo, spec.theta_hi
    if hi <= lo:
        profile([lo])
        return lo, evaluated[lo]
    xs = np.linspace(lo, hi, settings.outer_coarse)
    vals = profile([float(rate) for rate in xs])
    i_best = int(np.argmin(vals))
    bracket_lo = xs[max(0, i_best - 1)]
    bracket_hi = xs[min(len(xs) - 1, i_best + 1)]
    x_hat, v_hat = _golden_min(
        profile, float(bracket_lo), float(bracket_hi), settings.alpha_tol * (hi - lo)
    )
    alpha_hat = float(xs[i_best]) if vals[i_best] < v_hat else x_hat
    return alpha_hat, evaluated[alpha_hat]


def contamination_test(
    sample: Sample,
    spec: ContaminationSpec,
    alpha_level: float,
    settings: SearchSettings | None = None,
) -> TestReport:
    """Test exponentiality against Pareto contamination.

    Statistic: n times the profile minimum over the null rate of the
    supremum divergence; chi-square(1) upper-tail p-value.  Diagnostics
    carry the profiled rate and the best mixture parameters;
    ``minimax_gap`` checks the order of the inf and sup separately.
    """
    settings = settings or SearchSettings()
    alpha_level = _check_level(alpha_level)
    alpha_hat, at_min = _inf_sup(_require_positive_data(sample), spec, settings)
    statistic = sample.n * at_min.value
    p_value = chi2_sf(statistic, 1)
    diagnostics = {
        "alpha_hat": float(alpha_hat),
        "theta_hat": at_min.theta_hat,
        "lambda_hat": at_min.lambda_hat,
        "chi2_value": at_min.value,
        "n": float(sample.n),
    }
    return TestReport(
        statistic=float(statistic),
        df_or_sd=1.0,
        reference_law=CHI_SQUARED,
        p_value=p_value,
        alpha=alpha_level,
        reject=p_value < alpha_level,
        diagnostics=diagnostics,
    )


def minimax_gap(
    sample: Sample,
    spec: ContaminationSpec,
    settings: SearchSettings | None = None,
) -> float:
    """|inf-sup - sup-inf| of the dual objective, computed numerically.

    The two nested orders should agree (the objective has a saddle over the
    compact rate interval and the admissible mixture set); this quantifies
    the agreement with the same tolerances the test itself uses.
    """
    settings = settings or SearchSettings()
    x = _require_positive_data(sample)
    inf_sup = _inf_sup(x, spec, settings)[1].value

    # reversed order: for each point of the uncapped box, profile the rate
    # over the whole interval (+inf where lambda = 0 and theta >= 2 alpha),
    # then take the supremum; rates cut to theta <= 1.5 alpha per point
    # would couple the rate to the point and the orders would not agree
    def min_over_alpha(theta: float, lam: float) -> float:
        def by_alpha(alphas: list[float]) -> list[float]:
            k = len(alphas)
            inner = _InnerObjective(x, alphas, spec)
            vals = inner.batch(np.arange(k), np.full(k, theta), np.full(k, lam)).tolist()
            return [math.inf if math.isnan(v) else v for v in vals]

        lo, hi = spec.theta_lo, spec.theta_hi
        _, value = _golden_min(by_alpha, lo, hi, settings.alpha_tol * (hi - lo))
        return value if math.isfinite(value) else math.nan

    # drop the anchor point (specific to the forward order)
    thetas, lams = _candidate_grid(spec.theta_hi, spec.theta_hi, spec, settings)
    thetas, lams = thetas[:-1], lams[:-1]

    def sup_side(rows: np.ndarray, ts: np.ndarray, ls: np.ndarray) -> np.ndarray:
        return np.array([min_over_alpha(float(t), float(l)) for t, l in zip(ts, ls)])

    ((sup_inf, _, _),) = _grid_then_refine(
        sup_side, [(thetas, lams, sup_side(None, thetas, lams))], [spec.theta_hi], spec, settings
    )
    return abs(inf_sup - sup_inf)
