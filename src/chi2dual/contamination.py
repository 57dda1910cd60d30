"""Parametric test of exponential data against heavy-tail contamination.

The null states that the data density is exponential with unknown rate in a
compact interval; the alternative mixes the exponential with a Pareto-type
outlier density in proportion lambda != 0 (lambda ranges over an open
interval around zero since the fitted object is a signed measure).  The
test statistic is the dual divergence estimate

    n * inf_alpha  sup_(theta, lambda)  [ int g f_alpha dx - T(g, P_n) ],

with g = 2 (f_alpha / h(theta, lambda) - 1) and h the mixture density.
Under the null the statistic is asymptotically chi-square with one degree
of freedom (one free parameter).  The inf and sup may be nested in either
order; ``minimax_gap`` verifies the commutation numerically.

Numerical layout: the model integral reduces to int f_alpha^2 / h, which is
exponential below the Pareto support onset (closed form) and is integrated
by adaptive Gauss-Legendre panels above it, truncated where the integrand
falls below 1e-14 with an analytic exponential tail estimate added.
Parameter points where the mixture density is nonpositive at any quadrature
node, or where the integral diverges (lambda = 0 with theta >= 2 alpha),
are excluded from the search: they fall outside the admissible dual class.

The search and ``dual_objective_contam`` evaluate the same mixture density
and the same conjugate (``core.legendre_batch``): n * dual_objective_contam
at the reported (alpha_hat, theta_hat, lambda_hat) is the statistic exactly.

Standing model assumptions (identifiability of the exponential/Pareto pair,
Glivenko-Cantelli regularity, smoothness in theta, domination near the null
point) are documented preconditions; only identifiability (gamma > 1,
nu > 1) and density positivity are checkable and enforced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize

from .core import Sample, legendre_batch, legendre_transform
from .errors import (
    InvalidInput,
    InvalidSpec,
    NonPositiveDensity,
    OptimizationFailure,
    QuadratureFailure,
)
from .linear import CHI_SQUARED, TestReport, _check_level, chi2_sf

# Truncate the model integral where its integrand drops below this level;
# the analytic tail added afterwards is of the same magnitude.
TAIL_TOLERANCE = 1e-15
# Quadrature error target; Nelder-Mead tolerance on its simplex values.
QUAD_TOLERANCE = 1e-10
OBJECTIVE_TOLERANCE = 1e-8
# Uniform panels keep the integrand's complex poles (where the mixture
# terms trade dominance) at a safe distance from every panel.
_N_PANELS = 16
_BASE_ORDER = 8
_MAX_LEVELS = 6


@dataclass(frozen=True)
class ContaminationSpec:
    """Exponential base family on [theta_lo, theta_hi] with a Pareto contaminant.

    ``lambda_lo < 0 < lambda_hi`` bounds the (open) mixing-weight interval;
    gamma > 1 and nu > 1 make the exponential/Pareto pair identifiable.
    """

    theta_lo: float
    theta_hi: float
    lambda_lo: float = -0.25
    lambda_hi: float = 0.75
    pareto_gamma: float = 2.0
    pareto_nu: float = 1.5

    def __post_init__(self) -> None:
        # equality is tolerated: a degenerate interval pins the null rate,
        # which collapses the profile step (useful for cross-checks)
        if not (0.0 < self.theta_lo <= self.theta_hi < math.inf):
            raise InvalidSpec(
                f"rate interval must satisfy 0 < lo <= hi, got [{self.theta_lo}, {self.theta_hi}]"
            )
        if not (self.lambda_lo < 0.0 < self.lambda_hi < 1.0):
            raise InvalidSpec(
                f"mixing interval must contain 0 and stay below 1, got "
                f"({self.lambda_lo}, {self.lambda_hi})"
            )
        if not (self.pareto_gamma > 1.0 and self.pareto_nu > 1.0):
            raise InvalidSpec(
                "identifiability requires gamma > 1 and nu > 1, got "
                f"gamma={self.pareto_gamma}, nu={self.pareto_nu}"
            )


def exponential_pdf(x: np.ndarray, rate: float) -> np.ndarray:
    return np.where(x >= 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0)


def pareto_pdf(x: np.ndarray, gamma: float, nu: float) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=float))
    above = x > nu
    out[above] = gamma * nu**gamma * x[above] ** (-(gamma + 1.0))
    return out


def _mixture_density(x: np.ndarray, theta, lam, r_x: np.ndarray) -> np.ndarray:
    """h(x) = (1 - lambda) theta e^(-theta x) + lambda r(x) for x >= 0, given r_x = r(x)."""
    return (1.0 - lam) * theta * np.exp(-theta * x) + lam * r_x


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

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r_x = pareto_pdf(x, self.spec.pareto_gamma, self.spec.pareto_nu)
        h = _mixture_density(np.maximum(x, 0.0), self.theta, self.lam, r_x)
        h = np.where(x >= 0.0, h, 0.0)  # h(theta, lambda) is zero for x < 0
        num = exponential_pdf(x, self.alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 2.0 * (num / h - 1.0)


# ---------------------------------------------------------------------------
# Model integral int g f_alpha dx = amp * int e^(-s x) / h dx - 2,
# with s = 2 alpha and amp = 2 alpha^2.

@functools.lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _integral_batch(
    alpha: float,
    thetas: np.ndarray,
    lams: np.ndarray,
    spec: ContaminationSpec,
) -> np.ndarray:
    """Model integral for a batch of (theta, lambda) at fixed alpha.

    Returns +inf where the integral diverges (lambda = 0, theta >= s) and
    NaN where the point is excluded (mixture density nonpositive at a node,
    or lambda outside [., 1)).  Raises QuadratureFailure if refinement does
    not reach QUAD_TOLERANCE on an admissible point.
    """
    thetas = np.asarray(thetas, dtype=float)
    lams = np.asarray(lams, dtype=float)
    s = 2.0 * alpha
    amp = 2.0 * alpha * alpha
    gamma, nu = spec.pareto_gamma, spec.pareto_nu
    out = np.full(thetas.shape[0], np.nan)

    invalid = (lams >= 1.0) | (thetas <= 0.0)
    zero_lam = (lams == 0.0) & ~invalid
    if np.any(zero_lam):
        div = zero_lam & (thetas >= s)
        ok = zero_lam & ~div
        out[div] = np.inf
        out[ok] = amp / (thetas[ok] * (s - thetas[ok])) - 2.0

    active = ~zero_lam & ~invalid
    # lambda < 0 with theta >= s: exponentially growing integrand against a
    # negative far tail; always inadmissible.
    active &= ~((lams < 0.0) & (thetas >= s))
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return out

    th = thetas[idx]
    lm = lams[idx]

    x_cut, tail = _truncation_and_tail(amp, s, th, lm, gamma, nu)

    # closed-form segment below the Pareto onset: h is purely exponential
    c = s - th
    scale = amp / ((1.0 - lm) * th)
    with np.errstate(over="ignore"):
        seg0 = np.where(c == 0.0, nu, -np.expm1(-c * nu) / np.where(c == 0.0, 1.0, c))
    i_low = scale * seg0

    # uniform panels on [nu, X]
    fractions = np.arange(_N_PANELS + 1) / _N_PANELS
    breaks = nu + (x_cut - nu)[:, None] * fractions[None, :]
    lo = breaks[:, :-1]
    hi = breaks[:, 1:]
    width = hi - lo

    def integrand(x, th_, lm_):
        # every node lies above nu, where r is the Pareto power law
        with np.errstate(over="ignore", under="ignore"):
            r_x = gamma * nu**gamma * x ** (-(gamma + 1.0))
            den = _mixture_density(x, th_[:, None, None], lm_[:, None, None], r_x)
            num = amp * np.exp(-s * x)
        bad = np.any(den <= 0.0, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den, bad

    # first two refinement levels share one integrand evaluation
    t_a, w_a = _gl_rule(_BASE_ORDER)
    t_b, w_b = _gl_rule(2 * _BASE_ORDER)
    t_ab = np.concatenate((t_a, t_b))
    x = lo[:, :, None] + width[:, :, None] * t_ab[None, None, :]
    vals, excluded = integrand(x, th, lm)
    coarse = np.einsum("pqn,n,pq->p", vals[:, :, : t_a.size], w_a, width)
    value = np.einsum("pqn,n,pq->p", vals[:, :, t_a.size :], w_b, width)
    # relative floor: absolute targets below float64 roundoff are unreachable
    # once the integral itself is large
    limit = np.maximum(0.5 * QUAD_TOLERANCE, 1e-13 * np.abs(value))
    converged = np.abs(value - coarse) < limit

    for level in range(2, _MAX_LEVELS):
        refine = np.flatnonzero(~(converged | excluded))
        if refine.size == 0:
            break
        t_nodes, w_nodes = _gl_rule(_BASE_ORDER * 2**level)
        x = lo[refine, :, None] + width[refine, :, None] * t_nodes[None, None, :]
        vals, bad = integrand(x, th[refine], lm[refine])
        excluded[refine] |= bad
        finer = np.einsum("pqn,n,pq->p", vals, w_nodes, width[refine])
        limit = np.maximum(0.5 * QUAD_TOLERANCE, 1e-13 * np.abs(finer))
        converged[refine] = np.abs(finer - value[refine]) < limit
        value[refine] = finer
    if not np.all(converged | excluded):
        raise QuadratureFailure(
            "model integral did not reach the error target "
            f"{QUAD_TOLERANCE:g} within {_MAX_LEVELS} refinement levels"
        )

    total = i_low + value + tail - 2.0
    total[excluded] = np.nan
    out[idx] = total
    return out


def _truncation_and_tail(
    amp: float,
    s: float,
    theta: np.ndarray,
    lam: np.ndarray,
    gamma: float,
    nu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation point with tail < TAIL_TOLERANCE, plus the tail estimate.

    The exponential comparison density bounds the tail whenever theta < s
    (exact at lambda = 0, an upper bound for lambda > 0, the documented
    estimate for lambda < 0).  When it is unusable or too slow the Pareto
    floor h >= lam * r takes over (lambda > 0 only).
    """
    x_floor = nu + 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = s - theta
        c_safe = np.where(c > 0.0, c, 1.0)
        exp_scale = amp / ((1.0 - lam) * theta)
        x_exp = np.where(
            c > 0.0,
            (np.log(exp_scale) - np.log(TAIL_TOLERANCE * c_safe)) / c_safe,
            np.inf,
        )
        x_cut = np.maximum(x_floor, x_exp)
        # Pareto fixed point only where the exponential bound is missing or slow
        need_par = (lam > 0.0) & ((c <= 0.0) | (x_exp > 150.0))
        if np.any(need_par):
            a_log = np.log(amp / (lam[need_par] * gamma * nu**gamma))
            floor_p = max(x_floor, 2.0 * (gamma + 1.0) / s)
            x_iter = np.full(a_log.shape, floor_p)
            for _ in range(4):
                denom = s - (gamma + 1.0) / x_iter
                x_iter = np.maximum(
                    floor_p,
                    (a_log + (gamma + 1.0) * np.log(x_iter) - np.log(TAIL_TOLERANCE * denom))
                    / s,
                )
            x_cut[need_par] = np.minimum(x_cut[need_par], x_iter)
        tail = np.where(
            c > 0.0, exp_scale * np.exp(-c_safe * x_cut) / c_safe, np.inf
        )
        if np.any(need_par):
            xc = x_cut[need_par]
            tail_par = (
                amp
                * np.exp(-s * xc)
                * xc ** (gamma + 1.0)
                / (lam[need_par] * gamma * nu**gamma * (s - (gamma + 1.0) / xc))
            )
            tail[need_par] = np.minimum(tail[need_par], tail_par)
    return x_cut, tail


def model_integral(g: DualGFunction) -> float:
    """int g(x) f_alpha(x) dx over (0, inf).

    Returns +inf when the integral diverges (the candidate is outside the
    admissible dual class).  Raises NonPositiveDensity when the mixture
    density is nonpositive at a quadrature node and QuadratureFailure when
    the error target cannot be met.
    """
    value = _integral_batch(g.alpha, np.array([g.theta]), np.array([g.lam]), g.spec)[0]
    if np.isnan(value):
        raise NonPositiveDensity(
            f"mixture density nonpositive on the integration range at "
            f"theta={g.theta}, lambda={g.lam}"
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


_EXCLUDED_PENALTY = 1e30


class _InnerObjective:
    """sup-side objective over (theta, lambda) for one fixed alpha.

    Precomputes the data-dependent pieces (Pareto density at the sample,
    f_alpha at the sample) so each parameter evaluation costs one exp over
    the sample plus the model quadrature.
    """

    def __init__(self, x: np.ndarray, alpha: float, spec: ContaminationSpec) -> None:
        self.x = x
        self.alpha = alpha
        self.spec = spec
        self.r_x = pareto_pdf(x, spec.pareto_gamma, spec.pareto_nu)
        self.f_alpha_x = exponential_pdf(x, alpha)
        self.evaluations = 0

    def batch(self, thetas: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Objective values; NaN marks excluded points."""
        self.evaluations += thetas.shape[0]
        integrals = _integral_batch(self.alpha, thetas, lams, self.spec)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            h = _mixture_density(self.x, thetas[:, None], lams[:, None], self.r_x)
            g = 2.0 * (self.f_alpha_x / h - 1.0)
            conjugate = legendre_batch(g)
        values = integrals - conjugate
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
    alpha: float, spec: ContaminationSpec, settings: SearchSettings
) -> tuple[np.ndarray, np.ndarray]:
    g = settings.inner_grid
    thetas = np.linspace(spec.theta_lo, spec.theta_hi, g)
    # interior lambda points (the interval is open) plus the lambda = 0 line,
    # where the closed form is exact and the null optimum lives
    step = (spec.lambda_hi - spec.lambda_lo) / g
    lams = spec.lambda_lo + step * (np.arange(g) + 0.5)
    lams = np.concatenate((lams, [0.0]))
    t_grid, l_grid = np.meshgrid(thetas, lams, indexing="ij")
    # anchor: the exactly-null candidate (theta = alpha, lambda = 0)
    t_flat = np.concatenate((t_grid.ravel(), [alpha]))
    l_flat = np.concatenate((l_grid.ravel(), [0.0]))
    return t_flat, l_flat


def _grid_then_refine(
    objective: Callable[[np.ndarray], float],
    thetas: np.ndarray,
    lams: np.ndarray,
    values: np.ndarray,
    spec: ContaminationSpec,
    settings: SearchSettings,
) -> tuple[float, tuple[float, float], np.ndarray]:
    """Best grid value (NaN = excluded), raised by bounded Nelder-Mead on ``objective``
    from the ``nm_starts`` best grid points: (value, (theta, lambda), start indices)."""

    def negated(params: np.ndarray) -> float:
        value = objective(params)
        return -value if math.isfinite(value) else _EXCLUDED_PENALTY

    finite = np.isfinite(values)
    if not np.any(finite):
        raise OptimizationFailure("no admissible candidate in the mixture-parameter grid")
    order = np.argsort(-values[finite], kind="stable")
    starts = np.flatnonzero(finite)[order[: settings.nm_starts]]
    i_best = np.nanargmax(values)
    best_value = float(values[i_best])
    best_point = (float(thetas[i_best]), float(lams[i_best]))
    eps = 1e-9  # lambda stays inside the open mixing interval
    bounds = [(spec.theta_lo, spec.theta_hi), (spec.lambda_lo + eps, spec.lambda_hi - eps)]
    options = {"fatol": OBJECTIVE_TOLERANCE, "xatol": 1e-4, "maxfev": settings.nm_max_evals}
    for i in starts:
        start = np.array([thetas[i], lams[i]])
        result = scipy.optimize.minimize(
            negated, start, method="Nelder-Mead", bounds=bounds, options=options
        )
        if -result.fun > best_value:
            best_value = float(-result.fun)
            best_point = (float(result.x[0]), float(result.x[1]))
    return best_value, best_point, starts


def chi2_simple(
    sample: Sample,
    alpha_fixed: float,
    spec: ContaminationSpec,
    settings: SearchSettings | None = None,
) -> Chi2SimpleResult:
    """Divergence estimate for the simple null at rate ``alpha_fixed``.

    Supremum of the dual objective over the admissible mixture parameters:
    a coarse grid (with the lambda = 0 line and the exact null anchor
    adjoined) followed by simplex refinement from the best three grid
    points.  The anchor value is exactly 0, so the result is never
    negative.
    """
    settings = settings or SearchSettings()
    if not (spec.theta_lo <= alpha_fixed <= spec.theta_hi):
        raise InvalidInput(
            f"alpha={alpha_fixed} outside the rate interval "
            f"[{spec.theta_lo}, {spec.theta_hi}]"
        )
    x = _require_positive_data(sample)
    inner = _InnerObjective(x, alpha_fixed, spec)
    thetas, lams = _candidate_grid(alpha_fixed, spec, settings)
    values = inner.batch(thetas, lams)
    best_value, best_point, starts = _grid_then_refine(
        lambda p: inner.batch(p[:1], p[1:])[0], thetas, lams, values, spec, settings
    )
    if best_value < 0.0:
        # the anchor candidate is exactly feasible with value 0
        best_value = 0.0
        best_point = (alpha_fixed, 0.0)
    return Chi2SimpleResult(
        value=best_value,
        theta_hat=best_point[0],
        lambda_hat=best_point[1],
        start_points=tuple(
            (float(thetas[i]), float(lams[i]), float(alpha_fixed), float(values[i]))
            for i in starts
        ),
        n_evaluations=inner.evaluations,
    )


def _golden_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi], robust to +inf values."""
    if hi <= lo:
        return lo, f(lo)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    best_x, best_f = (x1, f1) if f1 <= f2 else (x2, f2)
    for _ in range(200):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
            if f1 < best_f:
                best_x, best_f = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
            if f2 < best_f:
                best_x, best_f = x2, f2
    return best_x, best_f


def _profile_minimize(
    profile: Callable[[float], float],
    lo: float,
    hi: float,
    settings: SearchSettings,
) -> tuple[float, float]:
    """Coarse grid to bracket the minimum, then golden-section refinement."""
    if hi <= lo:
        return lo, profile(lo)
    xs = np.linspace(lo, hi, settings.outer_coarse)
    vals = [profile(float(x)) for x in xs]
    i_best = int(np.argmin(vals))
    bracket_lo = xs[max(0, i_best - 1)]
    bracket_hi = xs[min(len(xs) - 1, i_best + 1)]
    x_hat, v_hat = _golden_min(
        profile, float(bracket_lo), float(bracket_hi), settings.alpha_tol * (hi - lo)
    )
    if vals[i_best] < v_hat:
        return float(xs[i_best]), float(vals[i_best])
    return x_hat, v_hat


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
    _require_positive_data(sample)

    evaluated: dict[float, Chi2SimpleResult] = {}

    def profile(alpha: float) -> float:
        result = chi2_simple(sample, alpha, spec, settings)
        evaluated[alpha] = result
        return result.value

    alpha_hat, value = _profile_minimize(
        profile, spec.theta_lo, spec.theta_hi, settings
    )
    at_min = evaluated[alpha_hat]
    statistic = sample.n * max(value, 0.0)
    p_value = chi2_sf(statistic, 1)
    diagnostics = {
        "alpha_hat": float(alpha_hat),
        "theta_hat": at_min.theta_hat,
        "lambda_hat": at_min.lambda_hat,
        "chi2_value": float(max(value, 0.0)),
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

    def profile(alpha: float) -> float:
        return chi2_simple(sample, alpha, spec, settings).value

    _, inf_sup = _profile_minimize(profile, spec.theta_lo, spec.theta_hi, settings)

    # reversed order: for each mixture point, profile the rate over the
    # alphas that keep the point admissible, then take the supremum
    def min_over_alpha(theta: float, lam: float) -> float:
        lo = spec.theta_lo
        if lam == 0.0:
            # integrability needs theta < 2 alpha
            lo = max(lo, theta / 2.0 + 1e-12)
            if lo > spec.theta_hi:
                return math.nan

        def by_alpha(alpha: float) -> float:
            inner = _InnerObjective(x, alpha, spec)
            value = inner.batch(np.array([theta]), np.array([lam]))[0]
            return math.inf if np.isnan(value) else float(value)

        _, value = _golden_min(
            by_alpha, lo, spec.theta_hi, settings.alpha_tol * (spec.theta_hi - lo)
        )
        return value if math.isfinite(value) else math.nan

    thetas, lams = _candidate_grid(0.5 * (spec.theta_lo + spec.theta_hi), spec, settings)
    # drop the anchor point (specific to the forward order)
    thetas, lams = thetas[:-1], lams[:-1]
    values = np.array([min_over_alpha(float(t), float(l)) for t, l in zip(thetas, lams)])
    sup_inf, _, _ = _grid_then_refine(
        lambda p: min_over_alpha(float(p[0]), float(p[1])), thetas, lams, values, spec, settings
    )
    return abs(inf_sup - sup_inf)
