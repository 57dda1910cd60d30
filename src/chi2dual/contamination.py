"""Parametric test of exponential data against heavy-tail contamination.

The null states that the data density is exponential with unknown rate in a
compact interval; the alternative mixes the exponential with a Pareto-type
outlier density in proportion lambda != 0.  The test statistic is the dual
divergence estimate

    n * inf_alpha  sup_(theta, lambda)  [ int g f_alpha dx - T(g, P_n) ],

with g = 2 (f_alpha / h(theta, lambda) - 1) and h the mixture density.
The inf and sup may be nested in either order; ``minimax_gap`` verifies the
commutation numerically.

What the search covers: the lambda box ``(lambda_lo, lambda_hi)`` straddles
0, but a point with lambda < 0 is admitted only while h > 0 at every
quadrature node of the model integral.  For lambda < 0 the Pareto term
outlasts the exponential, so h turns negative far out; whether a node lands
past the sign change depends on where the integral is truncated, so the
admissibility of lambda < 0 rests on ``TAIL_TOLERANCE``, not on an analytic
rule (at alpha = 2, theta = 0.5, lambda = -0.05 the point is admitted
although h changes sign near x = 19.5).

The p-value is taken from chi-square with one degree of freedom (one free
parameter).  That reference law is not calibrated: under the null the
statistic sits at the lambda = 0 edge of what the search admits, and the
``contam_null`` scenario (n = 200, 40 replicates, seed 7) puts it at KS
distance 0.521 from chi-square(1), with 21 of the 40 statistics below 1e-3.

Numerical layout: the model integral reduces to int f_alpha^2 / h, which is
exponential below the Pareto support onset (closed form) and is integrated
above it on 16 uniform panels, truncated where the integrand's tail falls
below ``TAIL_TOLERANCE`` with an analytic tail estimate added.  The panels
take Gauss-Legendre rules of doubling order, 8 to 256 nodes, until two
levels agree; one integrand call evaluates levels 0 and 1 for a whole
batch of points, and each later level only the points that reach it.
Parameter points where the mixture density is nonpositive at a node of a
level the point reaches, or where the integral diverges (lambda = 0 with
theta >= 2 alpha), are excluded from the search: they fall outside the
admissible dual class.

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
floats).  The searches run in lockstep, so each of their steps costs one
batched objective call, not one call per start; the few points of a step
cost little arithmetic, so the fixed cost of each call sets the time.  The
inf over alpha takes a coarse grid and then golden-section refinement.

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
from typing import Callable, Generator, Iterable

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


def pareto_pdf(x: np.ndarray, gamma: float, nu: float) -> np.ndarray:
    out = np.zeros_like(np.asarray(x, dtype=float))
    above = x > nu
    out[above] = gamma * nu**gamma * x[above] ** (-(gamma + 1.0))
    return out


def _density_ratio(
    x: np.ndarray, alpha: float, theta, lam, r_x: np.ndarray, e_x: np.ndarray
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
        # and only fail after the last quadrature refinement
        for name in ("alpha", "theta", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"{name} must be finite, got {getattr(self, name)}")

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

@functools.lru_cache(maxsize=None)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


# Panel fractions and the Gauss-Legendre rules of levels 0 and 1 (orders 8
# and 16), whose nodes lie side by side so that one integrand call covers
# both levels.
_PANEL_FRACTIONS = np.arange(_N_PANELS + 1) / _N_PANELS
(_T0, _W0), (_T1, _W1) = _gl_rule(_BASE_ORDER), _gl_rule(2 * _BASE_ORDER)
_T01 = np.concatenate((_T0, _T1))


def _integrand(x, th, lm, amp, s, pareto_scale, power):
    """amp e^(-s x) / h at the nodes x (axis 0 runs over the points th, lm),
    and whether h <= 0 at any node of each point.  Every node lies above nu,
    where r is the Pareto power law pareto_scale * x^power.  Works in place
    on three arrays (a product or a sum is the same float in either order);
    the caller holds the floating-point errstate."""
    theta, lam = th[:, None, None], lm[:, None, None]
    den = np.multiply(-theta, x)
    np.exp(den, out=den)
    den *= (1.0 - lam) * theta
    pareto = np.power(x, power)
    pareto *= pareto_scale
    pareto *= lam
    den += pareto
    vals = np.multiply(-s, x, out=pareto)
    np.exp(vals, out=vals)
    vals *= amp
    vals /= den
    return vals, (den <= 0.0).any(axis=(1, 2))


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

    Refinement doubles the Gauss-Legendre order per level, from 8 nodes per
    panel at level 0 to 256 at level 5, and stops a point once two levels
    agree.  Levels 0 and 1 share one integrand call over every point; each
    later level evaluates only the points that have neither converged nor
    been excluded, so a node excludes only points whose refinement reaches
    its level.
    """
    thetas = np.asarray(thetas, dtype=float)
    lams = np.asarray(lams, dtype=float)
    s = 2.0 * alpha
    amp = 2.0 * alpha * alpha
    gamma, nu = spec.pareto_gamma, spec.pareto_nu
    out = np.full(thetas.shape[0], np.nan)

    invalid = (lams >= 1.0) | (thetas <= 0.0)
    zero = lams == 0.0
    zero_lam = zero & ~invalid
    if zero_lam.any():
        div = zero_lam & (thetas >= s)
        ok = zero_lam & ~div
        out[div] = np.inf
        out[ok] = amp / (thetas[ok] * (s - thetas[ok])) - 2.0

    # lambda < 0 with theta >= s: exponentially growing integrand against a
    # negative far tail; always inadmissible.
    idx = (~(invalid | zero | ((lams < 0.0) & (thetas >= s)))).nonzero()[0]
    if idx.size == 0:
        return out

    th = thetas[idx]
    lm = lams[idx]

    integrand_args = (amp, s, gamma * nu**gamma, -(gamma + 1.0))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        c = s - th
        scale = amp / ((1.0 - lm) * th)
        x_cut, tail = _truncation_and_tail(amp, s, c, scale, lm, gamma, nu)
        # closed-form segment below the Pareto onset: h is purely exponential
        flat = c == 0.0
        seg0 = -np.expm1(-c * nu) / np.where(flat, 1.0, c)
        seg0[flat] = nu
        i_low = scale * seg0

        # uniform panels on [nu, X]
        breaks = nu + (x_cut - nu)[:, None] * _PANEL_FRACTIONS
        lo = breaks[:, :-1]
        width = breaks[:, 1:] - lo

        x = lo[:, :, None] + width[:, :, None] * _T01
        vals, excluded = _integrand(x, th, lm, *integrand_args)
        coarse = np.einsum("pqn,n,pq->p", vals[:, :, : _T0.size], _W0, width)
        value = np.einsum("pqn,n,pq->p", vals[:, :, _T0.size :], _W1, width)
        # relative floor: absolute targets below float64 roundoff are unreachable
        # once the integral itself is large
        limit = np.maximum(0.5 * QUAD_TOLERANCE, 1e-13 * np.abs(value))
        converged = np.abs(value - coarse) < limit

        for level in range(2, _MAX_LEVELS + 1):
            refine = (~(converged | excluded)).nonzero()[0]
            if refine.size == 0:
                break
            if level == _MAX_LEVELS:
                raise QuadratureFailure(
                    "model integral did not reach the error target "
                    f"{QUAD_TOLERANCE:g} within {_MAX_LEVELS} refinement levels"
                )
            t_nodes, w_nodes = _gl_rule(_BASE_ORDER * 2**level)
            x = lo[refine, :, None] + width[refine, :, None] * t_nodes
            vals, bad = _integrand(x, th[refine], lm[refine], *integrand_args)
            excluded[refine] |= bad
            finer = np.einsum("pqn,n,pq->p", vals, w_nodes, width[refine])
            limit = np.maximum(0.5 * QUAD_TOLERANCE, 1e-13 * np.abs(finer))
            converged[refine] = np.abs(finer - value[refine]) < limit
            value[refine] = finer

    total = i_low + value + tail - 2.0
    total[excluded] = np.nan
    out[idx] = total
    return out


def _truncation_and_tail(
    amp: float,
    s: float,
    c: np.ndarray,
    exp_scale: np.ndarray,
    lam: np.ndarray,
    gamma: float,
    nu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation point with tail < TAIL_TOLERANCE, plus the tail estimate,
    given c = s - theta and exp_scale = amp / ((1 - lambda) theta).

    The exponential comparison density bounds the tail whenever theta < s
    (exact at lambda = 0, an upper bound for lambda > 0, the documented
    estimate for lambda < 0).  When it is unusable or too slow the Pareto
    floor h >= lam * r takes over (lambda > 0 only).  The caller holds the
    floating-point errstate.
    """
    x_floor = nu + 1.0
    bounded = c > 0.0
    c_safe = np.where(bounded, c, 1.0)
    x_exp = np.where(
        bounded, (np.log(exp_scale) - np.log(TAIL_TOLERANCE * c_safe)) / c_safe, np.inf
    )
    x_cut = np.maximum(x_floor, x_exp)
    # Pareto fixed point only where the exponential bound is missing or slow
    need_par = (lam > 0.0) & ((c <= 0.0) | (x_exp > 150.0))
    pareto = need_par.any()
    if pareto:
        a_log = np.log(amp / (lam[need_par] * gamma * nu**gamma))
        floor_p = max(x_floor, 2.0 * (gamma + 1.0) / s)
        x_iter = np.full(a_log.shape, floor_p)
        for _ in range(4):
            denom = s - (gamma + 1.0) / x_iter
            x_iter = np.maximum(
                floor_p,
                (a_log + (gamma + 1.0) * np.log(x_iter) - np.log(TAIL_TOLERANCE * denom)) / s,
            )
        x_cut[need_par] = np.minimum(x_cut[need_par], x_iter)
    tail = np.where(bounded, exp_scale * np.exp(-c_safe * x_cut) / c_safe, np.inf)
    if pareto:
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

    Precomputes the Pareto density and e^(alpha x) at the sample, so each
    parameter evaluation costs one exp over the sample plus the model
    quadrature.
    """

    def __init__(self, x: np.ndarray, alpha: float, spec: ContaminationSpec) -> None:
        self.x = x
        self.alpha = alpha
        self.spec = spec
        self.r_x = pareto_pdf(x, spec.pareto_gamma, spec.pareto_nu)
        with np.errstate(over="ignore"):
            self.e_x = np.exp(alpha * x)
        self.evaluations = 0

    def batch(self, thetas: np.ndarray, lams: np.ndarray) -> np.ndarray:
        """Objective values; NaN marks excluded points."""
        self.evaluations += thetas.shape[0]
        integrals = _integral_batch(self.alpha, thetas, lams, self.spec)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = _density_ratio(
                self.x, self.alpha, thetas[:, None], lams[:, None], self.r_x, self.e_x
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


def _nelder_mead(
    x0: Iterable[float], lower: Iterable[float], upper: Iterable[float], max_evals: int
) -> Generator[list[list[float]], list[float], tuple[np.ndarray, float, int]]:
    """Bounded Nelder-Mead minimization, step for step as scipy 1.17 runs it.

    Yields each batch of points it needs evaluated, as a list of points
    (lists of floats), and receives their values through ``send``; returns
    (x, f(x), evaluations).  As in scipy, the initial simplex steps 5 % along
    each axis and reflects vertices above ``upper`` into the box, every trial
    point is clipped to the box, no evaluation goes past ``max_evals``, a
    step cut short by the limit is abandoned and a shrink cut short keeps
    the vertices it could evaluate.  (scipy also moves the next vertex
    before it finds the budget spent; that vertex never comes first in the
    sort, so the result cannot show it.)

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

    x0 = [float(v) for v in x0]
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
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    thetas: np.ndarray,
    lams: np.ndarray,
    values: np.ndarray,
    spec: ContaminationSpec,
    settings: SearchSettings,
) -> tuple[float, tuple[float, float], np.ndarray]:
    """Raise the best grid point by Nelder-Mead from the ``nm_starts`` best ones.

    ``values`` holds ``objective`` on the grid (NaN = excluded).  The
    searches maximize ``objective`` over the box of the rate interval and
    the open mixing interval, with excluded points penalized.  They run in
    lockstep: each round gathers the points every live search asks for
    into one ``objective(thetas, lams)`` call.  Returns (value, (theta,
    lambda), start indices); a search replaces the grid optimum only when
    it ends strictly higher, earlier starts winning ties.
    """
    finite = np.isfinite(values)
    if not finite.any():
        raise OptimizationFailure("no admissible candidate in the mixture-parameter grid")
    order = np.argsort(-values[finite], kind="stable")
    starts = np.flatnonzero(finite)[order[: settings.nm_starts]]
    i_best = np.nanargmax(values)
    best_value = float(values[i_best])
    best_point = (float(thetas[i_best]), float(lams[i_best]))
    eps = 1e-9  # lambda stays inside the open mixing interval
    lower = (spec.theta_lo, spec.lambda_lo + eps)
    upper = (spec.theta_hi, spec.lambda_hi - eps)
    searches = [
        _nelder_mead((thetas[i], lams[i]), lower, upper, settings.nm_max_evals) for i in starts
    ]
    pending = [(j, next(search)) for j, search in enumerate(searches)]
    results = [None] * len(searches)
    while pending:
        points = np.array([p for _, request in pending for p in request]).reshape(-1, 2)
        costs = [
            -v if math.isfinite(v) else _EXCLUDED_PENALTY
            for v in objective(points[:, 0], points[:, 1]).tolist()
        ]
        offset, waiting = 0, []
        for j, request in pending:
            try:
                waiting.append((j, searches[j].send(costs[offset : offset + len(request)])))
            except StopIteration as stop:
                results[j] = stop.value
            offset += len(request)
        pending = waiting
    for x, fun, _ in results:
        if -fun > best_value:
            best_value = float(-fun)
            best_point = (float(x[0]), float(x[1]))
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
    adjoined) followed by simplex refinement from the best
    ``settings.nm_starts`` grid points.  The anchor value is exactly 0, so
    the result is never negative.
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
        inner.batch, thetas, lams, values, spec, settings
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

    def sup_side(ts: np.ndarray, ls: np.ndarray) -> np.ndarray:
        return np.array([min_over_alpha(float(t), float(l)) for t, l in zip(ts, ls)])

    sup_inf, _, _ = _grid_then_refine(
        sup_side, thetas, lams, sup_side(thetas, lams), spec, settings
    )
    return abs(inf_sup - sup_inf)
