"""Reference forms that the tests check the package against.

Nothing in ``chi2dual`` calls these.  Each one restates an identity of the
dual chi-square estimate in a second, independent form:

* the dual objective and the target integral of the optimal dual function,
  whose difference at the optimum is chi2_n;
* the cumulative indicator family 1{x_j <= u_i}, a unit-triangular change
  of basis of the cell family with the same quadratic form;
* the null covariance of the cell family, its rank-one factor and the
  eigenvalue envelope [p_(m+1) min p_i, max p_i];
* the d = 2 Pearson table-minimum over tables with the hypothesized
  margins, which equals n * chi2_n of the cell family when no joint cell is
  empty (the paper's contingency-table link), with the map from its
  multipliers to the dual coefficients;
* the standardized sieve statistic and the two growth-rate sequences of a
  family-size rule k(n);
* golden-section minimization one point at a time, which profiles the
  rate in the reverse order of ``minimax_gap``;
* the contamination dual objective at a point, from the closed forms of
  f_alpha and h alone: the model integral by ``scipy.integrate.quad``, and
  mean(g) + mean(g^2)/4 on the sample in plain numpy;
* the contamination lambda-score s(alpha) = mean(r(x) e^(alpha x) / alpha - 1)
  at the anchor (alpha, 0), in plain numpy from the closed form of r;
* the contamination statistic's inf-sup against its sup-inf
  (``minimax_gap``): the forward order is the package's own, the reverse
  order profiles the rate by ``golden_min`` at each mixture point and
  raises the best grid points by scipy's bounded Nelder-Mead.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import scipy.integrate
from scipy.optimize import minimize

from chi2dual import (
    ConstraintFamily,
    ContaminationSpec,
    DualSolution,
    Sample,
    SearchSettings,
    chi2_quadratic,
    contamination_test,
    default_m,
    moment_vectors,
)
from chi2dual.contamination import _candidate_grid, _InnerObjective, _starts

# Nelder-Mead tolerance on the simplex values of ``_simplex_max``
OBJECTIVE_TOLERANCE = 1e-8


def dual_objective(f_vals: np.ndarray, target_integral: float) -> float:
    """Target integral of f minus its conjugate value mean(f) + mean(f^2)/4."""
    f_vals = np.asarray(f_vals, dtype=float)
    return float(target_integral) - (np.mean(f_vals) + 0.25 * np.mean(f_vals * f_vals))


def dual_target_integral(dual: DualSolution, fam: ConstraintFamily) -> float:
    """a0 + sum a_i target_i: the dual function integrated against any measure
    that meets the constraints."""
    return dual.a0 + float(dual.a @ fam.targets)


# ---------------------------------------------------------------------------
# Indicator families and the null covariance of the cell family

def _cumulative_indicator(x: np.ndarray, j: int, u: float) -> np.ndarray:
    return (x[:, j] <= u).astype(float)


def cumulative_indicator_family(cuts: np.ndarray, d: int) -> ConstraintFamily:
    """1{x_j <= u_i} with targets u_i, coordinate-major like the cell family."""
    functions = [partial(_cumulative_indicator, j=j, u=u) for j in range(d) for u in cuts]
    return ConstraintFamily(tuple(functions), np.tile(cuts, d))


def u_matrix(p: np.ndarray) -> np.ndarray:
    """Rank-one block sqrt(p_i p_l) over the first m cell widths."""
    root = np.sqrt(p)
    return np.outer(root, root)


def s0_matrix(p: np.ndarray, d: int) -> np.ndarray:
    """Null covariance of the cell family: d diagonal blocks diag(p) - p p'.

    ``p`` holds the first m cell widths; each block is the multinomial
    covariance of those cells, D^(1/2) (I - U) D^(1/2) with U = u_matrix(p).
    """
    return np.kron(np.eye(d), np.diag(p) - np.outer(p, p))


def null_eigen_envelope(cell_probs: np.ndarray, d: int) -> tuple[np.ndarray, float, float]:
    """Eigenvalues of s0_matrix and the envelope [p_(m+1) min p_i, max p_i]."""
    p = cell_probs[:-1]
    eigs = np.linalg.eigvalsh(s0_matrix(p, d))
    return eigs, float(cell_probs[-1] * p.min()), float(p.max())


# ---------------------------------------------------------------------------
# d = 2: cell counts and the fixed-margin Pearson minimization

def cell_counts_2d(data: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Joint counts N[i, l] of the (m+1) x (m+1) cells; cell i is (u_i, u_(i+1)]."""
    rows = np.searchsorted(cuts, data[:, 0], side="left")
    cols = np.searchsorted(cuts, data[:, 1], side="left")
    counts = np.zeros((cuts.size + 1, cuts.size + 1))
    np.add.at(counts, (rows, cols), 1.0)
    return counts


def pearson_min_form(
    counts: np.ndarray, p: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000
) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize sum (n q_il - N_il)^2 / N_il over tables q with both margins p.

    The minimizer is q_il = N_il (1 + a_i + b_l) / n; the multipliers a, b
    come from alternating row and column updates until neither moves by
    ``tol``.  Empty cells drop out of the sum.  Returns (value, a, b).
    """
    n = counts.sum()
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)
    a = b = np.zeros(p.size)
    for _ in range(max_iter):
        a_new = (n * p - row_sums - counts @ b) / row_sums
        b_new = (n * p - col_sums - counts.T @ a_new) / col_sums
        delta = max(np.abs(a_new - a).max(), np.abs(b_new - b).max())
        a, b = a_new, b_new
        if delta < tol:
            return float(np.sum(counts * (a[:, None] + b[None, :]) ** 2)), a, b
    raise AssertionError(f"margin multipliers did not converge in {max_iter} rounds")


def table_coefficients_to_dual(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Dual intercept 2(a_(m+1) + b_(m+1)) and coefficients 2(a_i - a_(m+1)),
    2(b_l - b_(m+1)) of the 2m cell indicators."""
    coeffs = np.concatenate((2.0 * (a[:-1] - a[-1]), 2.0 * (b[:-1] - b[-1])))
    return 2.0 * float(a[-1] + b[-1]), coeffs


# ---------------------------------------------------------------------------
# Sieve: standardized statistic and growth-rate sequences

def standardized_statistic(sample: Sample, fam: ConstraintFamily) -> float:
    """(n * chi2_n - k) / sqrt(2k) for a finite family."""
    n_chi2 = sample.n * chi2_quadratic(moment_vectors(sample, fam))
    return (n_chi2 - fam.k) / math.sqrt(2.0 * fam.k)


def rate_sequences(k_of_n, lambda1, bridge_rate, n_grid) -> tuple[list[float], list[float]]:
    """The normal-approximation and covariance-error sequences on ``n_grid``.

    lambda1(k)^(-1/2) k^(1/2) delta_n log n and lambda1(k)^(-1) k^(3/2) n^(-1/2);
    both must tend to zero for the standardized statistic to be
    asymptotically standard normal.
    """
    eigen_seq, cov_seq = [], []
    for n in n_grid:
        k = k_of_n(n)
        lam = lambda1(k)
        eigen_seq.append(lam**-0.5 * k**0.5 * bridge_rate(n) * math.log(n))
        cov_seq.append(k**1.5 / (lam * math.sqrt(n)))
    return eigen_seq, cov_seq


def decreasing(seq: list[float]) -> bool:
    return all(b <= a for a, b in zip(seq, seq[1:]))


def marginal_plan_sequences(d: int, n_grid) -> tuple[list[float], list[float]]:
    """``rate_sequences`` of the marginal rule k(n) = d * ``default_m(n)``:
    lambda1 = (m+1)^(-2), the null bound for a density bounded below by 1,
    and coupling rate n^(-1/2) for d <= 2, n^(-1/(2d)) above."""
    return rate_sequences(
        lambda n: d * default_m(n),
        lambda k: (k // d + 1.0) ** -2,
        lambda n: n**-0.5 if d <= 2 else n ** (-1.0 / (2.0 * d)),
        n_grid,
    )


def golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi], robust to +inf values; ``f``
    takes one point."""
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


# ---------------------------------------------------------------------------
# Contamination: the dual objective at a point from the closed forms

def quad_model_integral(alpha, theta, lam, gamma, nu):
    """int g f_alpha over (0, inf) by scipy.integrate.quad on the closed form
    of h, split at the Pareto onset nu."""

    def integrand(x):
        num = 2.0 * alpha * alpha * math.exp(-2.0 * alpha * x)
        den = (1.0 - lam) * theta * math.exp(-theta * x)
        if x > nu:
            den += lam * gamma * nu**gamma * x ** (-(gamma + 1.0))
        return num / den if num > 0.0 else 0.0

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    low = scipy.integrate.quad(integrand, 0.0, nu, **opts)[0]
    high = scipy.integrate.quad(integrand, nu, math.inf, **opts)[0]
    return low + high - 2.0


def contamination_objective(x, alpha, theta, lam, spec: ContaminationSpec) -> float:
    """int g f_alpha dx - mean(g) - mean(g^2)/4 on the sample x, with g = 2
    (f_alpha / h - 1), f_alpha = alpha e^(-alpha x) and h = (1 - lambda) theta
    e^(-theta x) + lambda gamma nu^gamma x^(-gamma - 1) 1{x > nu}."""
    gamma, nu = spec.pareto_gamma, spec.pareto_nu
    x = np.asarray(x, dtype=float)
    pareto = np.where(x > nu, gamma * nu**gamma * x ** (-(gamma + 1.0)), 0.0)
    h = (1.0 - lam) * theta * np.exp(-theta * x) + lam * pareto
    g = 2.0 * (alpha * np.exp(-alpha * x) / h - 1.0)
    integral = quad_model_integral(alpha, theta, lam, gamma, nu)
    return integral - (np.mean(g) + 0.25 * np.mean(g * g))


def contamination_score(x, alpha, spec: ContaminationSpec) -> float:
    """mean(r(x) / f_alpha(x) - 1) with r(x) = gamma nu^gamma x^(-gamma - 1)
    1{x > nu}: half of dJ/dlambda at the anchor (alpha, 0).  lambda >= 0 is a
    bound, so a statistic of exactly 0 at alpha_hat needs s(alpha_hat) <= 0;
    a far observation may make s overflow to +inf, which is its sign."""
    gamma, nu = spec.pareto_gamma, spec.pareto_nu
    x = np.asarray(x, dtype=float)
    r = np.where(x > nu, gamma * nu**gamma * x ** (-(gamma + 1.0)), 0.0)
    with np.errstate(over="ignore"):
        return float(np.mean(r * np.exp(alpha * x) / alpha - 1.0))


# ---------------------------------------------------------------------------
# Contamination: the two orders of the inf over the rate and the sup over
# the mixture parameters

def _simplex_max(f, start, lower, upper, max_evals) -> tuple[np.ndarray, float]:
    """Point and value of the maximum of ``f(theta, lam)`` on [lower, upper] by
    scipy's bounded Nelder-Mead from ``start``, ``max_evals`` calls at most,
    f not finite penalized."""

    def cost(p: np.ndarray) -> float:
        v = f(float(p[0]), float(p[1]))
        return -v if math.isfinite(v) else 1e30

    options = {"xatol": 1e-4, "fatol": OBJECTIVE_TOLERANCE, "maxfev": max_evals}
    result = minimize(cost, np.array(start, dtype=float), method="Nelder-Mead",
                      bounds=list(zip(lower, upper)), options=options)
    return result.x, -float(result.fun)


def minimax_gap(
    sample: Sample, spec: ContaminationSpec, settings: SearchSettings | None = None
) -> float:
    """|inf-sup - sup-inf| of the dual objective, computed numerically.

    The two nested orders should agree (the objective has a saddle over the
    compact rate interval and the admissible mixture set); this quantifies
    the agreement with the same tolerances the test itself uses.  The
    inf-sup is the statistic's ``chi2_value``.
    """
    settings = settings or SearchSettings()
    inf_sup = contamination_test(sample, spec, 0.05, settings).diagnostics["chi2_value"]
    x = sample.data[:, 0]

    # reversed order: for each point of the uncapped box, profile the rate
    # over the whole interval (+inf where lambda = 0 and theta >= 2 alpha),
    # then take the supremum; rates cut to theta <= 1.5 alpha per point
    # would couple the rate to the point and the orders would not agree
    def min_over_alpha(theta: float, lam: float) -> float:
        def at_alpha(alpha: float) -> float:
            inner = _InnerObjective(x, [alpha], spec)
            value = inner.values(np.zeros(1, dtype=int), np.array([theta]), np.array([lam]))[0][0]
            return math.inf if np.isnan(value) else float(value)

        lo, hi = spec.theta_lo, spec.theta_hi
        _, value = golden_min(at_alpha, lo, hi, settings.alpha_tol * (hi - lo))
        return value if math.isfinite(value) else math.nan

    # drop the anchor point (specific to the forward order)
    thetas, lams = _candidate_grid(spec.theta_hi, spec.theta_hi, spec, settings)
    thetas, lams = thetas[:-1].tolist(), lams[:-1].tolist()
    values = np.array([min_over_alpha(t, l) for t, l in zip(thetas, lams)])
    sup_inf = float(np.nanmax(values[_starts(values, 1)]))
    box = (spec.theta_lo, 0.0), (spec.theta_hi, float(np.nextafter(spec.lambda_hi, 0.0)))
    for i in _starts(values, settings.nm_starts):
        refined = _simplex_max(min_over_alpha, (thetas[i], lams[i]), *box, settings.nm_max_evals)
        sup_inf = max(sup_inf, refined[1])
    return abs(inf_sup - sup_inf)
