"""Correctness oracles for the benchmark outputs.

Each oracle recomputes a reported number along a path that does not share
the code being timed: dense indicator matrices are replaced by cell counts,
Cholesky solves by ``np.linalg.solve``, Gauss-Legendre panels by
``scipy.integrate.quad``, and the package's own reference laws by
``scipy.stats``.  A mismatch raises ``OracleMismatch``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.integrate
import scipy.stats

from chi2dual import contamination, core, montecarlo, rng

REL_TOL = 1e-9


class OracleMismatch(AssertionError):
    pass


def expect_close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    """|got - want| <= rel * max(1, |want|); the floor keeps values near 0 sane."""
    if not (math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want))):
        raise OracleMismatch(f"{what}: got {got!r}, oracle {want!r}")


# ---------------------------------------------------------------------------
# Linear moment constraints: n nu' S^{-1} nu by a direct dense solve

def linear_statistic(data: np.ndarray, functions, targets) -> float:
    f = np.column_stack([fn(data) for fn in functions])
    means = f.mean(axis=0)
    centered = f - means
    s = centered.T @ centered / f.shape[0]
    nu = np.asarray(targets, dtype=float) - means
    return float(data.shape[0] * nu @ np.linalg.solve(s, nu))


# ---------------------------------------------------------------------------
# Marginal sieve test from cell counts and two-way tables

def default_m(n: int) -> int:
    return max(2, math.ceil(n ** 0.25 - 1e-9))


def marginal_scaled_statistic(u: np.ndarray, m: int) -> float:
    """n * chi2_n of the cell-indicator family, built from counts alone.

    ``u`` holds the probability-integral-transformed data in [0,1]^d.  The
    covariance of the first m cell indicators of coordinates j and l is the
    two-way cell table of (j, l) over n minus the outer product of the
    marginal cell frequencies (diag(p) - p p' when j = l); nu is the cell
    width minus the cell frequency.
    """
    n, d = u.shape
    size = m + 1
    cuts = np.arange(1, size) / float(size)
    widths = np.diff(np.concatenate(([0.0], cuts, [1.0])))[:m]
    cells = np.column_stack([np.searchsorted(cuts, u[:, j], side="left") for j in range(d)])
    freq = [np.bincount(cells[:, j], minlength=size)[:m] / n for j in range(d)]
    s = np.empty((d * m, d * m))
    for j in range(d):
        for l in range(j, d):
            if j == l:
                block = np.diag(freq[j]) - np.outer(freq[j], freq[j])
            else:
                table = np.bincount(cells[:, j] * size + cells[:, l], minlength=size * size)
                block = table.reshape(size, size)[:m, :m] / n - np.outer(freq[j], freq[l])
            s[j * m:(j + 1) * m, l * m:(l + 1) * m] = block
            s[l * m:(l + 1) * m, j * m:(j + 1) * m] = block.T
    nu = np.concatenate([widths - f for f in freq])
    return float(n * nu @ np.linalg.solve(s, nu))


def check_marginal_report(u: np.ndarray, report: dict) -> None:
    """Check a marginal_test report (wire format) against the counts oracle."""
    n, d = u.shape
    m = default_m(n)
    k = d * m
    diag = report["diagnostics"]
    expect_close(diag["m"], m, "marginal m")
    expect_close(diag["k"], k, "marginal k")
    scaled = marginal_scaled_statistic(u, m)
    expect_close(diag["scaled_statistic"], scaled, "marginal n*chi2")
    standardized = (scaled - k) / math.sqrt(2.0 * k)
    # the relative error of n*chi2 carries over, scaled by 1/sqrt(2k)
    expect_close(report["statistic"], standardized, "marginal statistic",
                 rel=REL_TOL * max(1.0, scaled / math.sqrt(2.0 * k)))
    check_decision(report, float(scipy.stats.norm.sf(report["statistic"])))


def check_decision(report: dict, p_value: float) -> None:
    expect_close(report["p_value"], p_value, "p-value")
    if report["reject"] != (report["p_value"] < report["alpha"]):
        raise OracleMismatch(f"reject={report['reject']} disagrees with p < alpha")


def check_linear_report(data: np.ndarray, functions, targets, report: dict) -> None:
    stat = linear_statistic(data, functions, targets)
    expect_close(report["statistic"], stat, "linear statistic", rel=REL_TOL)
    check_decision(report, float(scipy.stats.chi2.sf(report["statistic"], len(targets))))


# ---------------------------------------------------------------------------
# Contamination test: objective at the reported optimum, quadrature by quad

def model_integral_quad(alpha: float, theta: float, lam: float, gamma: float, nu: float) -> float:
    """int g f_alpha over (0, inf) with g = 2 (f_alpha / h - 1), by adaptive quad."""

    def integrand(x: float) -> float:
        num = alpha * alpha * math.exp(-2.0 * alpha * x)
        if num == 0.0:
            return 0.0
        den = (1.0 - lam) * theta * math.exp(-theta * x)
        if x > nu:
            den += lam * gamma * nu ** gamma * x ** (-(gamma + 1.0))
        return num / den

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    low = scipy.integrate.quad(integrand, 0.0, nu, **opts)[0]
    high = scipy.integrate.quad(integrand, nu, math.inf, **opts)[0]
    return 2.0 * (low + high) - 2.0


def check_contam_report(x: np.ndarray, report, spec) -> None:
    """Statistic = n * dual objective at (alpha_hat, theta_hat, lambda_hat).

    The objective is recomputed from the public ``dual_objective_contam``
    and its model integral is checked against ``scipy.integrate.quad``.
    """
    diag = report.diagnostics
    g = contamination.DualGFunction(diag["alpha_hat"], diag["theta_hat"], diag["lambda_hat"], spec)
    sample = core.Sample(x.reshape(-1, 1))
    objective = contamination.dual_objective_contam(g, sample)
    expect_close(report.statistic, x.shape[0] * max(objective, 0.0), "contamination statistic")
    quad = model_integral_quad(g.alpha, g.theta, g.lam, spec.pareto_gamma, spec.pareto_nu)
    expect_close(contamination.model_integral(g), quad, "model integral vs quad")
    check_decision(report.to_json_dict(), float(scipy.stats.chi2.sf(report.statistic, 1)))


# ---------------------------------------------------------------------------
# Calibration plans: every replicate statistic, KS distance and rejection rate

def _replicate_statistic(scenario: str, n: int, params: dict, stream) -> float:
    """Regenerate one replicate with the public generators and recompute it."""
    if scenario == "linear_null":
        x = montecarlo.rnormal(stream, n).reshape(-1, 1)
        fns = (lambda a: a[:, 0], lambda a: a[:, 0] ** 2, lambda a: a[:, 0] ** 3)
        return linear_statistic(x, fns, [0.0, 1.0, 0.0])
    if scenario == "linear_alt":
        x = stream.uniforms(n).reshape(-1, 1)
        return linear_statistic(x, (lambda a: a[:, 0],), [0.25])
    if scenario in ("marginal_null", "marginal_alt"):
        d = int(params.get("d", 2))
        u = montecarlo.runif_d(stream, n, d)
        if scenario == "marginal_alt":
            u = u.copy()
            u[:, 0] = montecarlo.rbeta22(stream.derive(0xB22), n)
        m = default_m(n)
        return (marginal_scaled_statistic(u, m) - d * m) / math.sqrt(2.0 * d * m)
    raise ValueError(f"no oracle for scenario {scenario!r}")


def _reference_law(scenario: str):
    if scenario == "linear_null":
        return scipy.stats.chi2(3)
    if scenario == "linear_alt":
        return scipy.stats.chi2(1)
    return scipy.stats.norm()


def check_plan_report(report: dict) -> None:
    """Check a CalibrationReport (wire format) replicate by replicate."""
    plan = report["plan"]
    failed = set(report["failed_replicates"])
    if report["n_failures"] != len(failed):
        raise OracleMismatch("n_failures disagrees with failed_replicates")
    kept = [r for r in range(plan["replicates"]) if r not in failed]
    stats = report["statistics"]
    if len(stats) != len(kept):
        raise OracleMismatch(f"{len(stats)} statistics for {len(kept)} replicates")
    for r, got in zip(kept, stats):
        stream = rng.Stream(rng.replicate_seed(plan["base_seed"], r))
        want = _replicate_statistic(plan["scenario"], plan["n"], plan["params"], stream)
        expect_close(got, want, f"{plan['scenario']} replicate {r}")
    law = _reference_law(plan["scenario"])
    ks = scipy.stats.kstest(stats, law.cdf).statistic
    expect_close(report["ks_distance"], float(ks), "KS distance")
    rejections = sum(float(law.sf(v)) < plan["alpha"] for v in stats)
    expect_close(report["rejection_rate"], rejections / len(stats), "rejection rate")
