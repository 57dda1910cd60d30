"""Contamination test: model quadrature, the inner supremum, minimax gap."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from chi2dual import (
    ContaminationSpec,
    DualGFunction,
    Sample,
    SearchSettings,
    chi2_simple,
    contamination_test,
    dual_objective_contam,
    minimax_gap,
    model_integral,
    rexp,
    rmixture,
)
from chi2dual.contamination import (
    OBJECTIVE_TOLERANCE,
    _candidate_grid,
    _grid_then_refine,
    _InnerObjective,
    _integral_batch,
    _nelder_mead,
)
from chi2dual.rng import Stream

SPEC = ContaminationSpec(theta_lo=0.5, theta_hi=2.0)


def exp_sample(seed: int, n: int) -> Sample:
    return Sample(rexp(Stream(seed), n, 1.0).reshape(-1, 1))


class TestModelIntegral:
    def test_negative_lambda_matches_quad(self):
        alpha, theta, lam = 2.0, 0.5, -0.05
        gamma, nu = SPEC.pareto_gamma, SPEC.pareto_nu

        def integrand(x):
            h = (1.0 - lam) * theta * math.exp(-theta * x)
            if x > nu:
                h += lam * gamma * nu**gamma * x ** (-(gamma + 1.0))
            return alpha * alpha * math.exp(-2.0 * alpha * x) / h

        # h changes sign near x = 19.5; past x = 12 the integrand is below
        # 1e-17, so the integral up to 12 is the admissible value
        opts = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
        low = scipy.integrate.quad(integrand, 0.0, nu, **opts)[0]
        high = scipy.integrate.quad(integrand, nu, 12.0, **opts)[0]
        expected = 2.0 * (low + high) - 2.0
        value = model_integral(DualGFunction(alpha, theta, lam, SPEC))
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("alpha, theta", [(1.0, 0.5), (1.0, 1.0), (1.5, 2.0), (0.6, 1.1)])
    def test_closed_form_at_zero_lambda(self, alpha, theta):
        expected = 2.0 * alpha**2 / (theta * (2.0 * alpha - theta)) - 2.0
        value = model_integral(DualGFunction(alpha, theta, 0.0, SPEC))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_zero_lambda_diverges_past_twice_alpha(self):
        assert model_integral(DualGFunction(0.6, 1.5, 0.0, SPEC)) == math.inf


class TestChi2Simple:
    @pytest.mark.parametrize("alpha", [0.7, 1.0, 1.6])
    def test_value_and_search_certificate(self, alpha):
        result = chi2_simple(exp_sample(21, 150), alpha, SPEC)
        assert result.value >= 0.0
        assert len(result.start_points) == SearchSettings().nm_starts
        for start in result.start_points:
            assert len(start) == 4
            assert start[2] == alpha
        # the refinement starts from the grid points, so it never ends lower
        assert result.value >= max(p[3] for p in result.start_points)


@pytest.mark.parametrize("lam", [0.0, 0.15])
def test_statistic_is_n_times_public_dual_objective(lam):
    # the search and dual_objective_contam share h and the conjugate, so the
    # identity holds bit for bit, not just to rounding
    x = rmixture(Stream(1), 200, 1.0, lam, SPEC.pareto_gamma, SPEC.pareto_nu)
    sample = Sample(x.reshape(-1, 1))
    report = contamination_test(sample, SPEC, 0.05)
    diag = report.diagnostics
    g = DualGFunction(diag["alpha_hat"], diag["theta_hat"], diag["lambda_hat"], SPEC)
    assert report.statistic == sample.n * max(dual_objective_contam(g, sample), 0.0)


def test_minimax_gap_finite_and_nonnegative():
    settings = SearchSettings(
        inner_grid=4, nm_starts=1, nm_max_evals=20, outer_coarse=3, alpha_tol=0.05
    )
    gap = minimax_gap(exp_sample(22, 80), SPEC, settings)
    assert np.isfinite(gap) and gap >= 0.0


# the box of the inner search: rate interval by the open mixing interval
NM_LOWER = np.array([SPEC.theta_lo, SPEC.lambda_lo + 1e-9])
NM_UPPER = np.array([SPEC.theta_hi, SPEC.lambda_hi - 1e-9])


def _smooth(p):
    return (p[0] - 1.3) ** 2 + 3.0 * (p[1] - 0.2) ** 2 + 0.5 * p[0] * p[1]


def _plateau(p):
    # excluded points carry the search's penalty value
    return 1e30 if p[1] > 1.2 - p[0] else (p[0] - 0.9) ** 2 + (p[1] + 0.1) ** 2


def _steps(p):
    return float(np.floor(3.0 * p[0]) + np.floor(4.0 * p[1]))


NM_STARTS = [
    (SPEC.theta_lo, 0.0),
    (SPEC.theta_hi, 0.3),
    (1.2, NM_LOWER[1]),
    (0.8, NM_UPPER[1]),
    (SPEC.theta_hi, NM_UPPER[1]),
    (SPEC.theta_lo, NM_LOWER[1]),
    (1.25, 0.1),
    (0.6, -0.2),
    (1.9, 0.7),
    (1.0, 0.0),
]


@pytest.mark.parametrize("max_evals", [-1, 0, 1, 2, 3, 4, 5, 6, 7, 9, 13, 20, 60])
@pytest.mark.parametrize("f", [_smooth, _plateau, _steps])
def test_nelder_mead_matches_scipy(f, max_evals):
    # the maxfev values stop the search inside the initial simplex, an
    # expansion, a contraction and a shrink; scipy's bounded Nelder-Mead is
    # the oracle
    options = {"xatol": 1e-4, "fatol": OBJECTIVE_TOLERANCE, "maxfev": max_evals}
    bounds = list(zip(NM_LOWER, NM_UPPER))
    for start in NM_STARTS:
        search = _nelder_mead(np.array(start), NM_LOWER, NM_UPPER, max_evals)
        points = next(search)
        try:
            while True:
                points = search.send(np.array([f(p) for p in points]))
        except StopIteration as stop:
            x, fun, evals = stop.value
        expected = scipy.optimize.minimize(
            f, np.array(start), method="Nelder-Mead", bounds=bounds, options=options
        )
        assert (x.tolist(), fun, evals) == (expected.x.tolist(), expected.fun, expected.nfev)


def test_inner_objective_rows_do_not_depend_on_the_batch():
    # the lockstep search evaluates its points in shared batches
    inner = _InnerObjective(rexp(Stream(5), 200, 1.0), 2.0, SPEC)
    # lambda < 0, lambda > 0, lambda = 0, a mixture density that turns
    # negative (NaN) and a divergent integral (lambda = 0, theta >= 2 alpha)
    thetas = np.array([0.5, 0.9, 2.0, 2.0, 4.0, 1.1])
    lams = np.array([-0.05, 0.3, 0.0, -0.2, 0.0, 0.1])
    assert _integral_batch(2.0, thetas[4:5], lams[4:5], SPEC)[0] == math.inf
    together = inner.batch(thetas, lams)
    alone = np.concatenate([inner.batch(thetas[i : i + 1], lams[i : i + 1]) for i in range(6)])
    assert together.tobytes() == alone.tobytes()
    assert np.array_equal(np.isnan(together), [False, False, False, True, True, False])


def test_lockstep_starts_match_separate_searches():
    x = rmixture(Stream(3), 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    alpha = 1.0
    result = chi2_simple(Sample(x.reshape(-1, 1)), alpha, SPEC)
    inner = _InnerObjective(x, alpha, SPEC)
    thetas, lams = _candidate_grid(alpha, SPEC, SearchSettings())
    values = inner.batch(thetas, lams)
    best = None
    for theta, lam, _, _ in result.start_points:
        # a grid holding this start alone makes it the only search
        i = np.flatnonzero((thetas == theta) & (lams == lam))[0]
        only = np.full_like(values, np.nan)
        only[i] = values[i]
        value, point, _ = _grid_then_refine(
            inner.batch, thetas, lams, only, SPEC, SearchSettings(nm_starts=1)
        )
        if best is None or value > best[0]:
            best = (value, *point)
    assert len(result.start_points) == 3
    assert (result.value, result.theta_hat, result.lambda_hat) == best


def test_far_observation_keeps_the_zero_lambda_line():
    # f_alpha and the lambda = 0 mixture both underflow at x = 2000; their
    # ratio must not turn into 0 / 0 and exclude the null line
    x = rexp(Stream(101), 200, 1.0)
    x[0] = 2000.0
    alpha = 1.0
    inner = _InnerObjective(x, alpha, SPEC)
    thetas, lams = _candidate_grid(alpha, SPEC, SearchSettings())
    values = inner.batch(thetas, lams)
    assert values[-1] == 0.0  # the anchor (alpha, 0)
    assert np.all(np.isfinite(values[(lams == 0.0) & (thetas <= alpha)]))
