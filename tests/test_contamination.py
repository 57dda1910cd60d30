"""Contamination test: model quadrature, the inner supremum, minimax gap."""

import math

import numpy as np
import pytest
import scipy.integrate

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
