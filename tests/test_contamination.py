"""Contamination test: model quadrature, the inner supremum, minimax gap.

The minimax gap and the Nelder-Mead that its reverse order runs are
``reference.minimax_gap`` and ``reference._simplex_max``."""

import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    contamination,
    contamination_test,
    dual_objective_contam,
    model_integral,
    rexp,
    rmixture,
)
from chi2dual.contamination import (
    _ROUNDING,
    THETA_CAP,
    Chi2SimpleResult,
    _candidate_grid,
    _chi2_lockstep,
    _grid_then_refine,
    _inf_sup,
    _InnerObjective,
)
from chi2dual.errors import InvalidInput, NonPositiveDensity, QuadratureFailure
from chi2dual.rng import Stream, replicate_seed
from reference import (
    OBJECTIVE_TOLERANCE,
    _simplex_max,
    contamination_objective,
    contamination_score,
    minimax_gap,
    quad_model_integral,
)

SPEC = ContaminationSpec(theta_lo=0.5, theta_hi=2.0)


def exp_sample(seed: int, n: int) -> Sample:
    return Sample(rexp(Stream(seed), n, 1.0).reshape(-1, 1))


def integrals_at(alpha, thetas, lams, spec=SPEC):
    # the model integral at one rate for every point, as model_integral
    # computes it: the objective at that rate on an empty sample
    inner = _InnerObjective(np.empty(0), [alpha], spec)
    return inner.integrals(np.zeros(len(thetas), dtype=int), thetas, lams)[0]


class TestModelIntegral:
    def test_negative_lambda_is_refused(self):
        # h is positive at every quadrature node of this point (the integral
        # is truncated near x = 10.3) but changes sign near x = 19.5: a weight
        # below 0 is outside the dual class by rule
        alpha, theta, lam = 2.0, 0.5, -0.05
        gamma, nu = SPEC.pareto_gamma, SPEC.pareto_nu

        def h(x):
            pareto = gamma * nu**gamma * x ** (-(gamma + 1.0))
            return (1.0 - lam) * theta * math.exp(-theta * x) + lam * pareto

        assert scipy.optimize.brentq(h, 12.0, 30.0) == pytest.approx(19.5, abs=0.1)
        with pytest.raises(NonPositiveDensity, match="lambda=-0.05"):
            model_integral(DualGFunction(alpha, theta, lam, SPEC))

    @pytest.mark.parametrize("alpha, theta", [(1.0, 0.5), (1.0, 1.0), (1.5, 2.0), (0.6, 1.1)])
    def test_closed_form_at_zero_lambda(self, alpha, theta):
        expected = 2.0 * alpha**2 / (theta * (2.0 * alpha - theta)) - 2.0
        value = model_integral(DualGFunction(alpha, theta, 0.0, SPEC))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_zero_lambda_diverges_past_twice_alpha(self):
        assert model_integral(DualGFunction(0.6, 1.5, 0.0, SPEC)) == math.inf

    @pytest.mark.parametrize(
        "alpha, theta, lam, field",
        [(1.0, math.nan, 0.1, "theta"), (1.0, 1.0, math.nan, "lam"), (1.0, math.inf, 0.1, "theta")],
    )
    def test_non_finite_parameter_names_the_field(self, alpha, theta, lam, field):
        with pytest.raises(InvalidInput, match=f"^{field} must be finite"):
            DualGFunction(alpha, theta, lam, SPEC)


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
    # dual_objective_contam is a one-row call of the search's objective, so
    # the identity that the benchmark's oracle checks holds bit for bit
    x = rmixture(Stream(1), 200, 1.0, lam, SPEC.pareto_gamma, SPEC.pareto_nu)
    sample = Sample(x.reshape(-1, 1))
    report = contamination_test(sample, SPEC, 0.05)
    diag = report.diagnostics
    g = DualGFunction(diag["alpha_hat"], diag["theta_hat"], diag["lambda_hat"], SPEC)
    assert report.statistic == sample.n * max(dual_objective_contam(g, sample), 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.15], ids=["null", "alt"])
@pytest.mark.parametrize("replicate", range(6))
def test_statistic_matches_the_reference_objective(lam, replicate):
    # the objective at the reported optimum from the closed forms alone (quad
    # and plain numpy); the first six seed-7 samples of contam_null and
    # contam_alt (n = 200) read at most 4.9e-16
    x = rmixture(Stream(replicate_seed(7, replicate)), 200, 1.0, lam, SPEC.pareto_gamma,
                 SPEC.pareto_nu)
    report = contamination_test(Sample(x.reshape(-1, 1)), SPEC, 0.05)
    diag = report.diagnostics
    reference = contamination_objective(
        x, diag["alpha_hat"], diag["theta_hat"], diag["lambda_hat"], SPEC
    )
    assert abs(report.statistic / x.size - max(reference, 0.0)) <= 1e-12


def test_theta_derivative_at_the_anchor_is_the_closed_form():
    # at (theta, lambda) = (alpha, 0), rho = f_alpha / h = 1 on the sample and
    # d/dtheta of the model integral is 0, so dJ/dtheta = -mean(d rho^2 /
    # dtheta) = 2 / alpha - 2 mean(x); the rates keep clear of 1 / mean(x),
    # where it vanishes and a relative error says nothing
    alphas = np.array([0.5, 0.7, 1.3, 1.6, 2.0])
    for replicate in range(10):
        x = rexp(Stream(replicate_seed(7, replicate)), 200, 1.0)
        grad = _InnerObjective(x, alphas, SPEC).batch(np.arange(alphas.size), alphas,
                                                        np.zeros(alphas.size))[1]
        expected = 2.0 / alphas - 2.0 * x.mean()
        assert np.all(np.abs(grad[:, 0] - expected) <= 1e-12 * np.abs(expected)), replicate


@pytest.mark.parametrize("far", [2000.0, 400.0])
def test_objective_not_finite_on_the_sample_is_refused(far):
    # theta = 1.9 > alpha: h e^(alpha x) underflows at x = 2000, so g is +inf
    # there, and at x = 400 g is finite but g^2 overflows; the model integral
    # is finite (lambda = 0, theta < 2 alpha) in both cases
    x = rexp(Stream(101), 200, 1.0)
    x[0] = far
    g = DualGFunction(1.0, 1.9, 0.0, SPEC)
    assert math.isfinite(model_integral(g))
    with pytest.raises(InvalidInput, match=r"alpha=1\.0, theta=1\.9, lambda=0\.0"):
        dual_objective_contam(g, Sample(x.reshape(-1, 1)))


def test_minimax_gap_finite_and_nonnegative():
    settings = SearchSettings(
        inner_grid=4, nm_starts=1, nm_max_evals=20, outer_coarse=3, alpha_tol=0.05
    )
    gap = minimax_gap(exp_sample(22, 80), SPEC, settings)
    assert np.isfinite(gap) and gap >= 0.0


@pytest.mark.parametrize("lam", [0.0, 0.15], ids=["null", "alt"])
@pytest.mark.parametrize("replicate", [0, 1, 2])
def test_minimax_gap_vanishes_on_seed_7_samples(lam, replicate):
    # the first three contam_null and contam_alt samples of base seed 7
    # (n = 200), at the default search; sup-inf <= inf-sup holds for any
    # function, so a gap above the search's own noise means the two orders
    # searched different sets
    gap_bound = 1e-6
    x = rmixture(Stream(replicate_seed(7, replicate)), 200, 1.0, lam, SPEC.pareto_gamma,
                 SPEC.pareto_nu)
    assert minimax_gap(Sample(x.reshape(-1, 1)), SPEC) <= gap_bound


# the box of the inner search: the rate interval by the mixing interval
NM_LOWER = np.array([SPEC.theta_lo, 0.0])
NM_UPPER = np.array([SPEC.theta_hi, SPEC.lambda_hi - 1e-9])


def _smooth(p):
    return (p[0] - 1.3) ** 2 + 3.0 * (p[1] - 0.2) ** 2 + 0.5 * p[0] * p[1]


def _plateau(p):
    # excluded points carry the search's penalty value
    return 1e30 if p[1] > 1.2 - p[0] else (p[0] - 0.9) ** 2 + (p[1] + 0.1) ** 2


def _steps(p):
    return float(np.floor(3.0 * p[0]) + np.floor(4.0 * p[1]))


# the starts below lambda = 0, above lambda_hi and outside the rate interval
# are clipped into the box before the simplex is built
NM_STARTS = [
    (SPEC.theta_lo, 0.0),
    (SPEC.theta_hi, 0.3),
    (1.2, -0.1),
    (0.8, NM_UPPER[1]),
    (SPEC.theta_hi, NM_UPPER[1]),
    (SPEC.theta_lo, 1e-9),
    (1.25, 0.1),
    (0.6, 0.05),
    (1.9, 0.7),
    (1.0, 0.0),
    (0.8, SPEC.lambda_hi),
    (0.3, 0.2),
]


@pytest.mark.parametrize("max_evals", [-1, 0, 1, 2, 3, 4, 5, 6, 7, 9, 13, 20, 60])
@pytest.mark.parametrize("f", [_smooth, _plateau, _steps])
def test_nelder_mead_matches_scipy(f, max_evals):
    # reference.minimax_gap's reverse order maximizes by _simplex_max:
    # scipy's bounded Nelder-Mead under fixed rules (simplex tolerances 1e-4
    # and OBJECTIVE_TOLERANCE, the start clipped into the box, a budget,
    # excluded points penalized), which the minimization written out here restates;
    # the maxfev values stop the search inside the initial simplex, an
    # expansion, a contraction and a shrink
    options = {"xatol": 1e-4, "fatol": OBJECTIVE_TOLERANCE, "maxfev": max_evals}
    bounds = list(zip(NM_LOWER, NM_UPPER))

    def objective(theta, lam):
        # the value to maximize; _plateau's penalized region is excluded
        calls.append((theta, lam))
        cost = f((theta, lam))
        return math.nan if cost >= 1e30 else -cost

    for start in NM_STARTS:
        calls = []
        with warnings.catch_warnings():
            # scipy warns of a start outside the box, then clips it
            warnings.simplefilter("ignore", scipy.optimize.OptimizeWarning)
            x, value = _simplex_max(objective, start, NM_LOWER, NM_UPPER, max_evals)
            expected = scipy.optimize.minimize(
                f, np.array(start), method="Nelder-Mead", bounds=bounds, options=options
            )
        assert (x.tolist(), -value, len(calls)) == (expected.x.tolist(), expected.fun, expected.nfev)
        assert len(calls) <= max(max_evals, 0)
        assert all(NM_LOWER[k] <= p[k] <= NM_UPPER[k] for p in calls for k in (0, 1))


def test_inner_objective_rows_do_not_depend_on_the_batch():
    # the lockstep search evaluates the points of every rate in shared batches
    x = rexp(Stream(5), 200, 1.0)
    alphas = [2.0, 0.7, 1.3]
    inner = _InnerObjective(x, alphas, SPEC)
    # lambda < 0 (refused by rule: NaN), lambda > 0, lambda = 0, a divergent
    # integral (lambda = 0, theta >= 2 alpha) and lambda > 0 with
    # theta >= 2 alpha at two of the rates (the Pareto bound of the tail)
    thetas = np.tile([0.5, 0.9, 2.0, 2.0, 4.0, 1.1, 2.0, 4.0], 3)
    lams = np.tile([-0.05, 0.3, 0.0, -0.2, 0.0, 0.1, 0.3, 0.2], 3)
    rates = np.random.default_rng(0).permutation(np.repeat([0, 1, 2], 8))
    assert inner.integrals(np.zeros(1, dtype=int), thetas[4:5], lams[4:5])[0][0] == math.inf
    # values, gradients and Hessians
    together = inner.batch(rates, thetas, lams)
    alone = [inner.batch(rates[i : i + 1], thetas[i : i + 1], lams[i : i + 1]) for i in range(24)]
    # the objective of each rate on its own gives the same rows
    single = [
        _InnerObjective(x, [alphas[r]], SPEC).batch(np.zeros(1, dtype=int), thetas[i : i + 1],
                                                    lams[i : i + 1])
        for i, r in enumerate(rates)
    ]
    for k, rows in enumerate(together):
        assert rows.tobytes() == np.concatenate([a[k] for a in alone]).tobytes()
        assert rows.tobytes() == np.concatenate([a[k] for a in single]).tobytes()
    values_only = inner.batch(rates, thetas, lams, slopes=False)
    assert values_only[0].tobytes() == together[0].tobytes()
    assert np.isnan(values_only[1]).all() and np.isnan(values_only[2]).all()
    # derivatives wherever the point lies in the capped box, lambda = 0 included
    box = (lams >= 0.0) & (thetas <= np.minimum(2.0, 1.5 * np.array(alphas)[rates]))
    assert np.array_equal(np.isfinite(together[1]).all(axis=1), box)
    # and so does the model integral at one rate for all points
    per_rate = np.concatenate(
        [integrals_at(alphas[r], thetas[i : i + 1], lams[i : i + 1]) for i, r in enumerate(rates)]
    )
    assert inner.integrals(rates, thetas, lams)[0].tobytes() == per_rate.tobytes()
    assert inner.evaluations.tolist() == [24, 24, 24]  # 8 rows per rate, three times
    at_two = _InnerObjective(x, [2.0], SPEC).batch(np.zeros(6, dtype=int), thetas[:6], lams[:6])[0]
    assert np.array_equal(np.isnan(at_two), [True, False, False, True, True, False])


@pytest.mark.parametrize("lam", [0.0, 0.15])
def test_rates_searched_together_match_separate_searches(lam):
    x = rmixture(Stream(11), 200, 1.0, lam, SPEC.pareto_gamma, SPEC.pareto_nu)
    sample = Sample(x.reshape(-1, 1))
    # the coarse profile grid, the bracket ends and a rate at an interval end
    alphas = [0.5, 0.875, 1.25, 1.625, 2.0, 0.93, 1.41]
    together = _chi2_lockstep(x, alphas, SPEC, SearchSettings())
    assert together == [chi2_simple(sample, alpha, SPEC) for alpha in alphas]
    # the n = 200 starts and evaluation counts differ between rates
    assert len({result.n_evaluations for result in together}) > 1


def test_lockstep_starts_match_separate_searches():
    x = rmixture(Stream(3), 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    alpha = 1.0
    top = min(SPEC.theta_hi, THETA_CAP * alpha)
    result = chi2_simple(Sample(x.reshape(-1, 1)), alpha, SPEC)
    inner = _InnerObjective(x, [alpha], SPEC)
    thetas, lams = _candidate_grid(alpha, top, SPEC, SearchSettings())
    values = inner.batch(np.zeros(thetas.size, dtype=int), thetas, lams)[0]
    best = None
    for theta, lam, _, _ in result.start_points:
        # a grid holding this start alone makes it the only search
        i = np.flatnonzero((thetas == theta) & (lams == lam))[0]
        only = np.full_like(values, np.nan)
        only[i] = values[i]
        ((value, point, _),) = _grid_then_refine(
            inner.batch, [(thetas, lams, only)], [top], SPEC, SearchSettings(nm_starts=1)
        )
        if best is None or value > best[0]:
            best = (value, *point)
    assert len(result.start_points) == 3
    assert (result.value, result.theta_hat, result.lambda_hat) == best


def test_coarse_rate_grids_are_cached_read_only_per_spec(monkeypatch):
    # the outer_coarse rates' grids and model integrals do not depend on the
    # sample: one read-only entry per (spec, settings), bit for bit the
    # integrals of a fresh objective at the rate
    settings = SearchSettings()
    grids = contamination._coarse_grids(SPEC, settings)
    assert list(grids) == np.linspace(SPEC.theta_lo, SPEC.theta_hi, settings.outer_coarse).tolist()
    for alpha, (thetas, lams, model) in grids.items():
        fresh = _candidate_grid(alpha, min(SPEC.theta_hi, THETA_CAP * alpha), SPEC, settings)
        assert thetas.tobytes() == fresh[0].tobytes() and lams.tobytes() == fresh[1].tobytes()
        assert model.tobytes() == integrals_at(alpha, thetas, lams).tobytes()
        assert not (thetas.flags.writeable or lams.flags.writeable or model.flags.writeable)
    assert contamination._coarse_grids(SPEC, settings) is grids
    other = ContaminationSpec(theta_lo=SPEC.theta_lo, theta_hi=SPEC.theta_hi, pareto_gamma=3.0)
    other_grids = contamination._coarse_grids(other, settings)
    assert other_grids is not grids and list(other_grids) == list(grids)
    assert other_grids[1.25][2].tobytes() != grids[1.25][2].tobytes()
    # a search at a coarse rate takes its grid's integrals from the cache and
    # sees the values a fresh objective computes; one at another rate does not
    x = rmixture(Stream(3), 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    values_only, integrals = [], _InnerObjective.integrals

    def recording_integrals(self, rates, thetas, lams, slopes=False):
        values_only.append(not slopes)
        return integrals(self, rates, thetas, lams, slopes)

    monkeypatch.setattr(_InnerObjective, "integrals", recording_integrals)
    chi2_simple(Sample(x.reshape(-1, 1)), 1.0, SPEC)
    assert values_only.count(True) == 1
    values_only.clear()
    result = chi2_simple(Sample(x.reshape(-1, 1)), 0.875, SPEC)
    assert values_only and not any(values_only)
    inner = _InnerObjective(x, [0.875], SPEC)
    for theta, lam, _, value in result.start_points:
        row = inner.batch(np.zeros(1, dtype=int), np.array([theta]), np.array([lam]), slopes=False)
        assert row[0][0] == value


@pytest.mark.parametrize("kind", ["null", "contaminated", "far_observation"])
def test_anchor_is_exactly_zero(kind):
    # (alpha, alpha, 0): f_alpha / h = 1 at every observation and the
    # closed-form integral is 2 alpha^2 / alpha^2 - 2, so each rate's
    # supremum, and the statistic, is >= 0 with no clamp
    if kind == "contaminated":
        x = rmixture(Stream(3), 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    else:
        x = rexp(Stream(101 if kind == "far_observation" else 5), 200, 1.0)
    if kind == "far_observation":
        x[0] = 2000.0
    between = np.random.default_rng(2).uniform(SPEC.theta_lo, SPEC.theta_hi, 30)
    alphas = np.concatenate(([SPEC.theta_lo, SPEC.theta_hi], between))
    inner = _InnerObjective(x, alphas, SPEC)
    values = inner.batch(np.arange(alphas.size), alphas, np.zeros(alphas.size))[0]
    assert values.tobytes() == np.zeros(alphas.size).tobytes()  # +0.0, not -0.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("inner_grid", 0),
        ("nm_starts", -1),
        ("nm_max_evals", -1),
        ("outer_coarse", 1),
        ("outer_coarse", 0),
        ("alpha_tol", 0.0),
        ("alpha_tol", -1.0),
        ("alpha_tol", math.nan),
        ("alpha_tol", math.inf),
    ],
)
def test_search_settings_refuse_values_that_break_the_search(field, value):
    with pytest.raises(InvalidInput, match=f"^{field} must be"):
        SearchSettings(**{field: value})
    # the least values the search runs with are accepted
    SearchSettings(inner_grid=1, nm_starts=0, nm_max_evals=0, outer_coarse=2, alpha_tol=1e-300)


def test_far_observation_keeps_the_zero_lambda_line():
    # f_alpha and the lambda = 0 mixture both underflow at x = 2000; their
    # ratio must not turn into 0 / 0 and exclude the null line
    x = rexp(Stream(101), 200, 1.0)
    x[0] = 2000.0
    alpha = 1.0
    inner = _InnerObjective(x, [alpha], SPEC)
    thetas, lams = _candidate_grid(alpha, THETA_CAP * alpha, SPEC, SearchSettings())
    values = inner.batch(np.zeros(thetas.size, dtype=int), thetas, lams)[0]
    assert values[-1] == 0.0  # the anchor (alpha, 0)
    assert np.all(np.isfinite(values[(lams == 0.0) & (thetas <= alpha)]))


# the level-by-level reference: 16 uniform panels of Gauss-Legendre rules
# of doubling order, 8 to 1024 nodes, truncated where the integrand's tail
# bound falls below REF_TAIL, refined until two levels agree
REF_PANELS, REF_BASE_ORDER, REF_LEVELS = 16, 8, 8
REF_TAIL, REF_TOLERANCE = 1e-15, 1e-10


@functools.lru_cache(maxsize=None)
def _ref_gl_rule(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


def _level_by_level_integral(alpha, thetas, lams, spec):
    """Model integral by adaptive Gauss-Legendre refinement, independent of
    the package's rule: the integrand on fresh arrays, a truncation point
    per point from theta and lambda, and one integrand call per refinement
    level (levels 0 and 1 share one), made only for the points that reach
    it; a weight outside [0, 1) is refused."""
    thetas = np.asarray(thetas, dtype=float)
    lams = np.asarray(lams, dtype=float)
    s = 2.0 * alpha
    amp = 2.0 * alpha * alpha
    gamma, nu = spec.pareto_gamma, spec.pareto_nu
    out = np.full(thetas.shape[0], np.nan)

    invalid = (lams < 0.0) | (lams >= 1.0) | (thetas <= 0.0)
    zero_lam = (lams == 0.0) & ~invalid
    if np.any(zero_lam):
        div = zero_lam & (thetas >= s)
        ok = zero_lam & ~div
        out[div] = np.inf
        out[ok] = amp / (thetas[ok] * (s - thetas[ok])) - 2.0

    idx = np.flatnonzero(~zero_lam & ~invalid)
    if idx.size == 0:
        return out

    th = thetas[idx]
    lm = lams[idx]
    x_cut, tail = _reference_truncation_and_tail(amp, s, th, lm, gamma, nu)
    c = s - th
    scale = amp / ((1.0 - lm) * th)
    with np.errstate(over="ignore"):
        seg0 = np.where(c == 0.0, nu, -np.expm1(-c * nu) / np.where(c == 0.0, 1.0, c))
    i_low = scale * seg0

    fractions = np.arange(REF_PANELS + 1) / REF_PANELS
    breaks = nu + (x_cut - nu)[:, None] * fractions[None, :]
    lo = breaks[:, :-1]
    width = breaks[:, 1:] - lo

    def integrand(x, th_, lm_):
        with np.errstate(over="ignore", under="ignore"):
            r_x = gamma * nu**gamma * x ** (-(gamma + 1.0))
            theta, lam = th_[:, None, None], lm_[:, None, None]
            den = (1.0 - lam) * theta * np.exp(-theta * x) + lam * r_x
            return amp * np.exp(-s * x) / den

    t_a, w_a = _ref_gl_rule(REF_BASE_ORDER)
    t_b, w_b = _ref_gl_rule(2 * REF_BASE_ORDER)
    x = lo[:, :, None] + width[:, :, None] * np.concatenate((t_a, t_b))[None, None, :]
    vals = integrand(x, th, lm)
    coarse = np.einsum("pqn,n,pq->p", vals[:, :, : t_a.size], w_a, width)
    value = np.einsum("pqn,n,pq->p", vals[:, :, t_a.size :], w_b, width)
    limit = np.maximum(0.5 * REF_TOLERANCE, 1e-13 * np.abs(value))
    converged = np.abs(value - coarse) < limit
    for level in range(2, REF_LEVELS):
        refine = np.flatnonzero(~converged)
        if refine.size == 0:
            break
        t_nodes, w_nodes = _ref_gl_rule(REF_BASE_ORDER * 2**level)
        x = lo[refine, :, None] + width[refine, :, None] * t_nodes[None, None, :]
        vals = integrand(x, th[refine], lm[refine])
        finer = np.einsum("pqn,n,pq->p", vals, w_nodes, width[refine])
        limit = np.maximum(0.5 * REF_TOLERANCE, 1e-13 * np.abs(finer))
        converged[refine] = np.abs(finer - value[refine]) < limit
        value[refine] = finer
    if not np.all(converged):
        raise QuadratureFailure("reference refinement did not converge")
    out[idx] = i_low + value + tail - 2.0
    return out


def _reference_truncation_and_tail(amp, s, theta, lam, gamma, nu):
    """Truncation point and analytic tail of the reference, from theta and
    lambda: the exponential floor of h, or the Pareto one where that is
    missing or slow."""
    x_floor = nu + 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = s - theta
        c_safe = np.where(c > 0.0, c, 1.0)
        exp_scale = amp / ((1.0 - lam) * theta)
        x_exp = np.where(
            c > 0.0,
            (np.log(exp_scale) - np.log(REF_TAIL * c_safe)) / c_safe,
            np.inf,
        )
        x_cut = np.maximum(x_floor, x_exp)
        need_par = (lam > 0.0) & ((c <= 0.0) | (x_exp > 150.0))
        if np.any(need_par):
            a_log = np.log(amp / (lam[need_par] * gamma * nu**gamma))
            floor_p = max(x_floor, 2.0 * (gamma + 1.0) / s)
            x_iter = np.full(a_log.shape, floor_p)
            for _ in range(4):
                denom = s - (gamma + 1.0) / x_iter
                x_iter = np.maximum(
                    floor_p,
                    (a_log + (gamma + 1.0) * np.log(x_iter) - np.log(REF_TAIL * denom))
                    / s,
                )
            x_cut[need_par] = np.minimum(x_cut[need_par], x_iter)
        tail = np.where(c > 0.0, exp_scale * np.exp(-c_safe * x_cut) / c_safe, np.inf)
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


def test_quadrature_matches_level_by_level_reference():
    # every point gets the reference's value to a stated tolerance, or its
    # refusal; points inside the capped box take the graded rule and the
    # others scipy.integrate.quad, and both are checked here.  Where the
    # reference cannot refine to its target the package still answers
    rel_tol = 1e-12  # relative, with a floor of 1
    rng = np.random.default_rng(8)
    # (alpha, theta, lambda) that the reference cannot refine to the target
    failing = (0.005, 2.435500076273434, 1.1067039726274862e-13)
    outcomes = {"unrefined": 0, "refused": 0, "compared": 0}
    for _ in range(300):
        alpha = float(rng.choice([failing[0], 0.1, 0.5, 1.0, 2.0]))
        s = 2.0 * alpha
        rows = []
        for _ in range(int(rng.integers(1, 13))):
            kind = rng.integers(5)
            if kind == 0:  # the lambda = 0 line, divergent past theta = 2 alpha
                rows.append((float(rng.uniform(min(0.1, s), 2.0 * s)), 0.0))
            elif kind == 1:  # theta >= 2 alpha with lambda on either side of 0
                rows.append((float(rng.uniform(s, 3.0 * s)), float(rng.uniform(-0.3, 0.9))))
            elif kind == 2:  # outside the search box
                theta = float(rng.choice([-1.0, 0.0, 1e-3, 0.2, 5.0, 40.0]))
                lam = float(rng.choice([-0.9, -0.3, 0.8, 0.999, 1.0, 1.5]))
                rows.append((theta, lam))
            else:  # inside the box
                rows.append(
                    (float(rng.uniform(SPEC.theta_lo, SPEC.theta_hi)),
                     float(rng.uniform(SPEC.lambda_lo, SPEC.lambda_hi)))
                )
        if alpha == failing[0] and rng.random() < 0.25:
            rows.insert(int(rng.integers(len(rows) + 1)), failing[1:])
        thetas, lams = np.array(rows).T
        got = integrals_at(alpha, thetas, lams)
        try:
            expected = _level_by_level_integral(alpha, thetas, lams, SPEC)
        except QuadratureFailure:
            assert np.isfinite(got[(thetas == failing[1]) & (lams == failing[2])]).all()
            outcomes["unrefined"] += 1
            continue
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        assert np.array_equal(got == math.inf, expected == math.inf)
        finite = np.isfinite(expected)
        err = np.abs(got[finite] - expected[finite]) / np.maximum(1.0, np.abs(expected[finite]))
        assert np.all(err <= rel_tol), err.max()
        assert np.isnan(expected[lams < 0.0]).all()
        outcomes["refused"] += int((lams < 0.0).sum())
        outcomes["compared"] += int(finite.sum())
    # the batches reach the unrefinable point and the refusal of lambda < 0
    assert min(outcomes.values()) > 0, outcomes
    # the reference's unrefinable point has a finite integral
    value = model_integral(DualGFunction(*failing, SPEC))
    assert value == pytest.approx(6.0238e16, rel=1e-4)


PARETO_PAIRS = [(2.0, 1.5), (5.0, 1.2), (20.0, 1.1), (50.0, 1.2), (1.1, 3.0)]


@pytest.mark.parametrize("gamma, nu", PARETO_PAIRS)
def test_rate_rule_matches_quad_across_the_capped_box(gamma, nu, monkeypatch):
    # the graded rule certifies every point of the box, theta at the cap
    # and lambda down to 1e-12 included, and agrees with quad on h
    rel_tol = 1e-12  # relative, with a floor of 1
    spec = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, pareto_gamma=gamma, pareto_nu=nu)

    def no_fallback(alpha, theta, lam, spec):
        raise AssertionError(f"box point sent to quad: {alpha}, {theta}, {lam}")

    monkeypatch.setattr(contamination, "_quad_integral", no_fallback)
    rng = np.random.default_rng(17)
    for alpha in (0.5, 0.7, 0.9, 1.1, 1.3, 1.6, 2.0):
        top = min(spec.theta_hi, THETA_CAP * alpha)
        thetas = np.concatenate(([top] * 8, [spec.theta_lo], rng.uniform(spec.theta_lo, top, 11)))
        lams = 10.0 ** rng.uniform(-12.0, math.log10(spec.lambda_hi), thetas.size)
        lams[:2] = 1e-12, spec.lambda_hi - 1e-9
        got = integrals_at(alpha, thetas, lams, spec)
        for value, theta, lam in zip(got.tolist(), thetas.tolist(), lams.tolist()):
            expected = quad_model_integral(alpha, theta, lam, gamma, nu)
            assert abs(value - expected) <= rel_tol * max(1.0, abs(expected)), (alpha, theta, lam)


def test_zero_lambda_line_is_unbounded_as_theta_nears_twice_the_rate():
    # on lambda = 0 the model integral 2 alpha^2 / (theta (2 alpha - theta)) - 2
    # has no upper bound as theta -> 2 alpha from below; the search stops at
    # theta = 1.5 alpha, so the statistic is the supremum over the capped box
    x = rexp(Stream(7).derive(1), 200, 1.0)
    alpha = 0.7
    inner = _InnerObjective(x, [alpha], SPEC)
    near, edge = inner.batch(np.zeros(2, dtype=int), np.array([1.399, 2 * alpha - 1e-6]), np.zeros(2))[0]
    assert near == pytest.approx(601.933, rel=1e-5)
    assert edge > 1e5
    result = chi2_simple(Sample(x.reshape(-1, 1)), alpha, SPEC)
    assert result.value == pytest.approx(0.203696, rel=1e-5)
    assert result.theta_hat <= THETA_CAP * alpha


def _objective_bound(alpha, theta, lam):
    # h >= (1 - lambda) theta e^(-theta x) bounds the model integral by
    # 2 alpha^2 / ((1 - lambda) theta (2 alpha - theta)) - 2, and the
    # conjugate t + t^2 / 4 is >= -1
    return 2.0 * alpha**2 / ((1.0 - lam) * theta * (2.0 * alpha - theta)) - 1.0


def test_sup_over_the_capped_box_is_finite():
    # at alpha = 0.7 < theta_hi / 2 the rate interval reaches the lambda = 0
    # edge theta -> 2 alpha, which the cap keeps out of the search box
    x = rmixture(Stream(101), 200, 1.0, 0.0, SPEC.pareto_gamma, SPEC.pareto_nu)
    alphas = [0.5, 0.7, 1.0, 1.3]
    inner = _InnerObjective(x, alphas, SPEC)
    for lam in (0.0, 1e-12):
        thetas = THETA_CAP * np.array(alphas)
        values = inner.batch(np.arange(len(alphas)), thetas, np.full(len(alphas), lam))[0]
        assert np.all(values <= _objective_bound(np.array(alphas), thetas, lam))
    alpha = 0.7
    top = THETA_CAP * alpha
    inner = _InnerObjective(x, [alpha], SPEC)
    thetas, lams = _candidate_grid(alpha, top, SPEC, SearchSettings())
    grid = (thetas, lams, inner.batch(np.zeros(thetas.size, dtype=int), thetas, lams)[0])
    asked = []

    def objective(rows, ts, ls):
        asked.append(ts)
        return inner.batch(rows, ts, ls)

    ((value, (theta, lam), _),) = _grid_then_refine(
        objective, [grid], [top], SPEC, SearchSettings()
    )
    assert np.concatenate(asked).max() <= top
    assert 0.0 <= value <= _objective_bound(alpha, theta, lam)


def test_mixing_box_narrower_than_a_fixed_margin_is_refined(monkeypatch):
    # lambda_hi = 1e-10: a Nelder-Mead box whose lambda top sits 1e-9 below
    # lambda_hi lies below 0, every refined point is refused and the search
    # returns a grid point
    spec = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, lambda_hi=1e-10)
    x = rmixture(Stream(3), 200, 1.0, 0.15, spec.pareto_gamma, spec.pareto_nu)
    asked = []
    batch = _InnerObjective.batch

    def recording_batch(self, rates, thetas, lams, slopes=True):
        asked.append(lams)
        return batch(self, rates, thetas, lams, slopes)

    monkeypatch.setattr(_InnerObjective, "batch", recording_batch)
    result = chi2_simple(Sample(x.reshape(-1, 1)), 1.0, spec)
    assert result.value > max(start[3] for start in result.start_points)
    lams = np.concatenate(asked)
    assert np.all((lams >= 0.0) & (lams < spec.lambda_hi))


def test_steep_contaminant_null_sample_completes():
    # gamma = 50 puts the mixture's switch from the exponential to the Pareto
    # regime within nu / 51 of the onset nu, the width of the graded rule's
    # first panel; 16 uniform panels fell just short of the quadrature target
    # at 256 nodes per panel on every one of the first six seed-7 null samples
    spec = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, pareto_gamma=50.0, pareto_nu=1.2)
    x = rexp(Stream(replicate_seed(7, 0)), 200, 1.0)
    report = contamination_test(Sample(x.reshape(-1, 1)), spec, 0.05)
    assert math.isfinite(report.statistic) and report.statistic >= 0.0


def _dense_model_integral(alpha, theta, lam, gamma, nu):
    """int g f_alpha over (0, inf) by 20-node Gauss-Legendre panels on [nu,
    1e7], each 1 % wider than the last from nu / (8 (gamma + 1)), with h
    summed in logs so that nothing overflows; closed form below nu."""
    s, c = 2.0 * alpha, 2.0 * alpha - theta
    low = 2.0 * alpha**2 / ((1.0 - lam) * theta) * -math.expm1(-c * nu) / c
    first = nu / (8.0 * (gamma + 1.0))
    breaks = nu + first * (1.01 ** np.arange(math.log(1e7 / first) / math.log(1.01) + 2) - 1.0)
    t, w = np.polynomial.legendre.leggauss(20)
    lo, width = breaks[:-1, None], np.diff(breaks)[:, None]
    x = (lo + width * (t + 1.0) / 2.0).ravel()
    log_exp = math.log((1.0 - lam) * theta) + c * x
    log_pareto = math.log(lam * gamma * nu**gamma) - (gamma + 1.0) * np.log(x) + s * x
    vals = 2.0 * alpha**2 * np.exp(-np.logaddexp(log_exp, log_pareto))
    return low + float((vals * (width * w / 2.0).ravel()).sum()) - 2.0


@pytest.mark.parametrize(
    "gamma, nu, alpha, theta, lam",
    [
        # far peaks of the integrand, where the Pareto term takes over from a
        # growing exponential one: quad on [nu, inf) in one piece read 2.1e33
        # for 1.6e51 and 7.1e12 for 4.4e34, and an adaptive rule on 16 uniform
        # panels read 0.0072934 for 0.0072910 on the third
        (20.0, 1.1, 0.016153973321481066, 0.0967332532811935, 5.684328915307894e-13),
        (50.0, 1.2, 0.39802867099394357, 1.129297060327614, 0.026295852415578573),
        (50.0, 1.2, 0.029784216060696433, 0.031579220186832256, 1.3560599169221467e-06),
        # a small feature at the Pareto onset before a long slow rise
        (5.0, 1.2, 0.01098159117400933, 0.022621335687271944, 2.860851470760976e-08),
        # out of the box in minimax_gap's reverse order and in the bench probe
        (2.0, 1.5, 0.5, 2.0, 0.09375),
        (2.0, 1.5, 0.7, 1.9, 1e-9),
        (50.0, 1.2, 0.6, 1.5, 1e-9),
    ],
)
def test_quad_path_matches_a_dense_rule_outside_the_box(gamma, nu, alpha, theta, lam):
    rel_tol = 1e-11  # relative, with a floor of 1
    spec = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, pareto_gamma=gamma, pareto_nu=nu)
    assert not spec.theta_lo <= theta <= min(spec.theta_hi, THETA_CAP * alpha)
    value = model_integral(DualGFunction(alpha, theta, lam, spec))
    expected = _dense_model_integral(alpha, theta, lam, gamma, nu)
    assert abs(value - expected) <= rel_tol * max(1.0, abs(expected))


@pytest.mark.parametrize("gamma, nu", [(2.0, 1.5), (50.0, 1.2)])
def test_spec_layout_serves_every_rate_of_a_wide_interval(gamma, nu, monkeypatch):
    # one layout serves the whole rate interval: it comes from the lowest rate
    # with a box, theta_lo / 1.5 = 0.033, so at alpha = 10 it runs far past
    # that rate's own cut, where e^(-2 alpha x) underflows; the box points of
    # every rate go through one batch
    rel_tol = 1e-12  # relative, with a floor of 1
    spec = ContaminationSpec(theta_lo=0.05, theta_hi=10.0, pareto_gamma=gamma, pareto_nu=nu)

    def no_fallback(alpha, theta, lam, spec):
        raise AssertionError(f"box point sent to quad: {alpha}, {theta}, {lam}")

    monkeypatch.setattr(contamination, "_quad_integral", no_fallback)
    alphas = np.geomspace(spec.theta_lo, spec.theta_hi, 9)
    points = [
        (rate, theta, lam)
        for rate, alpha in enumerate(alphas)
        for theta in np.geomspace(spec.theta_lo, min(spec.theta_hi, THETA_CAP * alpha), 4)
        for lam in (1e-12, 1e-6, 0.1, spec.lambda_hi - 1e-9)
    ]
    rates, thetas, lams = (np.array(column) for column in zip(*points))
    got = _InnerObjective(np.empty(0), alphas, spec).integrals(rates, thetas, lams)[0]
    for value, (rate, theta, lam) in zip(got.tolist(), points):
        expected = _dense_model_integral(alphas[rate], theta, lam, gamma, nu)
        assert abs(value - expected) <= rel_tol * max(1.0, abs(expected)), (alphas[rate], theta, lam)


def test_nonpositive_rate_is_refused():
    with pytest.raises(InvalidInput, match="^alpha must be > 0"):
        DualGFunction(0.0, 1.0, 0.1, SPEC)


def test_quad_warning_raises_quadrature_failure_naming_the_point(monkeypatch):
    # a point outside the capped box goes to scipy.integrate.quad, whose
    # IntegrationWarning becomes the package's error
    def warning_quad(*args, **kwargs):
        warnings.warn("planted", scipy.integrate.IntegrationWarning)
        return 0.0, 0.0

    monkeypatch.setattr(scipy.integrate, "quad", warning_quad)
    with pytest.raises(QuadratureFailure, match=r"alpha=0\.6, theta=2\.0, lambda=0\.2\b.*planted"):
        model_integral(DualGFunction(0.6, 2.0, 0.2, SPEC))


def test_search_inside_the_box_imports_no_quadrature():
    # every point the test's search visits lies in the capped box, where the
    # graded rule serves; scipy.integrate stays out of the start-up path, and
    # the test's projected Newton search needs no scipy.optimize
    code = """
import sys
from chi2dual import ContaminationSpec, Sample, contamination_test, rmixture
from chi2dual.rng import Stream, replicate_seed

spec = ContaminationSpec(theta_lo=0.5, theta_hi=2.0)
steep = ContaminationSpec(theta_lo=0.5, theta_hi=2.0, pareto_gamma=50.0, pareto_nu=1.2)
for lam, s in ((0.0, spec), (0.15, spec), (0.0, steep)):
    x = rmixture(Stream(replicate_seed(7, 0)), 200, 1.0, lam, s.pareto_gamma, s.pareto_nu)
    contamination_test(Sample(x.reshape(-1, 1)), s, 0.05)
print("scipy.integrate" in sys.modules, "scipy.optimize" in sys.modules)
"""
    src = str(Path(contamination.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False"


@pytest.mark.parametrize(
    ("theta_lo", "rate", "replicate"), [(0.5, 0.6, 2), (0.5, 0.7, 2), (0.5, 0.8, 1), (0.1, 0.15, 0)]
)
def test_null_statistic_at_a_rate_below_half_the_interval_top(theta_lo, rate, replicate):
    # null samples whose rate lies below theta_hi / 2, where the uncapped box
    # held the lambda = 0 edge at the profiled rate; with Nelder-Mead free to
    # step onto lambda = 0 in that box the third read 0.041, and chi-square(1)
    # critical values start near 2.7.  The last runs a rate interval down to 0.1
    statistic_bound = 1e-3
    spec = ContaminationSpec(theta_lo=theta_lo, theta_hi=SPEC.theta_hi)
    x = rexp(Stream(replicate_seed(7, replicate)), 200, rate)
    report = contamination_test(Sample(x.reshape(-1, 1)), spec, 0.05)
    assert report.statistic <= statistic_bound


def _bracket(pairs):
    """The evaluated rates (a, best, b) around the one of least value in
    the (rate, value) pairs."""
    values = dict(pairs)
    rates = sorted(values)
    i = rates.index(min(rates, key=values.__getitem__))
    return rates[max(i - 1, 0)], rates[i], rates[min(i + 1, len(rates) - 1)]


def _profiled(monkeypatch, x, spec, settings):
    """contamination_test on x with every lockstep call recorded: the report,
    [[(rate, value), ...] per call] and the evaluated rates (a, alpha_hat,
    b) around alpha_hat."""
    calls = []

    def recording(x, alphas, spec, settings, evaluated):
        results = _chi2_lockstep(x, alphas, spec, settings, evaluated)
        calls.append([(alpha, result.value) for alpha, result in zip(alphas, results)])
        return results

    monkeypatch.setattr(contamination, "_chi2_lockstep", recording)
    report = contamination_test(Sample(x.reshape(-1, 1)), spec, 0.05, settings)
    return report, calls, _bracket(pair for call in calls for pair in call)


@pytest.mark.parametrize(("lam", "replicate"), [(0.0, 0), (0.0, 3), (0.15, 0), (0.15, 1)])
def test_rate_profile_bisects_around_the_best_rate(lam, replicate, monkeypatch):
    # seed-7 contam_null and contam_alt samples (n = 200); the first null
    # replicate ends at the atom 1/mean(x), the other three step inside the
    # bracket, by the parabola's vertex or by its two midpoints
    settings = SearchSettings()
    tol = settings.alpha_tol * (SPEC.theta_hi - SPEC.theta_lo)
    x = rmixture(Stream(replicate_seed(7, replicate)), 200, 1.0, lam, SPEC.pareto_gamma,
                 SPEC.pareto_nu)
    report, calls, (a, alpha_hat, b) = _profiled(monkeypatch, x, SPEC, settings)
    assert len(calls[0]) <= settings.outer_coarse + 1
    assert all(len(call) <= 3 for call in calls[1:])
    for k in range(1, len(calls)):
        lower, _, upper = _bracket(pair for call in calls[:k] for pair in call)
        assert all(lower < rate < upper for rate, _ in calls[k])
    values = dict(pair for call in calls for pair in call)
    assert len(values) == sum(map(len, calls))  # no rate evaluated twice
    chi2_value = report.diagnostics["chi2_value"]
    assert chi2_value == values[alpha_hat] == min(values.values())
    at_atom = chi2_value <= _ROUNDING
    assert at_atom or b - a <= tol
    assert (len(calls) == 1) == at_atom == (replicate == 0 and lam == 0.0)


def _synthetic_profile(monkeypatch, profile):
    """_inf_sup at the default settings on a sample with 1/mean(x) = 1.23,
    with the sup at rate alpha replaced by profile(alpha): the recorded
    [[rate, ...] per call] and the bracket (a, alpha_hat, b) at the stop."""
    calls = []

    def prescribed(x, alphas, spec, settings, evaluated):
        calls.append(list(alphas))
        return [Chi2SimpleResult(profile(alpha), alpha, 0.0, (), 0) for alpha in alphas]

    monkeypatch.setattr(contamination, "_chi2_lockstep", prescribed)
    alpha_hat, at_min = _inf_sup(np.full(200, 1.0 / 1.23), SPEC, SearchSettings())
    bracket = _bracket((rate, profile(rate)) for call in calls for rate in call)
    assert bracket[1] == alpha_hat and at_min.value == profile(alpha_hat)
    return calls, bracket


def test_rate_profile_on_a_smooth_minimum_takes_a_parabola_step(monkeypatch):
    # one vertex step lands on the minimum of a quadratic, and its two
    # neighbours at tol / 2 close the bracket
    centre = 1.0471
    calls, (a, alpha_hat, b) = _synthetic_profile(
        monkeypatch, lambda alpha: 0.01 + (alpha - centre) ** 2
    )
    tol = SearchSettings().alpha_tol * (SPEC.theta_hi - SPEC.theta_lo)
    assert len(calls) <= 3
    assert b - a <= tol and abs(alpha_hat - centre) <= tol / 2.0


@pytest.mark.parametrize("shape", ["kink", "sawtooth"])
def test_rate_profile_converges_where_the_parabola_misleads(shape, monkeypatch):
    # a kink with slopes -1 and 100 either side of c, and a quadratic with a
    # 1e-5 sawtooth of period 7e-3 (about two brackets of tol).  On the
    # kink the vertex steps creep up on c from one side, each cutting the
    # bracket by little: without the fallback to midpoints after a step
    # that does not halve the bracket the search took 72 calls, with it 13
    centre = 1.0471
    profiles = {
        "kink": lambda alpha: 0.01 + max(centre - alpha, 100.0 * (alpha - centre)),
        "sawtooth": lambda alpha: 0.01 + (alpha - centre) ** 2 + 1e-5 * (alpha / 7e-3 % 1.0),
    }
    calls, (a, alpha_hat, b) = _synthetic_profile(monkeypatch, profiles[shape])
    assert b - a <= SearchSettings().alpha_tol * (SPEC.theta_hi - SPEC.theta_lo)
    assert len(calls) <= 60


@pytest.mark.parametrize("case", ["three_ulp_interval", "tiny_tolerance"])
def test_rate_profile_stops_when_no_midpoint_is_new(case, monkeypatch):
    # neither the bracket test nor a zero stops these searches: the loop
    # ends once both midpoints round onto rates already evaluated
    x = rexp(Stream(replicate_seed(7, 3)), 200, 1.0)
    spec, settings = SPEC, SearchSettings(alpha_tol=1e-300)
    if case == "three_ulp_interval":
        top = 1.0
        for _ in range(3):
            top = math.nextafter(top, math.inf)
        spec, settings = ContaminationSpec(theta_lo=1.0, theta_hi=top), SearchSettings()
    report, calls, (a, best, b) = _profiled(monkeypatch, x, spec, settings)
    values = dict(pair for call in calls for pair in call)
    assert report.diagnostics["chi2_value"] > 0.0
    assert (a + best) / 2.0 in values and (best + b) / 2.0 in values
    assert len(calls) <= 60  # about one round per bit of the bracket


def test_statistic_is_exactly_zero_where_the_mle_anchor_wins():
    # seed-7 contam_null replicates 0-39 (n = 200): where the sup at the
    # MLE rate clip(1/mean(x)) is exactly 0, so is the inf over the rate,
    # reached at the anchor (alpha, alpha, 0) of that rate
    settings, hits = SearchSettings(), 0
    for replicate in range(40):
        x = rexp(Stream(replicate_seed(7, replicate)), 200, 1.0)
        mle = min(max(1.0 / float(np.mean(x)), SPEC.theta_lo), SPEC.theta_hi)
        if _chi2_lockstep(x, [mle], SPEC, settings)[0].value != 0.0:
            continue
        hits += 1
        report = contamination_test(Sample(x.reshape(-1, 1)), SPEC, 0.05, settings)
        diagnostics = report.diagnostics
        assert report.statistic == 0.0
        assert diagnostics["alpha_hat"] == mle
        assert diagnostics["theta_hat"] == diagnostics["alpha_hat"]
        assert diagnostics["lambda_hat"] == 0.0
    assert hits >= 20  # 23 of the 40 when this test was written


def _zeros_with_positive_score(samples):
    """(count of statistics exactly 0, those of them with s(alpha_hat) > 0)."""
    zeros, positive = 0, []
    for i, x in enumerate(samples):
        report = contamination_test(Sample(x.reshape(-1, 1)), SPEC, 0.05)
        if report.statistic == 0.0:
            zeros += 1
            if contamination_score(x, report.diagnostics["alpha_hat"], SPEC) > 0.0:
                positive.append(i)
    return zeros, positive


def test_zero_statistic_has_a_nonpositive_score_on_seed_7_nulls():
    # the certificate: a statistic of 0 means the anchor (alpha_hat, 0) is the
    # sup, which lambda >= 0 allows only where dJ/dlambda = 2 s(alpha_hat) <= 0;
    # seed-7 contam_null replicates 0-99 at n = 200, 44 zeros and none with
    # s > 0 when this test was written
    samples = [rexp(Stream(replicate_seed(7, r)), 200, 1.0) for r in range(100)]
    zeros, positive = _zeros_with_positive_score(samples)
    assert positive == []
    assert zeros >= 40


def test_zero_statistic_has_a_nonpositive_score_on_a_mixed_pool():
    # 48 samples of n = 200 from Stream(1).derive(i + 1), exponential at even
    # i and 15 % Pareto-contaminated at odd i; 13 zeros and none with s > 0
    # when this test was written
    master, samples = Stream(1), []
    for i in range(48):
        stream = master.derive(i + 1)
        if i % 2 == 0:
            samples.append(rexp(stream, 200, 1.0))
        else:
            samples.append(rmixture(stream, 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu))
    zeros, positive = _zeros_with_positive_score(samples)
    assert positive == []
    assert zeros >= 10


def test_rate_profile_stops_at_a_sup_that_is_zero_but_for_rounding(monkeypatch):
    # seed-7 contam_null replicates 0-39 (n = 200) whose sup at the MLE rate
    # is reached a few ulps from the anchor, at about 1e-17 rather than 0:
    # the profile ends with its first call, at that rate, as at an exact 0
    settings, hits = SearchSettings(), 0
    for replicate in range(40):
        x = rexp(Stream(replicate_seed(7, replicate)), 200, 1.0)
        mle = min(max(1.0 / float(np.mean(x)), SPEC.theta_lo), SPEC.theta_hi)
        value = _chi2_lockstep(x, [mle], SPEC, settings)[0].value
        if not 0.0 < value <= _ROUNDING:
            continue
        hits += 1
        report, calls, _ = _profiled(monkeypatch, x, SPEC, settings)
        assert len(calls) == 1
        assert report.diagnostics["alpha_hat"] == mle
        assert report.diagnostics["chi2_value"] == value
    assert hits >= 1  # replicate 14 when this test was written


def _derivatives_by_differences(f, scale, at_cap):
    """Gradient and Hessian of f(d_theta, d_lambda) at (0, 0) by differences
    with steps in proportion to ``scale``, Richardson-extrapolated from the
    step and its half: central, except one-sided below theta at the cap."""
    sign = -1.0 if at_cap else 1.0

    def first(k, h):
        e = np.eye(2)[k] * h
        if k == 0 and at_cap:
            return (3.0 * f(0.0, 0.0) - 4.0 * f(*-e) + f(*(-2.0 * e))) / (2.0 * h)
        return (f(*e) - f(*-e)) / (2.0 * h)

    def second(k, h):
        e = np.eye(2)[k] * h
        if k == 0 and at_cap:
            return (2.0 * f(0.0, 0.0) - 5.0 * f(*-e) + 4.0 * f(*(-2.0 * e)) - f(*(-3.0 * e))) / h**2
        return (f(*e) - 2.0 * f(0.0, 0.0) + f(*-e)) / h**2

    def mixed(h):
        ht, hl = sign * h * scale[0], h * scale[1]
        return sign * (f(ht, hl) - f(ht, -hl) - f(0.0, hl) + f(0.0, -hl)) / (2.0 * abs(ht) * hl)

    def richardson(d, h, order):
        return (2.0**order * d(h / 2.0) - d(h)) / (2.0**order - 1.0)

    grad = [richardson(lambda h: first(k, h), 1e-4 * scale[k], 2) for k in (0, 1)]
    h_tt = richardson(lambda h: second(0, h), 1e-2 * scale[0], 2)
    h_ll = richardson(lambda h: second(1, h), 1e-2 * scale[1], 2)
    h_tl = richardson(mixed, 1e-3, 1)
    return np.array(grad), np.array([[h_tt, h_tl], [h_tl, h_ll]])


def test_derivatives_match_differences_of_the_values():
    # the gradient and Hessian batch sums on the rule's nodes and the sample,
    # against differences of its values (theta steps 0.1 times the factor,
    # lambda steps min(lambda, 1 - lambda) times it) at box points of three
    # rates: theta at theta_lo, inside and at the cap, lambda near 0 and 1
    grad_tol, hess_tol = 1e-7, 1e-4  # relative, with a floor of 1
    x = rmixture(Stream(11), 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    alphas = [0.6, 1.0, 1.7]
    inner = _InnerObjective(x, alphas, SPEC)
    for rate, alpha in enumerate(alphas):
        top = min(SPEC.theta_hi, THETA_CAP * alpha)
        for theta in (SPEC.theta_lo + 0.01, 0.5 * (SPEC.theta_lo + top), top):
            for lam in (1e-3, 0.05, 0.3, 0.7):

                def f(d_theta, d_lam):
                    point = np.array([theta + d_theta]), np.array([lam + d_lam])
                    return inner.batch(np.array([rate]), *point, slopes=False)[0][0]

                _, grad, hess = inner.batch(np.array([rate]), np.array([theta]), np.array([lam]))
                expected = _derivatives_by_differences(f, (0.1, min(lam, 1.0 - lam)), theta == top)
                where = (alpha, theta, lam)
                assert np.all(np.abs(grad[0] - expected[0]) <= grad_tol * np.maximum(1.0, np.abs(grad[0]))), where
                assert np.all(np.abs(hess[0] - expected[1]) <= hess_tol * np.maximum(1.0, np.abs(hess[0]))), where


@pytest.mark.parametrize("kind", ["contam_null", "contam_alt"])
@pytest.mark.parametrize("replicate", range(6))
def test_reported_optimum_meets_the_kkt_conditions(kind, replicate):
    # at the reported (theta_hat, lambda_hat) the gradient, scaled by the box
    # width and with the coordinates a bound holds set to 0, is within the
    # search's stop tolerance, and lambda_hat = 0 comes with d/dlambda <= 0
    tolerance = 1e-9
    stream = Stream(replicate_seed(7, replicate))
    if kind == "contam_null":
        x = rexp(stream, 200, 1.0)
    else:
        x = rmixture(stream, 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)
    diag = contamination_test(Sample(x.reshape(-1, 1)), SPEC, 0.05).diagnostics
    alpha, point = diag["alpha_hat"], np.array([diag["theta_hat"], diag["lambda_hat"]])
    lower = np.array([SPEC.theta_lo, 0.0])
    upper = np.array([min(SPEC.theta_hi, THETA_CAP * alpha), np.nextafter(SPEC.lambda_hi, 0.0)])
    _, grad, _ = _InnerObjective(x, [alpha], SPEC).batch(np.zeros(1, dtype=int), *point[:, None])
    grad = grad[0]
    held = np.where(grad > 0.0, point >= upper, point <= lower)
    assert np.abs(np.where(held, 0.0, grad * (upper - lower))).max() <= tolerance
    if point[1] == 0.0:
        assert grad[1] <= 0.0


# the first sample of the seed-101 contam_profile pool (n = 200): its sup
# near the profiled rate lies at lambda of about 0.005, below the grid's
# first lambda row (lambda_hi / 16); a search that stays on the lambda = 0
# face there reads a statistic of 7.7e-5 instead of 2.595030e-3
FIRST_POOL_SAMPLE = rexp(Stream(101).derive(1), 200, 1.0)


def test_statistic_matches_a_finer_search_below_the_first_lambda_row():
    sample = Sample(FIRST_POOL_SAMPLE.reshape(-1, 1))
    finer = SearchSettings(inner_grid=24, nm_starts=12, nm_max_evals=200)
    report = contamination_test(sample, SPEC, 0.05)
    expected = contamination_test(sample, SPEC, 0.05, finer).statistic
    assert expected > 2e-3
    assert abs(report.statistic - expected) <= 1e-9 * expected
    assert 0.0 < report.diagnostics["lambda_hat"] < SPEC.lambda_hi / 16.0


def test_warm_started_optima_meet_the_kkt_conditions(monkeypatch):
    # the rates after the profile's first group start from the optima of
    # their evaluated neighbours, theta clipped into the rate's box: each
    # reported optimum meets the conditions that
    # test_reported_optimum_meets_the_kkt_conditions checks at alpha_hat
    tolerance = 1e-9
    warm = []

    def recording(x, alphas, spec, settings, evaluated):
        results = _chi2_lockstep(x, alphas, spec, settings, evaluated)
        if evaluated:
            warm.extend(zip(alphas, results))
        return results

    monkeypatch.setattr(contamination, "_chi2_lockstep", recording)
    diag = contamination_test(Sample(FIRST_POOL_SAMPLE.reshape(-1, 1)), SPEC, 0.05).diagnostics
    assert diag["alpha_hat"] in dict(warm) and len(warm) >= 3
    lower = np.array([SPEC.theta_lo, 0.0])
    for alpha, result in warm:
        upper = np.array([min(SPEC.theta_hi, THETA_CAP * alpha), np.nextafter(SPEC.lambda_hi, 0.0)])
        assert 1 <= len(result.start_points) <= 2
        assert all(lower[0] <= theta <= upper[0] and rate == alpha
                   for theta, _, rate, _ in result.start_points)
        point = np.array([result.theta_hat, result.lambda_hat])
        _, grad, _ = _InnerObjective(FIRST_POOL_SAMPLE, [alpha], SPEC).batch(
            np.zeros(1, dtype=int), *point[:, None]
        )
        grad = grad[0]
        held = np.where(grad > 0.0, point >= upper, point <= lower)
        assert np.abs(np.where(held, 0.0, grad * (upper - lower))).max() <= tolerance, alpha
        if point[1] == 0.0:
            assert grad[1] <= 0.0, alpha


# chi2_simple values of the Nelder-Mead search this one replaced, at fixed
# rates: (sample, alpha, value).  "derived37" and the last "null37" rows sit
# near a sharp minimum of the rate profile: there the supremum lies just off
# the lambda = 0 face, which a search holding lambda = 0 does not reach.  The
# "wide" rows take the rate interval [0.1, 4], whose nodes run out to x = 1200,
# where h at lambda = 0 underflows
SIMPLEX_SUPREMA = [
    ("null0", 0.6, 0.7302249518340641),
    ("null0", 0.9, 0.06665163075662894),
    ("null0", 1.1, 2.736617560131857e-05),
    ("null0", 1.4, 0.05101106989342329),
    ("null37", 0.6, 0.4985507255829036),
    ("null37", 0.9, 0.0009879174254669618),
    ("null37", 1.1, 0.023796904211127554),
    ("null37", 1.4, 0.11414941271854877),
    ("alt1", 0.6, 0.1357676716795256),
    ("alt1", 0.9, 0.01946083617451125),
    ("alt1", 1.1, 0.0736178501306231),
    ("alt1", 1.4, 0.19972119375724534),
    ("alt2", 0.6, 0.1395383030868247),
    ("alt2", 0.9, 0.059942095183852254),
    ("alt2", 1.1, 0.14140777160297618),
    ("alt2", 1.4, 0.2896075849210011),
    ("derived37", 0.9942902384350552, 1.1432993840572577e-05),
    ("null37", 0.9231689581059149, 0.00019961075662249146),
    ("null37", 0.9292669221727524, 0.00022146344754796817),
    ("wide0", 3.025, 0.9040551305124854),
    ("wide2", 1.075, 0.0034764567627107103),
]
WIDE_SPEC = ContaminationSpec(theta_lo=0.1, theta_hi=4.0)


def _floor_sample(name):
    if name == "derived37":
        return rexp(Stream(1).derive(37), 200, 1.0)
    if name.startswith("wide"):
        return rexp(Stream(replicate_seed(3, int(name[4:]))), 200, 1.0)
    stream = Stream(replicate_seed(7, int(name.lstrip("nulalt"))))
    if name.startswith("null"):
        return rexp(stream, 200, 1.0)
    return rmixture(stream, 200, 1.0, 0.15, SPEC.pareto_gamma, SPEC.pareto_nu)


@pytest.mark.parametrize("name, alpha, simplex", SIMPLEX_SUPREMA)
def test_supremum_is_no_lower_than_the_simplex_search(name, alpha, simplex):
    # the inner problem is a supremum, so a better search never ends lower
    tolerance = 1e-9  # relative, with a floor of 1
    spec = WIDE_SPEC if name.startswith("wide") else SPEC
    value = chi2_simple(Sample(_floor_sample(name).reshape(-1, 1)), alpha, spec).value
    assert value >= simplex - tolerance * max(1.0, abs(simplex))
