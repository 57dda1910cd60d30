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
    QUAD_TOLERANCE,
    TAIL_TOLERANCE,
    _BASE_ORDER,
    _MAX_LEVELS,
    _N_PANELS,
    _candidate_grid,
    _gl_rule,
    _grid_then_refine,
    _InnerObjective,
    _integral_batch,
    _nelder_mead,
)
from chi2dual.errors import InvalidInput, QuadratureFailure
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


def _level_by_level_integral(alpha, thetas, lams, spec):
    """Reference for ``_integral_batch`` in plain form: the integrand on
    fresh arrays, the truncation from theta and lambda, and one integrand
    call per refinement level (levels 0 and 1 share one), made only for the
    points that reach it; a nonpositive density at any evaluated node
    excludes."""
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
    active &= ~((lams < 0.0) & (thetas >= s))
    idx = np.flatnonzero(active)
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

    fractions = np.arange(_N_PANELS + 1) / _N_PANELS
    breaks = nu + (x_cut - nu)[:, None] * fractions[None, :]
    lo = breaks[:, :-1]
    width = breaks[:, 1:] - lo

    def integrand(x, th_, lm_):
        with np.errstate(over="ignore", under="ignore"):
            r_x = gamma * nu**gamma * x ** (-(gamma + 1.0))
            theta, lam = th_[:, None, None], lm_[:, None, None]
            den = (1.0 - lam) * theta * np.exp(-theta * x) + lam * r_x
            num = amp * np.exp(-s * x)
        bad = np.any(den <= 0.0, axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den, bad

    t_a, w_a = _gl_rule(_BASE_ORDER)
    t_b, w_b = _gl_rule(2 * _BASE_ORDER)
    x = lo[:, :, None] + width[:, :, None] * np.concatenate((t_a, t_b))[None, None, :]
    vals, excluded = integrand(x, th, lm)
    coarse = np.einsum("pqn,n,pq->p", vals[:, :, : t_a.size], w_a, width)
    value = np.einsum("pqn,n,pq->p", vals[:, :, t_a.size :], w_b, width)
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
        raise QuadratureFailure("reference refinement did not converge")
    total = i_low + value + tail - 2.0
    total[excluded] = np.nan
    out[idx] = total
    return out


def _reference_truncation_and_tail(amp, s, theta, lam, gamma, nu):
    """Reference for ``_truncation_and_tail``, from theta and lambda alone."""
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


def _sign_change_row(rng, alpha, theta):
    """lambda < 0 such that h(theta, lambda) changes sign in the last panel,
    between the largest level-1 node and the largest level-2 node, so that
    only level 2 can see h <= 0; None where no lambda < 0 puts it there."""
    gamma, nu = SPEC.pareto_gamma, SPEC.pareto_nu
    t1, t2 = _gl_rule(2 * _BASE_ORDER)[0].max(), _gl_rule(4 * _BASE_ORDER)[0].max()
    u = rng.uniform(0.05, 0.95)
    lam = -0.01
    for _ in range(3):  # the truncation point moves a little with lambda
        x_cut = _reference_truncation_and_tail(
            2.0 * alpha * alpha, 2.0 * alpha, np.array([theta]), np.array([lam]), gamma, nu
        )[0][0]
        panel = (x_cut - nu) / _N_PANELS
        x0 = x_cut - panel + panel * (t1 + u * (t2 - t1))
        exponential = theta * math.exp(-theta * x0)
        pareto = gamma * nu**gamma * x0 ** (-gamma - 1.0)
        if pareto <= exponential:
            return None
        lam = -exponential / (pareto - exponential)
    return lam


def test_quadrature_matches_level_by_level_reference():
    # every point gets the reference's value and exclusion, bit for bit, and
    # a batch the reference cannot refine raises
    rng = np.random.default_rng(8)
    # (alpha, theta, lambda) that the reference cannot refine to the target
    failing = (0.1, 0.008193433481164192, -0.005904672011243888)
    outcomes = {"raised": 0, "level2_excluded": 0, "level2_ignored": 0}
    for _ in range(300):
        alpha = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        s = 2.0 * alpha
        rows = []
        for _ in range(int(rng.integers(1, 13))):
            kind = rng.integers(6)
            if kind == 0:  # lambda < 0 near the sign change of h
                theta = float(rng.uniform(0.05, 0.99 * s))
                lam = _sign_change_row(rng, alpha, theta)
                rows.append((theta, lam, True) if lam is not None else (theta, -0.01, False))
            elif kind == 1:  # the lambda = 0 line, divergent past theta = 2 alpha
                rows.append((float(rng.uniform(0.1, 2.0 * s)), 0.0, False))
            elif kind == 2:  # theta >= 2 alpha with lambda on either side of 0
                rows.append((float(rng.uniform(s, 3.0 * s)), float(rng.uniform(-0.3, 0.9)), False))
            elif kind == 3:  # outside the search box
                theta = float(rng.choice([-1.0, 0.0, 1e-3, 0.2, 5.0, 40.0]))
                lam = float(rng.choice([-0.9, -0.3, 0.8, 0.999, 1.0, 1.5]))
                rows.append((theta, lam, False))
            else:  # inside the box
                rows.append(
                    (float(rng.uniform(SPEC.theta_lo, SPEC.theta_hi)),
                     float(rng.uniform(SPEC.lambda_lo, SPEC.lambda_hi)), False)
                )
        if alpha == failing[0] and rng.random() < 0.25:
            rows.insert(int(rng.integers(len(rows) + 1)), (failing[1], failing[2], False))
        thetas = np.array([r[0] for r in rows])
        lams = np.array([r[1] for r in rows])
        try:
            expected = _level_by_level_integral(alpha, thetas, lams, SPEC)
        except QuadratureFailure:
            with pytest.raises(QuadratureFailure):
                _integral_batch(alpha, thetas, lams, SPEC)
            outcomes["raised"] += 1
            continue
        assert _integral_batch(alpha, thetas, lams, SPEC).tobytes() == expected.tobytes()
        for (_, _, targeted), value in zip(rows, expected):
            if targeted:
                outcomes["level2_excluded" if np.isnan(value) else "level2_ignored"] += 1
    # the batches reach both fates of a point whose h <= 0 shows only at
    # level 2, and the quadrature failure
    assert min(outcomes.values()) > 0, outcomes
