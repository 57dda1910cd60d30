"""Generators, stream determinism, replication harness."""

import numpy as np
import pytest

from chi2dual import (
    CalibrationReport,
    InvalidParameter,
    PlanFailure,
    ReplicationPlan,
    ks_one_sample,
    rbeta22,
    rexp,
    rmixture,
    rnormal,
    rpareto,
    run_plan,
    runif_d,
)
from chi2dual.rng import MASK64, Stream, mix64, replicate_seed


class TestStream:
    def test_same_seed_same_values(self):
        a = Stream(123).uniforms(64)
        b = Stream(123).uniforms(64)
        assert np.array_equal(a, b)

    def test_sequential_equals_chunked(self):
        whole = Stream(9).uniforms(100)
        s = Stream(9)
        parts = np.concatenate([s.uniforms(37), s.uniforms(63)])
        assert np.array_equal(whole, parts)

    def test_open_interval(self):
        u = Stream(77).uniforms(100_000)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_wrapping_replicate_seed(self):
        assert replicate_seed(MASK64, 1) == 0
        assert replicate_seed(5, 7) == 12

    def test_derive_changes_stream(self):
        base = Stream(42)
        derived = base.derive(1)
        assert not np.array_equal(Stream(42).uniforms(16), derived.uniforms(16))

    def test_mix64_reference_values(self):
        # SplitMix64 outputs for seed 1234567: first three next() values
        gamma = 0x9E3779B97F4A7C15
        state = np.uint64((1234567 + gamma) & MASK64)
        expected = int(mix64(np.array([state], dtype=np.uint64))[0])
        stream = Stream(1234567)
        assert int(stream.raw(1)[0]) == expected

    def test_pairwise_stream_correlation(self):
        a = Stream(replicate_seed(1000, 0)).uniforms(10_000)
        b = Stream(replicate_seed(1000, 1)).uniforms(10_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.05


class TestGenerators:
    def test_exponential_mean(self):
        x = rexp(Stream(11), 20_000, theta=2.0)
        se = (1.0 / 2.0) / np.sqrt(20_000)
        assert abs(x.mean() - 0.5) < 3 * se
        assert x.min() > 0

    def test_pareto_cdf_matches_analytic(self):
        gamma, nu = 2.0, 1.5
        x = rpareto(Stream(12), 10_000, gamma, nu)
        assert x.min() > nu
        cdf = lambda t: 1.0 - (nu / t) ** gamma if t >= nu else 0.0
        assert ks_one_sample(x, cdf) < 0.02

    def test_mixture_zero_lambda_is_pure_exponential(self):
        pure = rexp(Stream(13), 500, 1.0)
        mixed = rmixture(Stream(13), 500, 1.0, 0.0, 2.0, 1.5)
        assert np.array_equal(pure, mixed)

    def test_mixture_contains_outliers(self):
        x = rmixture(Stream(14), 5000, 1.0, 0.3, 2.0, 1.5)
        # contaminated stream exceeds the Pareto onset far more often
        y = rexp(Stream(14), 5000, 1.0)
        assert np.mean(x > 1.5) > np.mean(y > 1.5)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            rexp(Stream(1), 10, theta=0.0)
        with pytest.raises(InvalidParameter):
            rpareto(Stream(1), 10, gamma=0.9, nu=1.5)
        with pytest.raises(InvalidParameter):
            rmixture(Stream(1), 10, 1.0, -0.1, 2.0, 1.5)
        with pytest.raises(InvalidParameter):
            runif_d(Stream(1), 10, 0)

    def test_beta22_moments(self):
        x = rbeta22(Stream(15), 40_000)
        assert abs(x.mean() - 0.5) < 0.005
        assert abs(x.var() - 0.05) < 0.003  # Beta(2,2) variance is 1/20

    def test_normal_moments_and_symmetry(self):
        z = rnormal(Stream(16), 40_001)  # odd count exercises truncation
        assert z.shape == (40_001,)
        assert abs(z.mean()) < 3.0 / np.sqrt(40_001)
        assert abs(z.var() - 1.0) < 0.03

    def test_ks_distance_exact_on_tiny_case(self):
        values = np.array([0.25, 0.5, 0.75])
        d = ks_one_sample(values, lambda v: v)
        # empirical CDF steps: max gap is 1/4 at the first point's left limit
        assert d == pytest.approx(0.25, abs=1e-12)


def _ks_samples(seed):
    """Seeded samples of size 1, 7 and 200, some with ties and exact zeros."""
    gen = np.random.default_rng(seed)
    tied = np.round(gen.chisquare(2, 200), 1)  # rounding makes ties, some at 0.0
    tied[:5] = 0.0
    return [
        np.array([0.0]),
        gen.chisquare(1, 1),
        np.array([0.0, 0.0, 0.4, 0.4, 0.4, 1.7, 3.2]),
        gen.normal(size=7),
        tied,
        gen.chisquare(3, 200),
    ]


class TestKsOracle:
    """``ks_one_sample`` against scipy's one-sample KS statistic."""

    @pytest.mark.parametrize("law", ["chi2_1", "chi2_3", "normal"])
    @pytest.mark.parametrize("seed", [3, 31])
    def test_matches_scipy_kstest(self, law, seed):
        import scipy.stats

        cdf = {
            "chi2_1": scipy.stats.chi2(1).cdf,
            "chi2_3": scipy.stats.chi2(3).cdf,
            "normal": scipy.stats.norm.cdf,
        }[law]
        for values in _ks_samples(seed):
            want = scipy.stats.kstest(values, cdf).statistic
            assert ks_one_sample(values, cdf) == pytest.approx(want, rel=1e-13, abs=1e-15)


# scenario, n, replicates, reference law; small n for linear_alt keeps its
# statistics where chi2(1) and chi2(3) still differ
REFERENCE_LAW_CASES = [
    ("linear_null", 200, 8, "chi2_3"),
    ("linear_alt", 3, 8, "chi2_1"),
    ("marginal_null", 300, 8, "normal"),
    ("marginal_alt", 300, 8, "normal"),
    ("contam_null", 60, 2, "chi2_1"),
    ("contam_alt", 60, 2, "chi2_1"),
]


class TestRunPlan:
    def test_determinism_bit_for_bit(self):
        plan = ReplicationPlan(
            scenario="linear_null", n=120, replicates=8, base_seed=900, alpha=0.05
        )
        r1 = run_plan(plan)
        r2 = run_plan(plan)
        assert r1.statistics == r2.statistics
        assert r1.rejection_rate == r2.rejection_rate
        assert r1.ks_distance == r2.ks_distance

    def test_linear_null_calibration_smoke(self):
        plan = ReplicationPlan(
            scenario="linear_null", n=300, replicates=120, base_seed=4242, alpha=0.05
        )
        report = run_plan(plan)
        assert 0.0 <= report.rejection_rate <= 0.15
        assert report.ks_distance < 0.15
        assert report.n_failures == 0

    def test_linear_alt_diverges(self):
        small = run_plan(
            ReplicationPlan("linear_alt", n=200, replicates=20, base_seed=5, alpha=0.05)
        )
        large = run_plan(
            ReplicationPlan("linear_alt", n=2000, replicates=20, base_seed=5, alpha=0.05)
        )
        assert np.median(large.statistics) > np.median(small.statistics)
        assert large.rejection_rate == 1.0

    def test_marginal_null_smoke(self):
        plan = ReplicationPlan(
            scenario="marginal_null",
            n=800,
            replicates=30,
            base_seed=31,
            alpha=0.05,
            params={"d": 2, "m": 3},
        )
        report = run_plan(plan)
        assert report.n_failures == 0
        assert abs(np.mean(report.statistics)) < 0.8

    def test_failure_budget_exceeded(self):
        # duplicated constraint: every replicate raises SingularCovariance
        import chi2dual.montecarlo as mc
        from chi2dual import ConstraintFamily

        plan = ReplicationPlan(
            scenario="linear_null", n=50, replicates=10, base_seed=1, alpha=0.05
        )
        original = mc._linear_moment_family

        def degenerate():
            return ConstraintFamily(
                (lambda x: x[:, 0], lambda x: 2.0 * x[:, 0]),
                np.array([0.0, 0.0]),
            )

        mc._linear_moment_family = degenerate
        try:
            with pytest.raises(PlanFailure):
                run_plan(plan)
        finally:
            mc._linear_moment_family = original

    def test_failure_within_the_budget_is_left_out(self, monkeypatch):
        # one failure in 200 replicates is within the 1% budget: the rejection
        # rate and the KS distance are taken over the other 199 statistics
        import scipy.stats

        import chi2dual.montecarlo as mc
        from chi2dual import SingularCovariance

        plan = ReplicationPlan("linear_null", n=50, replicates=200, base_seed=3, alpha=0.05)
        full = run_plan(plan)
        replicate, keys = mc._SCENARIO_TABLE["linear_null"]

        def failing_at_37(plan, stream):
            if int(stream.seed) == replicate_seed(plan.base_seed, 37):
                raise SingularCovariance("replicate 37")
            return replicate(plan, stream)

        monkeypatch.setitem(mc._SCENARIO_TABLE, "linear_null", (failing_at_37, keys))
        report = run_plan(plan)
        assert report.n_failures == 1 and report.failed_replicates == (37,)
        kept = full.statistics[:37] + full.statistics[38:]
        assert report.statistics == kept and len(kept) == 199
        law = scipy.stats.chi2(3)
        assert report.rejection_rate == np.count_nonzero(law.sf(kept) < 0.05) / 199
        assert abs(report.ks_distance - scipy.stats.kstest(kept, law.cdf).statistic) <= 1e-12

    def test_plan_validation(self):
        from chi2dual import InvalidInput

        with pytest.raises(InvalidInput):
            ReplicationPlan("bogus", n=10, replicates=5, base_seed=0)
        with pytest.raises(InvalidInput):
            ReplicationPlan("linear_null", n=0, replicates=5, base_seed=0)

    @pytest.mark.parametrize("scenario, n, replicates, law", REFERENCE_LAW_CASES)
    def test_scenario_reference_law(self, scenario, n, replicates, law):
        import scipy.stats

        laws = {
            "chi2_3": scipy.stats.chi2(3).cdf,
            "chi2_1": scipy.stats.chi2(1).cdf,
            "normal": scipy.stats.norm.cdf,
        }
        params = {"alpha_tol": 0.05} if scenario.startswith("contam") else {}
        report = run_plan(ReplicationPlan(scenario, n, replicates, 5, params=params))
        assert report.n_failures == 0
        stats = np.array(report.statistics)
        assert report.ks_distance == pytest.approx(
            ks_one_sample(stats, laws[law]), rel=1e-12, abs=1e-14
        )
        # the pin is sharp only if the other laws give a different distance
        for other in set(laws) - {law}:
            assert abs(report.ks_distance - ks_one_sample(stats, laws[other])) > 1e-6

    def test_every_scenario_has_a_reference_law_case(self):
        from chi2dual.montecarlo import SCENARIOS

        assert sorted(case[0] for case in REFERENCE_LAW_CASES) == sorted(SCENARIOS)

    def test_plan_round_trip(self):
        plan = ReplicationPlan(
            "contam_alt",
            n=500,
            replicates=3,
            base_seed=77,
            alpha=0.1,
            params={"lam": 0.2},
        )
        assert ReplicationPlan.from_json_dict(plan.to_json_dict()) == plan
