"""Sieve: standardization, families rebuilt at one size, rate-condition sequences (from ``reference``)."""

import math

import numpy as np
import pytest

from chi2dual import ConstraintFamily, Sample, default_m, sieve_test
from chi2dual.marginal import build_indicator_family
from chi2dual.rng import Stream
from reference import decreasing, marginal_plan_sequences, rate_sequences, standardized_statistic


def indicator_family(n, d=1):
    """The marginal test's family at sample size n: k = d * default_m(n)."""
    return build_indicator_family(default_m(n), d)


class TestDefaultGrowth:
    def test_quarter_power_rule(self):
        assert default_m(1) == 2
        assert default_m(16) == 2
        assert default_m(17) == 3
        assert default_m(10_000) == 10
        assert default_m(100_000) == 18

    def test_exact_at_a_fourth_power(self):
        # exact at and beside a fourth power, where n ** 0.25 rounds
        assert [default_m(630**4 + e) for e in (-1, 0, 1)] == [630, 630, 631]

    def test_nondecreasing(self):
        values = [default_m(n) for n in range(1, 3000, 7)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestStandardizedStatistic:
    def test_exactly_satisfied_k2(self):
        # both cell constraints of the m = 2 grid hold exactly: statistic forced to -1
        data = np.array([[0.1], [0.2], [0.4], [0.6], [0.8], [0.9]])
        fam = build_indicator_family(2, 1)
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
        fam = indicator_family(300, d=2)
        r1 = sieve_test(Sample(data), fam, 0.05)
        r2 = sieve_test(Sample(data.copy()), fam, 0.05)
        assert r1.statistic == r2.statistic


class TestNesting:
    def test_family_rebuilt_at_the_same_size_is_identical(self):
        # the uniform grids refine rather than extend, so the families of
        # two sizes are not nested; a family built twice at one size is
        # the same family
        small = indicator_family(100)
        large = indicator_family(100_000)
        assert large.k > small.k
        x = np.linspace(0.01, 0.99, 37).reshape(-1, 1)
        sample = Sample(x)
        again = indicator_family(100)
        assert np.array_equal(small.evaluate(sample), again.evaluate(sample))
        assert np.array_equal(small.targets, again.targets)
        assert large.evaluate(sample).shape[1] == large.k


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
        report = sieve_test(Sample(null_data), indicator_family(1000, d=2), 0.05)
        assert report.reference_law == "std_normal"
        assert report.reject == (report.p_value < 0.05)
        # alternative: concentrated first coordinate drifts positive
        skew = null_data.copy()
        skew[:, 0] = skew[:, 0] ** 3
        alt = sieve_test(Sample(skew), indicator_family(1000, d=2), 0.05)
        assert alt.statistic > report.statistic
        assert alt.reject
