"""Linear-constraint test: reference laws, report contract, decisions."""

import json

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from chi2dual import ConstraintFamily, InvalidLevel, Sample
from chi2dual import test_linear as run_linear_test
from chi2dual.cli import emit_json
from chi2dual.linear import CHI_SQUARED, STD_NORMAL, TestReport
from chi2dual.montecarlo import rnormal
from chi2dual.rng import Stream


def mean_family(target):
    return ConstraintFamily((lambda x: x[:, 0],), np.array([target]))


def chi2_cdf(x, k):
    return TestReport(0.0, CHI_SQUARED, float(k), 0.05).cdf(x)


def chi2_sf(x, k):
    return TestReport(x, CHI_SQUARED, float(k), 0.05).p_value


def normal_cdf(z):
    return TestReport(0.0, STD_NORMAL, 1.0, 0.05).cdf(z)


class TestReferenceLaws:
    """The laws as a report reads them: ``TestReport.cdf`` and ``p_value``."""

    def test_chi2_cdf_at_zero(self):
        # gammainc(a, 0) and gammaincc(a, 0) are exactly 0 and 1; below 0 the
        # law reads as at 0, where gammainc itself would give nan
        for k in (1, 2, 5, 10):
            for t in (0.0, -0.0, -1.0):
                assert chi2_cdf(t, k) == 0.0
                assert chi2_sf(t, k) == 1.0

    def test_normal_cdf_symmetry(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert normal_cdf(1.3) + normal_cdf(-1.3) == pytest.approx(1.0, abs=1e-14)

    def test_chi2_quantile_against_quadrature(self):
        # one-degree CDF via the substitution t = u^2, removing the
        # endpoint singularity before integrating independently
        density = lambda u: 2.0 * np.exp(-u * u / 2.0) / np.sqrt(2.0 * np.pi)
        integral, err = scipy.integrate.quad(density, 0.0, np.sqrt(3.841459), limit=200)
        assert err < 1e-10
        assert chi2_cdf(3.841459, 1) == pytest.approx(integral, abs=1e-10)
        assert chi2_cdf(3.841459, 1) == pytest.approx(0.95, abs=1e-6)

    def test_chi2_cdf_matches_quadrature_k3(self):
        density = lambda t: np.sqrt(t) * np.exp(-t / 2.0) / np.sqrt(2.0 * np.pi)
        for x in (0.5, 2.0, 7.81):
            integral, _ = scipy.integrate.quad(density, 0.0, x, limit=200)
            assert chi2_cdf(x, 3) == pytest.approx(integral, rel=1e-9)

    def test_sf_complements_cdf(self):
        for x, k in ((0.3, 1), (5.2, 3), (12.0, 7)):
            assert chi2_sf(x, k) == pytest.approx(1.0 - chi2_cdf(x, k), abs=1e-12)

    def test_p_value_monotone_in_statistic(self):
        grid = np.linspace(0.1, 30.0, 40)
        values = [chi2_sf(x, 3) for x in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("law, df", [(CHI_SQUARED, 3.0), (STD_NORMAL, 1.0)])
    def test_infinite_statistic_rejects_with_cdf_one(self, law, df):
        report = TestReport(np.inf, law, df, 0.05)
        assert report.p_value == 0.0
        assert report.reject is True
        assert report.cdf(np.inf) == 1.0


class TestLinearTest:
    def test_exactly_satisfied_constraints(self):
        data = np.array([[0.0], [1.0], [2.0]])
        report = run_linear_test(Sample(data), mean_family(1.0), 0.05)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert not report.reject

    def test_alternative_rejects_at_scale(self):
        stream = Stream(314)
        data = stream.uniforms(4000).reshape(-1, 1)
        report = run_linear_test(Sample(data), mean_family(0.25), 0.05)
        assert report.reject
        assert report.diagnostics["chi2_value"] == pytest.approx(0.75, abs=0.1)
        lo, hi = report.diagnostics["h1_ci_low"], report.diagnostics["h1_ci_high"]
        assert lo < 0.75 < hi

    def test_statistic_grows_with_n_under_alternative(self):
        stream = Stream(7)
        data = stream.uniforms(4000).reshape(-1, 1)
        small = run_linear_test(Sample(data[:400]), mean_family(0.25), 0.05)
        large = run_linear_test(Sample(data), mean_family(0.25), 0.05)
        assert large.statistic > small.statistic

    def test_invalid_level(self):
        data = np.array([[0.0], [1.0]])
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidLevel):
                run_linear_test(Sample(data), mean_family(0.25), alpha)

    def test_reject_flag_invariant_under_recombination(self):
        stream = Stream(99)
        data = rnormal(stream, 300).reshape(-1, 1)
        fam = ConstraintFamily(
            (lambda x: x[:, 0], lambda x: x[:, 0] ** 2),
            np.array([0.1, 1.0]),
        )
        mixed = ConstraintFamily(
            (
                lambda x: 2.0 * x[:, 0] + x[:, 0] ** 2,
                lambda x: x[:, 0] - 3.0 * x[:, 0] ** 2,
            ),
            np.array([2.0 * 0.1 + 1.0, 0.1 - 3.0]),
        )
        r1 = run_linear_test(Sample(data), fam, 0.05)
        r2 = run_linear_test(Sample(data), mixed, 0.05)
        assert r1.reject == r2.reject
        assert r1.statistic == pytest.approx(r2.statistic, abs=1e-8)

    def test_diagnostics_contract(self):
        data = np.array([[0.1], [0.9], [0.4], [0.2]])
        report = run_linear_test(Sample(data), mean_family(0.3), 0.1)
        for key in ("condition_number", "k", "n", "chi2_value", "h1_variance"):
            assert key in report.diagnostics


class TestReportSerialization:
    def test_round_trip_equality(self):
        data = np.array([[0.2], [0.8], [0.5]])
        report = run_linear_test(Sample(data), mean_family(0.4), 0.05)
        wire = report.to_json_dict()
        # floats go out by repr, the shortest text that reads back the same float
        assert json.loads(emit_json(wire)) == wire

    def test_wire_field_names(self):
        data = np.array([[0.2], [0.8]])
        report = run_linear_test(Sample(data), mean_family(0.4), 0.05)
        wire = report.to_json_dict()
        assert list(wire.keys()) == [
            "statistic",
            "reference_law",
            "df",
            "p_value",
            "alpha",
            "reject",
            "diagnostics",
        ]


class TestReportLaw:
    """The constructor derives the p-value and the decision from the named law."""

    CHI2_GRID = (0.0, 1e-12, 0.3, 1.0, 2.706, 3.841459, 7.81, 25.0, 80.0)
    NORMAL_GRID = (-6.0, -1.3, -1e-9, 0.0, 0.5, 1.6448536269514722, 3.0, 8.0)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_chi_squared_p_value_is_the_upper_tail(self, k):
        for t in self.CHI2_GRID:
            for alpha in (0.01, 0.05, 0.5):
                report = TestReport(t, CHI_SQUARED, float(k), alpha)
                assert report.p_value == scipy.special.gammaincc(k / 2.0, t / 2.0)  # bit for bit
                assert report.reject == (report.p_value < alpha)
                assert abs(report.cdf(t) + report.p_value - 1.0) <= 1e-12

    def test_std_normal_p_value_is_the_upper_tail(self):
        for z in self.NORMAL_GRID:
            for alpha in (0.01, 0.05, 0.5):
                report = TestReport(z, STD_NORMAL, 1.0, alpha)
                assert report.p_value == 1.0 - scipy.special.ndtr(z)  # bit for bit
                assert report.reject == (report.p_value < alpha)
                assert abs(report.cdf(z) + report.p_value - 1.0) <= 1e-12

    def test_decision_at_the_level_is_strict(self):
        report = TestReport(3.841459, CHI_SQUARED, 1.0, 0.5)
        assert not TestReport(3.841459, CHI_SQUARED, 1.0, report.p_value).reject

    def test_cdf_is_the_named_law(self):
        chi2 = TestReport(0.0, CHI_SQUARED, 3.0, 0.05).cdf(7.81)
        assert chi2 == scipy.special.gammainc(1.5, 7.81 / 2.0)
        assert TestReport(0.0, STD_NORMAL, 1.0, 0.05).cdf(1.3) == scipy.special.ndtr(1.3)

    def test_test_linear_report_rebuilds_from_its_own_fields(self):
        data = np.array([[0.2], [0.8], [0.5], [0.9]])
        report = run_linear_test(Sample(data), mean_family(0.4), 0.05)
        rebuilt = TestReport(
            report.statistic, report.reference_law, report.df_or_sd, report.alpha,
            report.diagnostics,
        )
        assert rebuilt == report
