"""Marginal GOF: PIT, indicator families, null covariance lemmas, table form.

The lemmas and the table form are checked against ``reference``."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from chi2dual import (
    DegenerateCellsWarning,
    Grid,
    InvalidInput,
    InvalidSpec,
    MarginalSpec,
    Sample,
    SmallSampleWarning,
    build_indicator_family,
    chi2_quadratic,
    dual_coefficients,
    marginal_test,
    marginal_sieve_plan,
    moment_vectors,
    parse_marginal_spec,
    pit_transform,
    sieve_test,
)
from chi2dual.marginal import (
    ExponentialCDF,
    NormalCDF,
    UniformCDF,
    _cell_table,
    _table_moment_vectors,
)
from chi2dual.rng import Stream
from reference import (
    cell_counts_2d,
    cumulative_indicator_family,
    null_eigen_envelope,
    pearson_min_form,
    s0_matrix,
    table_coefficients_to_dual,
    u_matrix,
)


def random_grid(rng, m):
    # widths in [1, 10] keep the cell-ratio condition satisfied
    widths = 1.0 + 9.0 * rng.random(m + 1)
    cuts = np.cumsum(widths)[:-1] / widths.sum()
    return Grid(cuts)


def exact_covariance(f_matrix):
    """Covariance of 0/1 indicator columns in rational arithmetic, rounded once."""
    n = f_matrix.shape[0]
    joint = (f_matrix.T @ f_matrix).astype(int)  # counts: exact in float64
    means = [Fraction(int(c), n) for c in np.diag(joint)]
    return np.array(
        [[float(Fraction(int(c), n) - ma * mb) for c, mb in zip(row, means)]
         for row, ma in zip(joint, means)]
    )


class TestGrid:
    def test_uniform_grid(self):
        g = Grid.uniform(3)
        assert g.cuts == pytest.approx([0.25, 0.5, 0.75])
        assert g.cell_probs == pytest.approx([0.25] * 4)

    def test_rejects_unsorted_and_out_of_range(self):
        with pytest.raises(InvalidInput):
            Grid(np.array([0.5, 0.3]))
        with pytest.raises(InvalidInput):
            Grid(np.array([0.0, 0.5]))
        with pytest.raises(InvalidInput):
            Grid(np.array([0.5, 1.0]))

    def test_rejects_extreme_cell_ratio(self):
        with pytest.raises(InvalidInput):
            Grid(np.array([0.001, 0.5]))

    def test_cell_index_half_open_convention(self):
        g = Grid(np.array([0.25, 0.5]))
        idx = g.cell_index(np.array([0.0, 0.25, 0.26, 0.5, 0.51, 1.0]))
        assert list(idx) == [0, 0, 1, 1, 2, 2]


class TestPitTransform:
    def test_uniform_cdfs_are_identity(self):
        stream = Stream(3)
        data = stream.uniforms(40).reshape(-1, 2)
        out = pit_transform(Sample(data), MarginalSpec.all_uniform(2))
        assert np.array_equal(out.data, data)

    def test_exponential_boundary(self):
        cdf = ExponentialCDF(1.0)
        assert cdf(np.array([0.0]))[0] == 0.0
        sample = Sample(np.array([[0.0], [1.0], [2.0]]))
        out = pit_transform(sample, MarginalSpec((cdf,)))
        assert out.data[0, 0] == 0.0
        assert np.all((out.data >= 0) & (out.data <= 1))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidSpec):
            pit_transform(Sample(np.ones((3, 2))), MarginalSpec((UniformCDF(),)))

    def test_parse_spec_menu(self):
        spec = parse_marginal_spec("uniform(0,1);exp(2.0);normal(0,1)")
        assert spec.d == 3
        assert isinstance(spec.cdfs[0], UniformCDF)
        assert isinstance(spec.cdfs[1], ExponentialCDF)
        assert isinstance(spec.cdfs[2], NormalCDF)
        with pytest.raises(InvalidSpec):
            parse_marginal_spec("cauchy(0,1)")
        with pytest.raises(InvalidSpec):
            parse_marginal_spec("uniform(0,1)", d=2)


class TestIndicatorFamilies:
    def test_minimal_family(self):
        fam = cumulative_indicator_family(np.array([0.5]), 1)
        assert fam.k == 1
        assert fam.targets == pytest.approx([0.5])
        vals = fam.evaluate(Sample(np.array([[0.2], [0.5], [0.7]])))
        assert list(vals[:, 0]) == [1.0, 1.0, 0.0]

    def test_uniform_delta_targets(self):
        fam = build_indicator_family(Grid.uniform(3), 1)
        assert fam.targets == pytest.approx([0.25, 0.25, 0.25])

    def test_delta_and_cumulative_statistics_agree(self):
        rng = np.random.default_rng(12)
        stream = Stream(88)
        for trial in range(12):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 7))
            n = int(rng.integers(150, 400))
            grid = random_grid(rng, m)
            data = stream.uniforms(n * d).reshape(n, d)
            if trial % 3 == 0:
                data = data**1.3  # push away from the null too
            sample = Sample(data)
            dense = moment_vectors(sample, build_indicator_family(grid, d))
            chi_delta = chi2_quadratic(dense)
            cumulative = cumulative_indicator_family(grid.cuts, d)
            chi_cum = chi2_quadratic(moment_vectors(sample, cumulative))
            assert abs(chi_delta - chi_cum) <= 1e-10
            # the cell-count path used by marginal_test
            counted = _table_moment_vectors(_cell_table(sample, grid), grid, n)
            assert np.array_equal(counted.nu_n, dense.nu_n)
            assert np.array_equal(counted.empirical_means, dense.empirical_means)
            eps = np.finfo(float).eps
            # three roundings of values below 1 per entry of the counted S
            exact = exact_covariance(build_indicator_family(grid, d).evaluate(sample))
            assert np.abs(counted.s_n - exact).max() <= 2 * eps
            # the dense product's a-priori bound: n-term sums of terms below 1, over n
            assert np.abs(counted.s_n - dense.s_n).max() <= n * eps
            chi_counted = chi2_quadratic(counted)
            assert abs(chi_counted - chi_delta) <= 1e-10
            assert abs(chi_counted - chi_cum) <= 1e-10


class TestNullCovariance:
    def test_scalar_case(self):
        g = Grid(np.array([0.5]))
        assert np.allclose(s0_matrix(g.cell_probs[:1], 1), [[0.25]], atol=1e-15)
        eigs, lower, upper = null_eigen_envelope(g.cell_probs, 1)
        assert lower - 1e-10 <= eigs[0] and eigs[-1] <= upper + 1e-10
        assert lower == pytest.approx(0.25)
        assert upper == pytest.approx(0.5)

    def test_u_matrix_spectrum(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 5, 17, 50):
            g = random_grid(rng, m)
            p = g.cell_probs
            u = u_matrix(p[:m])
            eigs = np.sort(np.linalg.eigvalsh(u))
            assert eigs[-1] == pytest.approx(1.0 - p[-1], abs=1e-10)
            assert np.allclose(eigs[:-1], 0.0, atol=1e-10)
            assert np.trace(u) == pytest.approx(1.0 - p[-1], abs=1e-12)

    def test_rank_one_identities(self):
        rng = np.random.default_rng(6)
        for m in (1, 3, 12, 50):
            g = random_grid(rng, m)
            u = u_matrix(g.cell_probs[:m])
            p_last = g.cell_probs[-1]
            eye = np.eye(m)
            assert np.abs(u @ u - (1.0 - p_last) * u).max() <= 1e-12
            residual = (eye - u) @ (eye + u / p_last) - eye
            assert np.abs(residual).max() <= 1e-12

    def test_eigenvalue_envelope_random_grids(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = int(rng.integers(1, 51))
            d = int(rng.integers(1, 4))
            g = random_grid(rng, m)
            eigs, lower, upper = null_eigen_envelope(g.cell_probs, d)
            assert lower - 1e-10 <= eigs[0] and eigs[-1] <= upper + 1e-10


class TestPearsonMinForm:
    def test_counts_proportional_to_targets(self):
        p = Grid.uniform(2).cell_probs
        value, _, _ = pearson_min_form(900.0 * np.outer(p, p), p)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_matches_quadratic_form_on_random_tables(self):
        rng = np.random.default_rng(31)
        stream = Stream(414)
        for trial in range(15):
            m = int(rng.integers(1, 5))
            grid = random_grid(rng, m)
            n = int(rng.integers(250, 600))
            data = stream.uniforms(2 * n).reshape(n, 2)
            sample = Sample(data)
            counts = cell_counts_2d(data, grid.cuts)
            if np.any(counts == 0.0):
                continue
            p = grid.cell_probs
            value, a, b = pearson_min_form(counts, p)
            fam = build_indicator_family(grid, 2)
            assert value == pytest.approx(n * chi2_quadratic(moment_vectors(sample, fam)), abs=1e-8)
            # the cell-count path of marginal_test
            counted = _table_moment_vectors(_cell_table(sample, grid), grid, n)
            assert value == pytest.approx(n * chi2_quadratic(counted), abs=1e-8)
            q = counts * (1.0 + a[:, None] + b[None, :]) / n
            assert np.abs(q.sum(axis=1) - p).max() <= 1e-8
            assert np.abs(q.sum(axis=0) - p).max() <= 1e-8

    def test_multiplier_map_reproduces_dual_coefficients(self):
        stream = Stream(2718)
        grid = Grid.uniform(2)
        data = stream.uniforms(2 * 500).reshape(500, 2)
        sample = Sample(data)
        counts = cell_counts_2d(data, grid.cuts)
        assert np.all(counts > 0)
        value, a, b = pearson_min_form(counts, grid.cell_probs)
        intercept, coeffs = table_coefficients_to_dual(a, b)
        dual = dual_coefficients(moment_vectors(sample, build_indicator_family(grid, 2)))
        assert coeffs == pytest.approx(dual.a, abs=1e-8)
        assert intercept == pytest.approx(dual.a0, abs=1e-8)
        report = marginal_test(sample, MarginalSpec.all_uniform(2), 0.05, m=2)
        assert value == pytest.approx(report.diagnostics["scaled_statistic"], abs=1e-8)


class TestMarginalTest:
    def test_pit_invariance_exact(self):
        stream = Stream(55)
        raw = np.column_stack(
            [
                -np.log(stream.uniforms(600)),  # exponential-looking
                stream.uniforms(600),
            ]
        )
        spec = parse_marginal_spec("exp(1.0);uniform(0,1)")
        direct = marginal_test(Sample(raw), spec, 0.05, m=3)
        pitted = pit_transform(Sample(raw), spec)
        indirect = marginal_test(pitted, MarginalSpec.all_uniform(2), 0.05, m=3)
        assert direct.statistic == indirect.statistic
        assert direct.p_value == indirect.p_value

    def test_null_data_usually_accepts(self):
        stream = Stream(321)
        data = stream.uniforms(4000).reshape(-1, 2)
        report = marginal_test(Sample(data), MarginalSpec.all_uniform(2), 0.05, m=4)
        assert report.reference_law == "std_normal"
        assert report.diagnostics["m"] == 4.0

    def test_beta_first_marginal_rejected(self):
        stream = Stream(13)
        u = stream.uniforms(3 * 3000).reshape(-1, 3)
        data = np.column_stack([np.median(u, axis=1), stream.uniforms(3000)])
        report = marginal_test(Sample(data), MarginalSpec.all_uniform(2), 0.05, m=6)
        assert report.reject

    def test_degenerate_cell_warns_then_singular(self):
        # an empty marginal cell makes the indicator covariance singular
        # (the cell indicators sum to a constant on the sample), so the
        # warning fires and SingularCovariance propagates
        from chi2dual import SingularCovariance

        spread = np.linspace(0.01, 0.99, 60)
        cases = [  # (data, m): upper cell empty; d = 2 with first / last cell of x1 empty
            (np.column_stack([np.linspace(0.01, 0.45, 60)]), 1),
            (np.column_stack([np.linspace(0.4, 0.99, 60), spread]), 2),
            (np.column_stack([np.linspace(0.01, 0.6, 60), spread]), 2),
        ]
        for data, m in cases:
            spec = MarginalSpec.all_uniform(data.shape[1])
            with pytest.warns(DegenerateCellsWarning) as record:
                with pytest.raises(SingularCovariance):
                    marginal_test(Sample(data), spec, 0.05, m=m)
            assert [str(w.message) for w in record] == [
                "1 marginal grid cells have zero observations"
            ]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_match_generic_sieve_test(self, d):
        stream = Stream(400 + d)
        sample = Sample(stream.uniforms(3000 * d).reshape(-1, d) ** 1.2)
        spec = MarginalSpec.all_uniform(d)
        counted = marginal_test(sample, spec, 0.05)
        generic = sieve_test(pit_transform(sample, spec), marginal_sieve_plan(d), 0.05)
        assert counted.statistic == pytest.approx(generic.statistic, rel=1e-12)
        for key in ("chi2_value", "scaled_statistic"):
            assert counted.diagnostics[key] == pytest.approx(generic.diagnostics[key], rel=1e-12)
        assert counted.diagnostics["k"] == generic.diagnostics["k"] == 8.0 * d

    def test_small_sample_warning(self):
        stream = Stream(77)
        data = stream.uniforms(40).reshape(-1, 2)
        with pytest.warns(SmallSampleWarning):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateCellsWarning)
                marginal_test(Sample(data), MarginalSpec.all_uniform(2), 0.05, m=3)
