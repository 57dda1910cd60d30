"""Core dual machinery: hand oracles, primal equivalence, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi2dual import (
    ConstraintFamily,
    InvalidInput,
    Sample,
    SingularCovariance,
    chi2_quadratic,
    dual_coefficients,
    dual_function_values,
    h1_variance,
    legendre_transform,
    moment_vectors,
)
from chi2dual.core import legendre_batch
from reference import dual_objective, dual_target_integral


def polynomial_family(exponents, targets):
    funcs = tuple((lambda e: (lambda x, e=e: x[:, 0] ** e))(e) for e in exponents)
    return ConstraintFamily(funcs, np.asarray(targets, dtype=float))


def kkt_primal_minimum(data, fam):
    """Brute-force primal oracle: minimize n * sum (q_i - 1/n)^2 over signed
    weights q with sum q = 1 and the constraint moments exact, via the
    bordered KKT linear system (independent of the dual path)."""
    sample = Sample(data)
    n = sample.n
    f_matrix = fam.evaluate(sample)
    a_rows = np.vstack([np.ones(n), f_matrix.T])  # (k+1) x n
    b = np.concatenate(([1.0], fam.targets))
    p = np.full(n, 1.0 / n)
    gram = a_rows @ a_rows.T
    mult = np.linalg.solve(gram, b - a_rows @ p)
    q = p + a_rows.T @ mult
    assert np.allclose(a_rows @ q, b, atol=1e-9)
    return n * float(np.sum((q - p) ** 2))


class TestLegendreTransform:
    def test_zero_function(self):
        assert legendre_transform(np.zeros(5)) == 0.0

    def test_constant_two(self):
        assert legendre_transform(np.full(7, 2.0)) == pytest.approx(3.0, abs=1e-15)

    def test_identity_on_small_sample(self):
        # mean + (1/4) second moment evaluated directly
        vals = np.array([0.0, 1.0, 2.0])
        expected = (0 + 1 + 2) / 3 + 0.25 * (0 + 1 + 4) / 3
        assert legendre_transform(vals) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(17 / 12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            legendre_transform(np.array([1.0, np.nan]))
        with pytest.raises(InvalidInput):
            legendre_transform(np.array([]))

    def test_batched_rows_match_one_dimensional(self):
        # long rows, so numpy's pairwise summation splits each of them
        rows = 3.0 * np.random.default_rng(5).standard_normal((6, 1001))
        assert legendre_batch(rows).tolist() == [legendre_transform(r) for r in rows]


class TestDualObjective:
    def test_zero_function_zero_target(self):
        assert dual_objective(np.zeros(4), 0.0) == 0.0

    def test_constant_one_target_one(self):
        assert dual_objective(np.ones(6), 1.0) == pytest.approx(-0.25, abs=1e-15)

    def test_optimal_function_attains_chi2(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(40, 1))
        fam = polynomial_family([1, 2], [0.1, 1.2])
        sample = Sample(data)
        mv = moment_vectors(sample, fam)
        dual = dual_coefficients(mv)
        values = dual_function_values(sample, dual, fam)
        attained = dual_objective(values, dual_target_integral(dual, fam))
        assert attained == pytest.approx(dual.chi2_value, abs=1e-10)


class TestMomentVectors:
    def test_hand_example(self):
        sample = Sample(np.array([[1.0], [2.0], [3.0]]))
        fam = polynomial_family([1], [2.0])
        mv = moment_vectors(sample, fam)
        assert mv.nu_n == pytest.approx([0.0], abs=1e-15)
        assert np.allclose(mv.s_n, [[2.0 / 3.0]], atol=1e-12)

    def test_satisfied_constraints_give_zero_nu(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(25, 1))
        fam = polynomial_family([1, 3], [data[:, 0].mean(), (data[:, 0] ** 3).mean()])
        mv = moment_vectors(Sample(data), fam)
        assert np.allclose(mv.nu_n, 0.0, atol=1e-14)

    def test_constant_function_fails_downstream(self):
        sample = Sample(np.arange(6.0).reshape(-1, 1))
        fam = ConstraintFamily((lambda x: np.ones(x.shape[0]),), np.array([1.0]))
        mv = moment_vectors(sample, fam)
        with pytest.raises(SingularCovariance):
            dual_coefficients(mv)


class TestDualCoefficients:
    def test_zero_discrepancy(self):
        sample = Sample(np.array([[0.0], [1.0], [2.0]]))
        fam = polynomial_family([1], [1.0])  # mean exactly satisfied
        dual = dual_coefficients(moment_vectors(sample, fam))
        assert dual.chi2_value == 0.0
        assert dual.a == pytest.approx([0.0], abs=1e-14)

    def test_two_point_scalar_example(self):
        sample = Sample(np.array([[0.0], [1.0]]))
        fam = polynomial_family([1], [0.25])
        dual = dual_coefficients(moment_vectors(sample, fam))
        assert dual.chi2_value == pytest.approx(0.25, abs=1e-12)

    def test_uniform_quarter_mean_coefficients(self):
        # projection of the uniform law onto mean 1/4 has dual coefficients
        # close to intercept 3, slope -6 once n is large
        rng = np.random.default_rng(2024)
        data = rng.random((200_000, 1))
        fam = polynomial_family([1], [0.25])
        dual = dual_coefficients(moment_vectors(Sample(data), fam))
        assert dual.a0 == pytest.approx(3.0, abs=0.06)
        assert dual.a[0] == pytest.approx(-6.0, abs=0.12)

    def test_consistency_both_quadratic_forms(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = rng.integers(10, 60)
            data = rng.normal(size=(n, 2))
            fam = ConstraintFamily(
                (lambda x: x[:, 0], lambda x: x[:, 1], lambda x: x[:, 0] * x[:, 1]),
                rng.normal(scale=0.2, size=3),
            )
            mv = moment_vectors(Sample(data), fam)
            dual = dual_coefficients(mv)
            quarter_form = 0.25 * float(dual.a @ mv.s_n @ dual.a)
            assert abs(dual.chi2_value - quarter_form) <= 1e-10
            assert chi2_quadratic(mv) == pytest.approx(dual.chi2_value, abs=1e-12)


class TestPrimalEquivalence:
    def test_matches_kkt_oracle_on_small_instances(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 60:
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 3))
            data = rng.normal(size=(n, 1))
            exps = [1, 2][:k]
            targets = rng.normal(scale=0.5, size=k)
            fam = polynomial_family(exps, targets)
            mv = moment_vectors(Sample(data), fam)
            try:
                chi2 = chi2_quadratic(mv)
            except SingularCovariance:
                continue
            oracle = kkt_primal_minimum(data, fam)
            assert chi2 == pytest.approx(oracle, abs=1e-9)
            checked += 1


class TestInvariances:
    def test_affine_recombination_invariance(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(80, 1))
        targets = np.array([0.2, 0.9])
        fam = polynomial_family([1, 2], targets)
        chi2 = chi2_quadratic(moment_vectors(Sample(data), fam))
        for _ in range(10):
            m = rng.normal(size=(2, 2))
            while abs(np.linalg.det(m)) < 0.1:
                m = rng.normal(size=(2, 2))
            mixed = ConstraintFamily(
                (
                    lambda x, m=m: m[0, 0] * x[:, 0] + m[0, 1] * x[:, 0] ** 2,
                    lambda x, m=m: m[1, 0] * x[:, 0] + m[1, 1] * x[:, 0] ** 2,
                ),
                m @ targets,
            )
            mixed_chi2 = chi2_quadratic(moment_vectors(Sample(data), mixed))
            assert mixed_chi2 == pytest.approx(chi2, abs=1e-9)

    def test_constant_shift_invariance(self):
        # invariance is exact in real arithmetic; float rounding of the
        # shifted column means leaves machine-epsilon residue
        rng = np.random.default_rng(9)
        data = rng.normal(size=(50, 1))
        fam = polynomial_family([1], [0.3])
        shifted = ConstraintFamily((lambda x: x[:, 0] + 5.0,), np.array([5.3]))
        base = chi2_quadratic(moment_vectors(Sample(data), fam))
        moved = chi2_quadratic(moment_vectors(Sample(data), shifted))
        assert moved == pytest.approx(base, abs=1e-13)

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=24, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_whenever_solvable(self, points):
        data = np.array(points).reshape(-1, 1)
        fam = polynomial_family([1], [0.0])
        try:
            chi2 = chi2_quadratic(moment_vectors(Sample(data), fam))
        except SingularCovariance:
            return
        assert chi2 >= 0.0


class TestH1Variance:
    def test_zero_dual_function(self):
        sample = Sample(np.arange(1.0, 9.0).reshape(-1, 1))
        fam = polynomial_family([1], [sample.data[:, 0].mean()])
        dual = dual_coefficients(moment_vectors(sample, fam))
        assert h1_variance(sample, dual, fam) == pytest.approx(0.0, abs=1e-20)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.random((120, 1))
        fam = polynomial_family([1], [0.25])
        sample = Sample(data)
        dual = dual_coefficients(moment_vectors(sample, fam))
        f_star = dual.a0 + dual.a[0] * data[:, 0]
        g = f_star + 0.25 * f_star**2
        oracle = float(np.mean((g - g.mean()) ** 2))
        assert h1_variance(sample, dual, fam) == pytest.approx(oracle, rel=1e-12)


class TestSampleValidation:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidInput):
            Sample(np.empty((0, 1)))
        with pytest.raises(InvalidInput):
            Sample(np.array([[np.inf]]))

    def test_one_dimensional_input_promoted(self):
        s = Sample(np.array([1.0, 2.0]))
        assert s.data.shape == (2, 1)
        assert s.n == 2 and s.d == 1
