"""Reference forms that the tests check the package against.

Nothing in ``chi2dual`` calls these.  Each one restates an identity of the
dual chi-square estimate in a second, independent form:

* the dual objective and the target integral of the optimal dual function,
  whose difference at the optimum is chi2_n;
* the cumulative indicator family 1{x_j <= u_i}, a unit-triangular change
  of basis of the cell family with the same quadratic form;
* the null covariance of the cell family, its rank-one factor and the
  eigenvalue envelope [p_(m+1) min p_i, max p_i];
* the d = 2 Pearson table-minimum over tables with the hypothesized
  margins, which equals n * chi2_n of the cell family when no joint cell is
  empty (the paper's contingency-table link), with the map from its
  multipliers to the dual coefficients;
* the standardized sieve statistic and the two growth-rate sequences of a
  sieve plan.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from chi2dual import (
    ConstraintFamily,
    DualSolution,
    Sample,
    chi2_quadratic,
    marginal_sieve_plan,
    moment_vectors,
)


def dual_objective(f_vals: np.ndarray, target_integral: float) -> float:
    """Target integral of f minus its conjugate value mean(f) + mean(f^2)/4."""
    f_vals = np.asarray(f_vals, dtype=float)
    return float(target_integral) - (np.mean(f_vals) + 0.25 * np.mean(f_vals * f_vals))


def dual_target_integral(dual: DualSolution, fam: ConstraintFamily) -> float:
    """a0 + sum a_i target_i: the dual function integrated against any measure
    that meets the constraints."""
    return dual.a0 + float(dual.a @ fam.targets)


# ---------------------------------------------------------------------------
# Indicator families and the null covariance of the cell family

def _cumulative_indicator(x: np.ndarray, j: int, u: float) -> np.ndarray:
    return (x[:, j] <= u).astype(float)


def cumulative_indicator_family(cuts: np.ndarray, d: int) -> ConstraintFamily:
    """1{x_j <= u_i} with targets u_i, coordinate-major like the cell family."""
    functions = [partial(_cumulative_indicator, j=j, u=u) for j in range(d) for u in cuts]
    return ConstraintFamily(tuple(functions), np.tile(cuts, d))


def u_matrix(p: np.ndarray) -> np.ndarray:
    """Rank-one block sqrt(p_i p_l) over the first m cell widths."""
    root = np.sqrt(p)
    return np.outer(root, root)


def s0_matrix(p: np.ndarray, d: int) -> np.ndarray:
    """Null covariance of the cell family: d diagonal blocks diag(p) - p p'.

    ``p`` holds the first m cell widths; each block is the multinomial
    covariance of those cells, D^(1/2) (I - U) D^(1/2) with U = u_matrix(p).
    """
    return np.kron(np.eye(d), np.diag(p) - np.outer(p, p))


def null_eigen_envelope(cell_probs: np.ndarray, d: int) -> tuple[np.ndarray, float, float]:
    """Eigenvalues of s0_matrix and the envelope [p_(m+1) min p_i, max p_i]."""
    p = cell_probs[:-1]
    eigs = np.linalg.eigvalsh(s0_matrix(p, d))
    return eigs, float(cell_probs[-1] * p.min()), float(p.max())


# ---------------------------------------------------------------------------
# d = 2: cell counts and the fixed-margin Pearson minimization

def cell_counts_2d(data: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Joint counts N[i, l] of the (m+1) x (m+1) cells; cell i is (u_i, u_(i+1)]."""
    rows = np.searchsorted(cuts, data[:, 0], side="left")
    cols = np.searchsorted(cuts, data[:, 1], side="left")
    counts = np.zeros((cuts.size + 1, cuts.size + 1))
    np.add.at(counts, (rows, cols), 1.0)
    return counts


def pearson_min_form(
    counts: np.ndarray, p: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000
) -> tuple[float, np.ndarray, np.ndarray]:
    """Minimize sum (n q_il - N_il)^2 / N_il over tables q with both margins p.

    The minimizer is q_il = N_il (1 + a_i + b_l) / n; the multipliers a, b
    come from alternating row and column updates until neither moves by
    ``tol``.  Empty cells drop out of the sum.  Returns (value, a, b).
    """
    n = counts.sum()
    row_sums, col_sums = counts.sum(axis=1), counts.sum(axis=0)
    a = b = np.zeros(p.size)
    for _ in range(max_iter):
        a_new = (n * p - row_sums - counts @ b) / row_sums
        b_new = (n * p - col_sums - counts.T @ a_new) / col_sums
        delta = max(np.abs(a_new - a).max(), np.abs(b_new - b).max())
        a, b = a_new, b_new
        if delta < tol:
            return float(np.sum(counts * (a[:, None] + b[None, :]) ** 2)), a, b
    raise AssertionError(f"margin multipliers did not converge in {max_iter} rounds")


def table_coefficients_to_dual(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Dual intercept 2(a_(m+1) + b_(m+1)) and coefficients 2(a_i - a_(m+1)),
    2(b_l - b_(m+1)) of the 2m cell indicators."""
    coeffs = np.concatenate((2.0 * (a[:-1] - a[-1]), 2.0 * (b[:-1] - b[-1])))
    return 2.0 * float(a[-1] + b[-1]), coeffs


# ---------------------------------------------------------------------------
# Sieve: standardized statistic and growth-rate sequences

def standardized_statistic(sample: Sample, fam: ConstraintFamily) -> float:
    """(n * chi2_n - k) / sqrt(2k) for a finite family."""
    n_chi2 = sample.n * chi2_quadratic(moment_vectors(sample, fam))
    return (n_chi2 - fam.k) / math.sqrt(2.0 * fam.k)


def rate_sequences(k_of_n, lambda1, bridge_rate, n_grid) -> tuple[list[float], list[float]]:
    """The normal-approximation and covariance-error sequences on ``n_grid``.

    lambda1(k)^(-1/2) k^(1/2) delta_n log n and lambda1(k)^(-1) k^(3/2) n^(-1/2);
    both must tend to zero for the standardized statistic to be
    asymptotically standard normal.
    """
    eigen_seq, cov_seq = [], []
    for n in n_grid:
        k = k_of_n(n)
        lam = lambda1(k)
        eigen_seq.append(lam**-0.5 * k**0.5 * bridge_rate(n) * math.log(n))
        cov_seq.append(k**1.5 / (lam * math.sqrt(n)))
    return eigen_seq, cov_seq


def decreasing(seq: list[float]) -> bool:
    return all(b <= a for a, b in zip(seq, seq[1:]))


def marginal_plan_sequences(d: int, n_grid) -> tuple[list[float], list[float]]:
    """``rate_sequences`` of ``marginal_sieve_plan(d)``: lambda1 = (m+1)^(-2),
    the null bound for a density bounded below by 1, and coupling rate
    n^(-1/2) for d <= 2, n^(-1/(2d)) above."""
    return rate_sequences(
        marginal_sieve_plan(d).k_of_n,
        lambda k: (k // d + 1.0) ** -2,
        lambda n: n**-0.5 if d <= 2 else n ** (-1.0 / (2.0 * d)),
        n_grid,
    )
