"""Dual chi-square machinery for finite linear constraint families.

The divergence between a signed measure Q (total mass 1) and the empirical
measure of a sample is estimated through its convex-duality representation:
for a family of constraint functions f_1..f_k with target moments a_1..a_k,
the estimate is the quadratic form

    chi2_n = nu' S^{-1} nu,

where nu_i = a_i - mean(f_i) is the vector of constraint discrepancies and
S is the empirical centered covariance matrix of the f_i.  The optimal dual
function f* = a0 + sum a_i f_i solves the linear system S a = 2 nu with
intercept a0 = -sum a_i mean(f_i), and chi2_n = (1/4) a' S a.

All statistics here are pure functions of their inputs; nothing is cached or
mutated, so concurrent use on shared read-only samples is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import InvalidInput, SingularCovariance

# Above this estimated condition number of S the dual solve is refused
# instead of regularized: a ridge would silently bias the statistic.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Sample:
    """An n x d matrix of real observations plus optional provenance."""

    data: np.ndarray
    source: str | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise InvalidInput(f"sample must be a 2-d array, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInput(f"sample needs n >= 1 and d >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("sample contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ConstraintFamily:
    """Ordered constraint functions f_1..f_k with target moments a_1..a_k.

    Each function maps an (n, d) array of observations to an (n,) vector of
    values.  The constant function 1 (target 1) is implicitly adjoined as the
    intercept of the dual problem and must NOT appear among ``functions``:
    a constant has zero centered covariance and renders the system singular.
    """

    functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    targets: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        funcs = tuple(self.functions)
        targets = np.asarray(self.targets, dtype=float).reshape(-1)
        if len(funcs) < 1:
            raise InvalidInput("constraint family needs k >= 1 functions")
        if targets.shape[0] != len(funcs):
            raise InvalidInput(
                f"{len(funcs)} functions but {targets.shape[0]} targets"
            )
        if not np.all(np.isfinite(targets)):
            raise InvalidInput("constraint targets must be finite")
        if self.names is not None and len(self.names) != len(funcs):
            raise InvalidInput("names length must match functions")
        object.__setattr__(self, "functions", funcs)
        object.__setattr__(self, "targets", targets)

    @property
    def k(self) -> int:
        return len(self.functions)

    def evaluate(self, sample: Sample) -> np.ndarray:
        """Return the (n, k) matrix F with F[i, j] = f_j(X_i)."""
        cols = []
        for j, f in enumerate(self.functions):
            vals = np.asarray(f(sample.data), dtype=float).reshape(-1)
            if vals.shape[0] != sample.n:
                raise InvalidInput(
                    f"constraint function {j} returned {vals.shape[0]} values "
                    f"for {sample.n} observations"
                )
            if not np.all(np.isfinite(vals)):
                raise InvalidInput(f"constraint function {j} produced non-finite values")
            cols.append(vals)
        return np.column_stack(cols)


@dataclass(frozen=True)
class MomentVectors:
    """Constraint discrepancies and covariance for one sample/family pair.

    ``nu_n`` holds targets minus empirical means, ``s_n`` the empirical
    centered covariance of the constraint functions.
    """

    nu_n: np.ndarray
    s_n: np.ndarray
    empirical_means: np.ndarray
    n: int

    @property
    def k(self) -> int:
        return self.nu_n.shape[0]


@dataclass(frozen=True)
class DualSolution:
    """Optimal dual coefficients (a0, a) with the divergence value."""

    a0: float
    a: np.ndarray
    chi2_value: float
    condition_number: float


def legendre_batch(f_vals: np.ndarray) -> np.ndarray:
    """``legendre_transform`` over the last axis, without its input checks.

    ``sum / n`` is what ``np.mean`` computes, bit for bit, without its
    Python-level wrapper.
    """
    n = f_vals.shape[-1]
    return f_vals.sum(axis=-1) / n + 0.25 * ((f_vals * f_vals).sum(axis=-1) / n)


def legendre_transform(f_vals: np.ndarray) -> float:
    """Convex-conjugate value of the squared-distance functional at f.

    For f evaluated on the sample this is mean(f) + mean(f^2)/4.  Means use
    numpy's pairwise summation, which keeps 1e-10 comparisons meaningful up
    to n ~ 1e6.
    """
    vals = np.asarray(f_vals, dtype=float).reshape(-1)
    if vals.size == 0:
        raise InvalidInput("empty evaluation vector")
    if not np.all(np.isfinite(vals)):
        raise InvalidInput("non-finite values in legendre_transform input")
    return float(legendre_batch(vals))


def moment_vectors(sample: Sample, fam: ConstraintFamily) -> MomentVectors:
    """Compute nu_n = targets - mean(f) and the centered covariance S_n."""
    f_matrix = fam.evaluate(sample)
    means = f_matrix.mean(axis=0)
    centered = f_matrix - means
    s_n = centered.T @ centered / sample.n
    s_n = 0.5 * (s_n + s_n.T)
    nu_n = fam.targets - means
    return MomentVectors(
        nu_n=nu_n,
        s_n=s_n,
        empirical_means=means,
        n=sample.n,
    )


def dual_coefficients(mv: MomentVectors) -> DualSolution:
    """Solve the dual system S a = 2 nu and assemble the optimal function.

    The intercept is a0 = -sum_i a_i mean(f_i), which centers the optimal
    function under the empirical measure.  The returned chi2_value equals
    both nu' S^{-1} nu and (1/4) a' S a.  S is factored by Cholesky; raises
    SingularCovariance on factorization failure or when the eigenvalue-based
    condition estimate exceeds CONDITION_LIMIT.
    """
    eigs = np.linalg.eigvalsh(mv.s_n)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_max <= 0.0 or lam_min <= 0.0:
        raise SingularCovariance(
            f"covariance not positive definite (lambda_min={lam_min:.3e}); "
            "constraints may be linearly dependent or include a constant"
        )
    cond = lam_max / lam_min
    if cond > CONDITION_LIMIT:
        raise SingularCovariance(
            f"covariance condition number {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    try:
        factor = scipy.linalg.cho_factor(mv.s_n, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularCovariance(f"Cholesky factorization failed: {exc}") from exc
    x = scipy.linalg.cho_solve(factor, mv.nu_n, check_finite=False)
    a = 2.0 * x
    a0 = -float(a @ mv.empirical_means)
    chi2 = max(float(mv.nu_n @ x), 0.0)
    return DualSolution(a0=a0, a=a, chi2_value=chi2, condition_number=cond)


def chi2_quadratic(mv: MomentVectors) -> float:
    """Quadratic-form value nu' S^{-1} nu of the divergence estimate."""
    return dual_coefficients(mv).chi2_value


def dual_function_values(sample: Sample, dual: DualSolution, fam: ConstraintFamily) -> np.ndarray:
    """Evaluate the optimal dual function a0 + sum a_i f_i on the sample."""
    f_matrix = fam.evaluate(sample)
    return dual.a0 + f_matrix @ dual.a


def h1_variance(sample: Sample, dual: DualSolution, fam: ConstraintFamily) -> float:
    """Plug-in variance of the divergence estimate away from the null.

    Empirical variance of g = f* + f*^2/4 with the sample-optimal f*;
    drives the normal confidence interval reported as a diagnostic.
    Computed in two passes (center first) for numerical stability.
    """
    f_star = dual_function_values(sample, dual, fam)
    g = f_star + 0.25 * f_star * f_star
    centered = g - np.mean(g)
    return float(np.mean(centered * centered))
