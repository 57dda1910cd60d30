"""Simultaneous goodness-of-fit test for all d marginal distributions.

The hypothesized marginal CDFs are applied coordinate-wise (probability
integral transform), reducing the problem to testing uniform marginals on
[0,1]^d.  Uniformity of every marginal is expressed through countably many
indicator constraints; a finite grid of cut points yields the sieve family
actually tested.  Two equivalent parametrizations are provided:

* cumulative indicators 1{x_j <= u_i} with targets u_i,
* cell indicators 1{u_(i-1) < x_j <= u_i} with targets p_i = u_i - u_(i-1).

They are related by a unit-triangular change of basis, so the quadratic
form is identical under both; the cell form is better conditioned and is
the one ``marginal_test`` uses.  The cumulative form is kept as the
reference that tests check the cell form against.  For d = 2 the scaled
statistic also equals the minimum of a Pearson-type weighted discrepancy
over all cell tables with the hypothesized marginals
(``pearson_min_form``), which serves as an independent cross-check of the
quadratic form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.special

from .core import ConstraintFamily, Sample
from .errors import (
    DegenerateCellsWarning,
    InvalidInput,
    InvalidSpec,
    NoConvergence,
    SmallSampleWarning,
    ZeroCellWarning,
)
from .linear import TestReport, _check_level
from .sieve import SievePlan, default_m, sieve_test

# Widest admissible spread of cell widths: the statistic's covariance
# eigenvalues degrade with min p_i, so cells must not shrink too unevenly.
MAX_CELL_RATIO = 10.0


@dataclass(frozen=True)
class Grid:
    """Increasing cut points 0 < u_1 < ... < u_m < 1 partitioning [0, 1]."""

    cuts: np.ndarray

    def __post_init__(self) -> None:
        cuts = np.asarray(self.cuts, dtype=float).reshape(-1)
        if cuts.size < 1:
            raise InvalidInput("grid needs at least one cut point")
        if not np.all(np.isfinite(cuts)):
            raise InvalidInput("grid cuts must be finite")
        if cuts[0] <= 0.0 or cuts[-1] >= 1.0 or np.any(np.diff(cuts) <= 0.0):
            raise InvalidInput("grid cuts must satisfy 0 < u_1 < ... < u_m < 1")
        widths = np.diff(np.concatenate(([0.0], cuts, [1.0])))
        ratio = widths.max() / widths.min()
        if ratio > MAX_CELL_RATIO * (1.0 + 1e-12):
            raise InvalidInput(
                f"cell width ratio {ratio:.3f} exceeds {MAX_CELL_RATIO}; "
                "cells shrink too unevenly"
            )
        object.__setattr__(self, "cuts", cuts)

    @classmethod
    def uniform(cls, m: int) -> "Grid":
        """Equal-width grid u_i = i / (m + 1)."""
        if m < 1:
            raise InvalidInput(f"grid size must be >= 1, got {m}")
        return cls(np.arange(1, m + 1) / (m + 1.0))

    @property
    def m(self) -> int:
        return self.cuts.shape[0]

    @property
    def cell_probs(self) -> np.ndarray:
        """All m + 1 cell widths, last one 1 - u_m."""
        return np.diff(np.concatenate(([0.0], self.cuts, [1.0])))

    def cell_index(self, values: np.ndarray) -> np.ndarray:
        """Cell number in 0..m for each value; cell i is (u_i, u_(i+1)]."""
        return np.searchsorted(self.cuts, values, side="left")


# ---------------------------------------------------------------------------
# Marginal CDF menu

class UniformCDF:
    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if not (np.isfinite(low) and np.isfinite(high) and low < high):
            raise InvalidSpec(f"uniform bounds must satisfy low < high, got ({low}, {high})")
        self.low, self.high = float(low), float(high)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)

    def __repr__(self) -> str:
        return f"uniform({self.low},{self.high})"


class ExponentialCDF:
    def __init__(self, rate: float) -> None:
        if not (np.isfinite(rate) and rate > 0.0):
            raise InvalidSpec(f"exponential rate must be positive, got {rate}")
        self.rate = float(rate)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def __repr__(self) -> str:
        return f"exp({self.rate})"


class NormalCDF:
    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0.0):
            raise InvalidSpec(f"normal parameters invalid: mu={mu}, sigma={sigma}")
        self.mu, self.sigma = float(mu), float(sigma)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return scipy.special.ndtr((x - self.mu) / self.sigma)

    def __repr__(self) -> str:
        return f"normal({self.mu},{self.sigma})"


class TabulatedCDF:
    """Monotone CDF given by interpolation nodes (xs increasing, ps in [0,1])."""

    def __init__(self, xs: Sequence[float], ps: Sequence[float]) -> None:
        xs_arr = np.asarray(xs, dtype=float)
        ps_arr = np.asarray(ps, dtype=float)
        if xs_arr.ndim != 1 or xs_arr.shape != ps_arr.shape or xs_arr.size < 2:
            raise InvalidSpec("tabulated CDF needs matching 1-d node arrays, length >= 2")
        if np.any(np.diff(xs_arr) <= 0.0):
            raise InvalidSpec("tabulated CDF abscissae must be strictly increasing")
        if np.any(np.diff(ps_arr) < 0.0) or ps_arr[0] < 0.0 or ps_arr[-1] > 1.0:
            raise InvalidSpec("tabulated CDF values must be nondecreasing within [0, 1]")
        self.xs, self.ps = xs_arr, ps_arr

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.interp(x, self.xs, self.ps)

    def __repr__(self) -> str:
        return f"tabulated(nodes={self.xs.size})"


@dataclass(frozen=True)
class MarginalSpec:
    """One hypothesized CDF per coordinate."""

    cdfs: tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __post_init__(self) -> None:
        if len(self.cdfs) < 1:
            raise InvalidSpec("marginal spec needs at least one CDF")
        object.__setattr__(self, "cdfs", tuple(self.cdfs))

    @classmethod
    def all_uniform(cls, d: int) -> "MarginalSpec":
        return cls(tuple(UniformCDF(0.0, 1.0) for _ in range(d)))

    @property
    def d(self) -> int:
        return len(self.cdfs)


_CDF_FAMILIES = dict(
    uniform=UniformCDF, exp=ExponentialCDF, exponential=ExponentialCDF, normal=NormalCDF
)


def parse_marginal_spec(text: str, d: int | None = None) -> MarginalSpec:
    """Parse 'uniform(0,1);exp(1.0);normal(0,1)' into a MarginalSpec."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise InvalidSpec("empty marginal specification")
    cdfs = []
    for part in parts:
        if "(" not in part or not part.endswith(")"):
            raise InvalidSpec(f"malformed CDF term {part!r}; expected name(args)")
        name, _, argstr = part.partition("(")
        name = name.strip().lower()
        try:
            args = [float(a) for a in argstr[:-1].split(",")] if argstr[:-1].strip() else []
        except ValueError as exc:
            raise InvalidSpec(f"bad numeric argument in {part!r}") from exc
        if name not in _CDF_FAMILIES:
            raise InvalidSpec(f"unknown CDF family {name!r}")
        try:
            cdfs.append(_CDF_FAMILIES[name](*args))
        except TypeError:
            raise InvalidSpec(f"wrong number of arguments in {part!r}") from None
    if d is not None and len(cdfs) != d:
        raise InvalidSpec(f"spec names {len(cdfs)} marginals for {d}-dimensional data")
    return MarginalSpec(tuple(cdfs))


def pit_transform(sample: Sample, spec: MarginalSpec) -> Sample:
    """Apply each hypothesized CDF to its coordinate; output lives in [0,1]^d."""
    if spec.d != sample.d:
        raise InvalidSpec(f"spec has {spec.d} marginals, sample has d={sample.d}")
    cols = []
    for j, cdf in enumerate(spec.cdfs):
        y = np.asarray(cdf(sample.data[:, j]), dtype=float)
        if y.shape != (sample.n,):
            raise InvalidSpec(f"CDF {j} returned shape {y.shape}")
        if not np.all(np.isfinite(y)) or np.any(y < 0.0) or np.any(y > 1.0):
            raise InvalidSpec(f"CDF {j} produced values outside [0, 1]")
        cols.append(y)
    return Sample(np.column_stack(cols), source=sample.source)


# ---------------------------------------------------------------------------
# Indicator constraint families

def _cumulative_indicator(x: np.ndarray, j: int, u: float) -> np.ndarray:
    return (x[:, j] <= u).astype(float)


def _cell_indicator(x: np.ndarray, j: int, lo: float, hi: float) -> np.ndarray:
    # Exact difference of two cumulative indicators; lo <= 0 means the
    # lowest cell, which must include the left endpoint.
    if lo <= 0.0:
        return (x[:, j] <= hi).astype(float)
    xj = x[:, j]
    return ((xj > lo) & (xj <= hi)).astype(float)


def build_indicator_family(grid: Grid, d: int, delta_form: bool = True) -> ConstraintFamily:
    """Indicator constraints for all d marginals on the given grid.

    Ordering is coordinate-major: the m functions for coordinate 1, then
    coordinate 2, and so on (k = d * m total).  With ``delta_form`` the
    functions are cell indicators with the cell widths as targets; otherwise
    cumulative indicators with the cut points as targets.
    """
    if d < 1:
        raise InvalidInput(f"dimension must be >= 1, got {d}")
    functions: list[Callable[[np.ndarray], np.ndarray]] = []
    targets: list[float] = []
    names: list[str] = []
    edges = np.concatenate(([0.0], grid.cuts))
    for j in range(d):
        for i in range(grid.m):
            if delta_form:
                functions.append(partial(_cell_indicator, j=j, lo=edges[i], hi=grid.cuts[i]))
                targets.append(grid.cuts[i] - edges[i])
                names.append(f"cell(x{j + 1} in ({edges[i]:g},{grid.cuts[i]:g}])")
            else:
                functions.append(partial(_cumulative_indicator, j=j, u=grid.cuts[i]))
                targets.append(grid.cuts[i])
                names.append(f"cum(x{j + 1} <= {grid.cuts[i]:g})")
    return ConstraintFamily(tuple(functions), np.array(targets), names=tuple(names))


def u_matrix(grid: Grid) -> np.ndarray:
    """Rank-one block sqrt(p_i p_l) of the null covariance factorization."""
    p = grid.cell_probs[: grid.m]
    root = np.sqrt(p)
    return np.outer(root, root)


def s0_matrix(grid: Grid, d: int) -> np.ndarray:
    """Null covariance of the cell-indicator family under uniform marginals.

    Block diagonal with d identical m x m blocks diag(p) - p p' (the
    multinomial covariance of the first m cells); equivalently
    D^(1/2) (I - U) D^(1/2) with U the rank-one sqrt(p_i p_l) block.
    """
    if d < 1:
        raise InvalidInput(f"dimension must be >= 1, got {d}")
    p = grid.cell_probs[: grid.m]
    block = np.diag(p) - np.outer(p, p)
    out = np.zeros((d * grid.m, d * grid.m))
    for j in range(d):
        sl = slice(j * grid.m, (j + 1) * grid.m)
        out[sl, sl] = block
    return out


@dataclass(frozen=True)
class EigenBoundsReport:
    """Spectrum checks for the null covariance and optionally an empirical one.

    The null-covariance eigenvalues must lie in
    [p_(m+1) * min p_i, max p_i]; an empirical cell-indicator covariance is
    compared against alpha_lb * p_(m+1) * min p_i, valid when the sampling
    density is bounded below by alpha_lb.  Report-only: nothing raises.
    """

    null_lambda_min: float
    null_lambda_max: float
    lower_bound: float
    upper_bound: float
    null_within_bounds: bool
    empirical_lambda_min: float | None = None
    empirical_lower_bound: float | None = None
    empirical_ok: bool | None = None


def eigen_bounds_check(
    grid: Grid,
    d: int,
    s: np.ndarray | None = None,
    alpha_lb: float | None = None,
    tol: float = 1e-10,
) -> EigenBoundsReport:
    """Check the eigenvalue envelope of the null covariance (report-only)."""
    p = grid.cell_probs
    lower = p[-1] * p[: grid.m].min()
    upper = p[: grid.m].max()
    eigs = np.linalg.eigvalsh(s0_matrix(grid, d))
    within = bool(eigs[0] >= lower - tol and eigs[-1] <= upper + tol)
    emp_min = emp_bound = emp_ok = None
    if s is not None:
        s_arr = np.asarray(s, dtype=float)
        if s_arr.shape[0] != s_arr.shape[1]:
            raise InvalidInput("empirical covariance must be square")
        emp_min = float(np.linalg.eigvalsh(s_arr)[0])
        if alpha_lb is not None:
            emp_bound = float(alpha_lb) * lower
            # the bound is attained exactly on uniform grids
            emp_ok = bool(emp_min >= emp_bound - tol)
    return EigenBoundsReport(
        null_lambda_min=float(eigs[0]),
        null_lambda_max=float(eigs[-1]),
        lower_bound=float(lower),
        upper_bound=float(upper),
        null_within_bounds=within,
        empirical_lambda_min=emp_min,
        empirical_lower_bound=emp_bound,
        empirical_ok=emp_ok,
    )


# ---------------------------------------------------------------------------
# d = 2 cell counts and the table-minimization form

@dataclass(frozen=True)
class CellCounts:
    """Joint cell counts N[i, j] over the (m+1) x (m+1) grid cells (d = 2)."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInput("cell counts must form a square matrix")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise InvalidInput("cell counts must be finite and nonnegative")
        object.__setattr__(self, "counts", arr)

    @classmethod
    def from_sample(cls, sample: Sample, grid: Grid) -> "CellCounts":
        if sample.d != 2:
            raise InvalidInput(f"cell counts require d = 2 data, got d={sample.d}")
        rows = grid.cell_index(sample.data[:, 0])
        cols = grid.cell_index(sample.data[:, 1])
        size = grid.m + 1
        flat = np.bincount(rows * size + cols, minlength=size * size)
        return cls(flat.reshape(size, size).astype(float))

    @property
    def n(self) -> float:
        return float(self.counts.sum())

    @property
    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class TableMinResult:
    """Outcome of the fixed-margin Pearson minimization.

    ``value`` is the minimized discrepancy (equals n * chi2_n of the
    cell-indicator family when every cell count is positive).  ``row_coeffs``
    and ``col_coeffs`` are the multipliers; the minimizing table is
    q[i, j] = N[i, j] (1 + a_i + b_j) / n.
    """

    value: float
    row_coeffs: np.ndarray
    col_coeffs: np.ndarray
    iterations: int
    max_marginal_violation: float
    had_zero_cells: bool


def pearson_min_form(
    counts: CellCounts,
    grid: Grid,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> TableMinResult:
    """Minimize sum (n q_ij - N_ij)^2 / N_ij over tables with fixed margins.

    Margins are the grid cell widths in both directions.  Solved by
    alternating row/column multiplier updates until the sup-norm change
    drops below ``tol``.  Cells with N_ij = 0 are skipped (their terms carry
    an indicator weight); in that case the exact equality with the
    quadratic-form statistic is withdrawn and a ZeroCellWarning is emitted.
    """
    n_mat = counts.counts
    size = grid.m + 1
    if n_mat.shape[0] != size:
        raise InvalidInput(
            f"counts are {n_mat.shape[0]}x{n_mat.shape[0]} but grid implies {size}x{size}"
        )
    n = counts.n
    if n <= 0:
        raise InvalidInput("empty table")
    p = grid.cell_probs
    row_sums = counts.row_sums
    col_sums = counts.col_sums
    had_zero = bool(np.any(n_mat == 0.0))
    if had_zero:
        warnings.warn(
            "zero cell counts: table minimization no longer matches the "
            "quadratic form exactly",
            ZeroCellWarning,
            stacklevel=2,
        )
    a = np.zeros(size)
    b = np.zeros(size)
    rows_pos = row_sums > 0.0
    cols_pos = col_sums > 0.0
    iterations = 0
    for iterations in range(1, max_iter + 1):
        a_new = np.where(
            rows_pos, (n * p - row_sums - n_mat @ b) / np.where(rows_pos, row_sums, 1.0), 0.0
        )
        b_new = np.where(
            cols_pos, (n * p - col_sums - n_mat.T @ a_new) / np.where(cols_pos, col_sums, 1.0), 0.0
        )
        delta = max(np.max(np.abs(a_new - a)), np.max(np.abs(b_new - b)))
        a, b = a_new, b_new
        if delta < tol:
            break
    else:
        raise NoConvergence(
            f"margin multipliers did not converge within {max_iter} iterations"
        )
    value = float(np.sum(n_mat * (a[:, None] + b[None, :]) ** 2))
    q = n_mat * (1.0 + a[:, None] + b[None, :]) / n
    viol = max(
        np.max(np.abs(q.sum(axis=1) - p)) if rows_pos.all() else math.inf,
        np.max(np.abs(q.sum(axis=0) - p)) if cols_pos.all() else math.inf,
    )
    return TableMinResult(
        value=value,
        row_coeffs=a,
        col_coeffs=b,
        iterations=iterations,
        max_marginal_violation=float(viol),
        had_zero_cells=had_zero,
    )


def table_coefficients_to_dual(result: TableMinResult) -> tuple[float, np.ndarray]:
    """Map table multipliers to the dual coefficients of the cell family.

    With multipliers (a, b) of the fixed-margin minimization, the dual
    coefficients of the 2m cell indicators are 2(a_i - a_(m+1)) for the row
    coordinate, 2(b_j - b_(m+1)) for the column coordinate, and the
    intercept is 2(a_(m+1) + b_(m+1)).
    """
    a, b = result.row_coeffs, result.col_coeffs
    coeffs = np.concatenate((2.0 * (a[:-1] - a[-1]), 2.0 * (b[:-1] - b[-1])))
    intercept = 2.0 * (a[-1] + b[-1])
    return float(intercept), coeffs


# ---------------------------------------------------------------------------
# The marginal test

def marginal_sieve_plan(d: int, m_rule: Callable[[int], int] | None = None) -> SievePlan:
    """Sieve plan for uniform-marginal testing on [0,1]^d.

    k(n) = d * m(n) cell indicators on the uniform grid.  The eigenvalue
    rule is the closed-form null bound p_(m+1) * min p_i = (m+1)^(-2)
    (density lower bound taken as 1); the coupling rate for indicator
    classes is n^(-1/2) for d <= 2 and n^(-1/(2d)) above.
    """
    rule = m_rule if m_rule is not None else default_m

    def k_of_n(n: int) -> int:
        return d * rule(n)

    def family_builder(k: int) -> ConstraintFamily:
        if k % d != 0:
            raise InvalidInput(f"family size {k} not a multiple of d={d}")
        return build_indicator_family(Grid.uniform(k // d), d, delta_form=True)

    def lambda1_lower_bound(k: int) -> float:
        m = k // d
        return (m + 1.0) ** -2

    def bridge_rate(n: int) -> float:
        return n ** (-0.5) if d <= 2 else n ** (-1.0 / (2.0 * d))

    return SievePlan(
        k_of_n=k_of_n,
        family_builder=family_builder,
        lambda1_lower_bound=lambda1_lower_bound,
        bridge_rate=bridge_rate,
    )


def marginal_test(
    sample: Sample,
    spec: MarginalSpec,
    alpha: float,
    m: int | None = None,
) -> TestReport:
    """Test all d marginals simultaneously against the hypothesized CDFs.

    Transforms the data through the hypothesized CDFs, builds the indicator
    family on the uniform grid with m cuts (default from the n^(1/4) rule),
    and applies the standardized sieve test.  A zero count in any marginal
    cell triggers a DegenerateCellsWarning before the attempt; note that an
    empty marginal cell forces the indicator covariance singular (the cell
    indicators sum to a constant on the sample), so SingularCovariance then
    propagates.  Joint (d = 2) cells may be empty without harm: the
    quadratic form never divides by cell counts.
    """
    alpha = _check_level(alpha)
    pit = pit_transform(sample, spec)
    m_eff = m if m is not None else default_m(sample.n)
    if m_eff < 1:
        raise InvalidInput(f"grid size must be >= 1, got {m_eff}")
    recommended = 4 * (m_eff + 1) ** sample.d
    if sample.n < recommended:
        warnings.warn(
            f"n={sample.n} is below the recommended {recommended} for "
            f"m={m_eff}, d={sample.d}",
            SmallSampleWarning,
            stacklevel=2,
        )
    degenerate = _count_empty_marginal_cells(pit, Grid.uniform(m_eff))
    if degenerate > 0:
        warnings.warn(
            f"{degenerate} marginal grid cells have zero observations",
            DegenerateCellsWarning,
            stacklevel=2,
        )
    report = sieve_test(pit, marginal_sieve_plan(sample.d, lambda n: m_eff), alpha)
    diagnostics = dict(report.diagnostics)
    diagnostics["m"] = float(m_eff)
    diagnostics["d"] = float(sample.d)
    diagnostics["empty_marginal_cells"] = float(degenerate)
    return replace(report, diagnostics=diagnostics)


def _count_empty_marginal_cells(pit: Sample, grid: Grid) -> int:
    empty = 0
    for j in range(pit.d):
        idx = grid.cell_index(pit.data[:, j])
        occupancy = np.bincount(idx, minlength=grid.m + 1)
        empty += int(np.sum(occupancy == 0))
    return empty
