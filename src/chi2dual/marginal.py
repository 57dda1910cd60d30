"""Simultaneous goodness-of-fit test for all d marginal distributions.

The hypothesized marginal CDFs are applied coordinate-wise (probability
integral transform), reducing the problem to testing uniform marginals on
[0,1]^d.  Uniformity of every marginal is expressed through countably many
indicator constraints; a finite grid of cut points yields the sieve family
actually tested: the cell indicators 1{u_(i-1) < x_j <= u_i} with targets
p_i = u_i - u_(i-1).  ``marginal_test`` reads that family's moments off cell
counts alone; ``build_indicator_family`` is the function form the counts are
checked against.  The cumulative form 1{x_j <= u_i} (a unit-triangular change
of basis with the same quadratic form) and, for d = 2, the Pearson
table-minimum that equals n * chi2_n live in ``tests/reference.py``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
import scipy.special

from .core import ConstraintFamily, MomentVectors, Sample
from .errors import DegenerateCellsWarning, InvalidInput, InvalidSpec, SmallSampleWarning
from .linear import TestReport, _check_level
# sieve_test stays importable here because the benchmark tracer wraps marginal.sieve_test
from .sieve import SievePlan, _sieve_report, default_m, sieve_test  # noqa: F401

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
# Indicator constraint family

def _cell_indicator(x: np.ndarray, j: int, lo: float, hi: float) -> np.ndarray:
    # Exact difference of two cumulative indicators; lo <= 0 means the
    # lowest cell, which must include the left endpoint.
    if lo <= 0.0:
        return (x[:, j] <= hi).astype(float)
    xj = x[:, j]
    return ((xj > lo) & (xj <= hi)).astype(float)


def build_indicator_family(grid: Grid, d: int) -> ConstraintFamily:
    """Cell-indicator constraints for all d marginals on the given grid.

    Ordering is coordinate-major: the m cells (u_(i-1), u_i] of coordinate 1,
    then coordinate 2, and so on (k = d * m total), with the cell widths as
    targets.
    """
    if d < 1:
        raise InvalidInput(f"dimension must be >= 1, got {d}")
    functions: list[Callable[[np.ndarray], np.ndarray]] = []
    names: list[str] = []
    edges = np.concatenate(([0.0], grid.cuts))
    for j in range(d):
        for lo, hi in zip(edges, grid.cuts):
            functions.append(partial(_cell_indicator, j=j, lo=lo, hi=hi))
            names.append(f"cell(x{j + 1} in ({lo:g},{hi:g}])")
    targets = np.tile(grid.cell_probs[: grid.m], d)
    return ConstraintFamily(tuple(functions), targets, names=tuple(names))


# ---------------------------------------------------------------------------
# The marginal test

def marginal_sieve_plan(d: int) -> SievePlan:
    """Sieve plan for uniform-marginal testing on [0,1]^d.

    k(n) = d * default_m(n) cell indicators on the uniform grid; run by
    ``sieve_test``, it is the reference for ``marginal_test``.
    """

    def k_of_n(n: int) -> int:
        return d * default_m(n)

    def family_builder(k: int) -> ConstraintFamily:
        if k % d != 0:
            raise InvalidInput(f"family size {k} not a multiple of d={d}")
        return build_indicator_family(Grid.uniform(k // d), d)

    return SievePlan(k_of_n=k_of_n, family_builder=family_builder)


def _cell_table(pit: Sample, grid: Grid) -> np.ndarray:
    """Counts of all (coordinate, cell) pairs; block (j, l) is their two-way table."""
    size = grid.m + 1
    cells = [grid.cell_index(pit.data[:, j]) for j in range(pit.d)]
    table = np.empty((pit.d, size, pit.d, size))
    for j in range(pit.d):
        for l in range(j, pit.d):  # one bincount per pair: O(n) extra memory
            flat = np.bincount(cells[j] * size + cells[l], minlength=size * size)
            table[j, :, l] = flat.reshape(size, size)
            table[l, :, j] = table[j, :, l].T
    return table.reshape(pit.d * size, pit.d * size)


def _table_moment_vectors(table: np.ndarray, grid: Grid, n: int) -> MomentVectors:
    """``moment_vectors`` of ``build_indicator_family(grid, d)`` read off the table."""
    keep = np.arange(table.shape[0]) % (grid.m + 1) < grid.m  # first m cells of each coordinate
    joint = table[np.ix_(keep, keep)] / n
    means = np.diag(joint)
    nu_n = np.tile(grid.cell_probs[: grid.m], table.shape[0] // (grid.m + 1)) - means
    return MomentVectors(nu_n=nu_n, s_n=joint - np.outer(means, means), empirical_means=means, n=n)


def marginal_test(
    sample: Sample,
    spec: MarginalSpec,
    alpha: float,
    m: int | None = None,
) -> TestReport:
    """Test all d marginals simultaneously against the hypothesized CDFs.

    Transforms the data through the hypothesized CDFs, counts the cells of
    the uniform grid with m cuts (default from the n^(1/4) rule), and
    applies the standardized sieve test to the cell family's moments read
    off those counts.  A zero count in any marginal cell triggers a
    DegenerateCellsWarning before the attempt; note that an empty marginal
    cell forces the indicator covariance singular (the cell indicators sum
    to a constant on the sample), so SingularCovariance then propagates.
    Joint (d = 2) cells may be empty without harm: the quadratic form never
    divides by cell counts.
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
    grid = Grid.uniform(m_eff)
    table = _cell_table(pit, grid)
    degenerate = int(np.count_nonzero(np.diag(table) == 0.0))
    if degenerate > 0:
        warnings.warn(
            f"{degenerate} marginal grid cells have zero observations",
            DegenerateCellsWarning,
            stacklevel=2,
        )
    report = _sieve_report(_table_moment_vectors(table, grid, pit.n), alpha)
    diagnostics = dict(report.diagnostics)
    diagnostics["m"] = float(m_eff)
    diagnostics["d"] = float(sample.d)
    diagnostics["empty_marginal_cells"] = float(degenerate)
    return replace(report, diagnostics=diagnostics)
