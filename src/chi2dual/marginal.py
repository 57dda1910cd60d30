"""Simultaneous goodness-of-fit test for all d marginal distributions.

The hypothesized marginal CDFs are applied coordinate-wise (probability
integral transform), reducing the problem to testing uniform marginals on
[0,1]^d.  Uniformity of every marginal is expressed through countably many
indicator constraints; the uniform grid of m cuts u_i = i / (m + 1) yields
the sieve family actually tested: the cell indicators 1{u_(i-1) < x_j <= u_i},
i = 1..m, with targets p_i = 1 / (m + 1).  ``marginal_test`` takes
m = ``default_m(n)`` unless told otherwise (k = d * m constraints) and reads
that family's moments off cell counts alone; ``build_indicator_family`` is
the function form, and ``sieve_test`` on it is the reference the counts are
checked against.  The cumulative form 1{x_j <= u_i} (a unit-triangular change
of basis with the same quadratic form) and, for d = 2, the Pearson
table-minimum that equals n * chi2_n live in ``tests/reference.py``.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.special

from .core import ConstraintFamily, MomentVectors, Sample
from .errors import DegenerateCellsWarning, InvalidInput, InvalidSpec, SmallSampleWarning
from .linear import TestReport, _check_level
# sieve_test stays importable here because the benchmark tracer wraps marginal.sieve_test
from .sieve import _sieve_report, default_m, sieve_test  # noqa: F401


# ---------------------------------------------------------------------------
# Marginal CDF menu

class UniformCDF:
    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        if not (np.isfinite(low) and np.isfinite(high) and low < high):
            raise InvalidSpec(f"uniform bounds must satisfy low < high, got ({low}, {high})")
        self.low, self.high = float(low), float(high)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)


class ExponentialCDF:
    def __init__(self, rate: float) -> None:
        if not (np.isfinite(rate) and rate > 0.0):
            raise InvalidSpec(f"exponential rate must be positive, got {rate}")
        self.rate = float(rate)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))


class NormalCDF:
    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        if not (np.isfinite(mu) and np.isfinite(sigma) and sigma > 0.0):
            raise InvalidSpec(f"normal parameters invalid: mu={mu}, sigma={sigma}")
        self.mu, self.sigma = float(mu), float(sigma)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return scipy.special.ndtr((x - self.mu) / self.sigma)


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
    return Sample(np.column_stack(cols))


# ---------------------------------------------------------------------------
# Indicator constraint family

def _cell_indicator(x: np.ndarray, j: int, lo: float, hi: float) -> np.ndarray:
    # Exact difference of two cumulative indicators; lo <= 0 means the
    # lowest cell, which must include the left endpoint.
    if lo <= 0.0:
        return (x[:, j] <= hi).astype(float)
    xj = x[:, j]
    return ((xj > lo) & (xj <= hi)).astype(float)


def _uniform_cells(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m cuts u_i = i / (m + 1) and all m + 1 cell widths, last one 1 - u_m."""
    try:
        m = operator.index(m)
    except TypeError:
        raise InvalidInput(f"grid size m must be an integer, got {m!r}") from None
    if m < 1:
        raise InvalidInput(f"grid size m must be >= 1, got {m}")
    cuts = np.arange(1, m + 1) / (m + 1.0)
    return cuts, np.diff(np.concatenate(([0.0], cuts, [1.0])))


def build_indicator_family(m: int, d: int) -> ConstraintFamily:
    """Cell-indicator constraints for all d marginals on the uniform grid of m cuts.

    Ordering is coordinate-major: the m cells (u_(i-1), u_i] of coordinate 1,
    then coordinate 2, and so on (k = d * m total), with the cell widths as
    targets.
    """
    if d < 1:
        raise InvalidInput(f"dimension must be >= 1, got {d}")
    cuts, widths = _uniform_cells(m)
    edges = np.concatenate(([0.0], cuts))
    functions = tuple(
        partial(_cell_indicator, j=j, lo=lo, hi=hi)
        for j in range(d)
        for lo, hi in zip(edges, cuts)
    )
    return ConstraintFamily(functions, np.tile(widths[:-1], d))


# ---------------------------------------------------------------------------
# The marginal test

def _cell_table(pit: Sample, cuts: np.ndarray) -> np.ndarray:
    """Counts of all (coordinate, cell) pairs; block (j, l) is their two-way table."""
    size = cuts.size + 1
    cells = [np.searchsorted(cuts, pit.data[:, j], side="left") for j in range(pit.d)]
    table = np.empty((pit.d, size, pit.d, size))
    for j in range(pit.d):
        for l in range(j, pit.d):  # one bincount per pair: O(n) extra memory
            flat = np.bincount(cells[j] * size + cells[l], minlength=size * size)
            table[j, :, l] = flat.reshape(size, size)
            table[l, :, j] = table[j, :, l].T
    return table.reshape(pit.d * size, pit.d * size)


def _table_moment_vectors(table: np.ndarray, widths: np.ndarray, n: int) -> MomentVectors:
    """``moment_vectors`` of ``build_indicator_family(m, d)`` read off the table."""
    size = widths.size
    keep = np.arange(table.shape[0]) % size < size - 1  # first m cells of each coordinate
    joint = table[np.ix_(keep, keep)] / n
    means = np.diag(joint)
    nu_n = np.tile(widths[:-1], table.shape[0] // size) - means
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
    cuts, widths = _uniform_cells(m if m is not None else default_m(sample.n))
    m = cuts.size
    recommended = 4 * (m + 1) ** sample.d
    if sample.n < recommended:
        warnings.warn(
            f"n={sample.n} is below the recommended {recommended} for m={m}, d={sample.d}",
            SmallSampleWarning,
            stacklevel=2,
        )
    table = _cell_table(pit, cuts)
    degenerate = int(np.count_nonzero(np.diag(table) == 0.0))
    if degenerate > 0:
        warnings.warn(
            f"{degenerate} marginal grid cells have zero observations",
            DegenerateCellsWarning,
            stacklevel=2,
        )
    return _sieve_report(
        _table_moment_vectors(table, widths, pit.n), alpha,
        m=float(m), d=float(sample.d), empty_marginal_cells=float(degenerate),
    )
