"""Seedable replication harness for size and power calibration.

A replication plan names a data-generating scenario (null or alternative
for each of the three tests), a sample size, a replicate count, and a base
seed.  Replicate r draws from the counter-based stream seeded with
base_seed + r (wrapping 64-bit addition), so results are independent of
execution order and bit-reproducible across runs.  The report carries the
rejection rate at the nominal level, the exact one-sample KS distance
between the replicate statistics and the reference law their test reports
name (``TestReport.cdf``), and the raw statistics.

Individual replicate failures (for example a singular constraint
covariance on a degenerate draw) are counted rather than fatal, up to a 1%
budget; beyond that the plan aborts.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable

import numpy as np

from .contamination import ContaminationSpec, SearchSettings, contamination_test
from .core import ConstraintFamily, Sample
from .errors import Chi2DualError, InvalidInput, InvalidParameter, InvalidSpec, PlanFailure
from .linear import TestReport, test_linear
from .marginal import MarginalSpec, marginal_test
from .rng import Stream, replicate_seed

_SALT_SELECT = 0x5E1EC7
_SALT_PARETO = 0x9A3E70


# ---------------------------------------------------------------------------
# Inverse-CDF generators on explicit streams

def rexp(stream: Stream, count: int, theta: float) -> np.ndarray:
    """Exponential(rate theta) via -log(U)/theta."""
    if not theta > 0.0:
        raise InvalidParameter(f"exponential rate must be positive, got {theta}")
    return -np.log(stream.uniforms(count)) / theta


def rpareto(stream: Stream, count: int, gamma: float, nu: float) -> np.ndarray:
    """Pareto tail on (nu, inf) via nu * U^(-1/gamma)."""
    if not (gamma > 1.0 and nu > 1.0):
        raise InvalidParameter(f"need gamma > 1 and nu > 1, got ({gamma}, {nu})")
    return nu * stream.uniforms(count) ** (-1.0 / gamma)


def rmixture(
    stream: Stream, count: int, theta: float, lam: float, gamma: float, nu: float
) -> np.ndarray:
    """Exponential contaminated by a Bernoulli(lam) Pareto component.

    Component selection and the Pareto draws come from salted substreams,
    so lam = 0 reproduces the plain exponential stream bit for bit.
    """
    if not 0.0 <= lam < 1.0:
        raise InvalidParameter(f"generation requires 0 <= lambda < 1, got {lam}")
    values = rexp(stream, count, theta)
    if lam > 0.0:
        select = stream.derive(_SALT_SELECT).uniforms(count) < lam
        outliers = rpareto(stream.derive(_SALT_PARETO), count, gamma, nu)
        values = np.where(select, outliers, values)
    return values


def runif_d(stream: Stream, count: int, d: int) -> np.ndarray:
    """count x d uniforms on (0, 1), filled row-major."""
    if d < 1:
        raise InvalidParameter(f"dimension must be >= 1, got {d}")
    return stream.uniforms(count * d).reshape(count, d)


def rbeta22(stream: Stream, count: int) -> np.ndarray:
    """Beta(2,2) as the median of three uniforms (no special functions)."""
    triples = stream.uniforms(3 * count).reshape(count, 3)
    return np.median(triples, axis=1)


def rnormal(stream: Stream, count: int) -> np.ndarray:
    """Standard normals by the Box-Muller transform, two per uniform pair."""
    pairs = (count + 1) // 2
    u = stream.uniforms(2 * pairs)
    u1, u2 = u[0::2], u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]


# ---------------------------------------------------------------------------
# Plans and reports

@dataclass(frozen=True)
class ReplicationPlan:
    """One calibration run: scenario, sample size, replicates, base seed."""

    scenario: str
    n: int
    replicates: int
    base_seed: int
    alpha: float = 0.05
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise InvalidInput(
                f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}"
            )
        keys = _SCENARIO_TABLE[self.scenario][1]
        unread = [key for key in self.params if key not in keys]
        if unread:
            raise InvalidInput(f"scenario {self.scenario!r} reads no params key {unread[0]!r}")
        for key, value in self.params.items():
            kind, op, bound = keys[key]
            value = _as_kind(f"params key {key!r}", value, kind)
            if not (value >= bound if op == ">=" else value > bound):
                raise InvalidInput(f"params key {key!r} must be {op} {bound}, got {value!r}")
        if self.scenario.startswith("contam_"):
            # bounds across keys, and the upper end of the weight rmixture draws with
            try:
                _contam_spec(self.params)
            except InvalidSpec as exc:
                raise InvalidInput(f"params: {exc}") from None
            lam = float(self.params.get("lam", 0.0))
            if not lam < 1.0:
                raise InvalidInput(f"params key 'lam' must be < 1.0, got {lam!r}")
        if self.replicates < 1:
            raise InvalidInput(f"replicates must be >= 1, got {self.replicates}")
        if self.n < 1:
            raise InvalidInput(f"sample size must be >= 1, got {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidInput(f"alpha must be in (0, 1), got {self.alpha}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ReplicationPlan":
        """Plan from its wire format; InvalidInput names a missing, malformed or unknown field."""
        values = {"alpha": 0.05, "params": {}, **payload}
        kinds = dict(scenario=str, n=int, replicates=int, base_seed=int, alpha=float, params=dict)
        for name in values:
            if name not in kinds:
                raise InvalidInput(f"unknown field {name!r}")
        checked = {}
        for name, kind in kinds.items():
            if name not in values:
                raise InvalidInput(f"missing field {name!r}")
            checked[name] = _as_kind(f"field {name!r}", values[name], kind)
        return cls(**checked)


def _as_kind(label: str, value, kind: type):
    """``kind(value)``; InvalidInput names ``label`` when ``value`` is not a ``kind``.

    Neither an int nor a float may be a bool; an int must equal its integer
    value, a float must be a finite number, and a str or a dict must be one
    already.
    """
    try:
        if kind in (str, dict) and not isinstance(value, kind):
            raise TypeError
        if kind in (int, float) and isinstance(value, bool):
            raise ValueError
        if kind is int and value != int(value):
            raise ValueError
        if kind is float and (isinstance(value, str) or not math.isfinite(value)):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"{label} must be {kind.__name__}, got {value!r}") from None


@dataclass(frozen=True)
class CalibrationReport:
    """Aggregated replication results (statistics kept in replicate order).

    ``wall_time`` is a measurement (seconds spent in ``run_plan``), so it
    differs between runs of the same plan; the ``calibrate`` CLI report
    leaves it out so that its bytes depend only on the plan and the seed.
    """

    plan: ReplicationPlan
    rejection_rate: float
    ks_distance: float
    statistics: tuple[float, ...]
    n_failures: int
    failed_replicates: tuple[int, ...]
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "rejection_rate": self.rejection_rate,
            "ks_distance": self.ks_distance,
            "n_failures": self.n_failures,
            "failed_replicates": list(self.failed_replicates),
            "wall_time": self.wall_time,
            "statistics": list(self.statistics),
        }


def ks_one_sample(values: np.ndarray, cdf: Callable[[float], float]) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance to a continuous CDF."""
    sorted_vals = np.sort(np.asarray(values, dtype=float))
    n = sorted_vals.shape[0]
    if n == 0:
        raise InvalidInput("KS distance needs at least one value")
    cdf_vals = np.array([cdf(v) for v in sorted_vals])
    grid = np.arange(1, n + 1) / n
    d_plus = np.max(grid - cdf_vals)
    d_minus = np.max(cdf_vals - (grid - 1.0 / n))
    return float(max(d_plus, d_minus, 0.0))


def _linear_moment_family() -> ConstraintFamily:
    return ConstraintFamily(
        functions=(
            lambda x: x[:, 0],
            lambda x: x[:, 0] ** 2,
            lambda x: x[:, 0] ** 3,
        ),
        targets=np.array([0.0, 1.0, 0.0]),
        names=("x", "x^2", "x^3"),
    )


def _mean_quarter_family() -> ConstraintFamily:
    return ConstraintFamily(
        functions=(lambda x: x[:, 0],),
        targets=np.array([0.25]),
        names=("x",),
    )


# params key -> (kind, comparison, lower bound)
_POSITIVE = (float, ">", 0.0)
_CONTAM_KEYS = dict(
    theta_lo=_POSITIVE, theta_hi=_POSITIVE, lambda_hi=_POSITIVE,
    pareto_gamma=(float, ">", 1.0), pareto_nu=(float, ">", 1.0),
    theta0=_POSITIVE, alpha_tol=_POSITIVE,
)
_CONTAM_ALT_KEYS = {**_CONTAM_KEYS, "lam": (float, ">=", 0.0)}
_MARGINAL_KEYS = {"d": (int, ">=", 1), "m": (int, ">=", 1)}


def _contam_spec(params: dict) -> ContaminationSpec:
    """The plan's spec; keys it leaves out take ``ContaminationSpec``'s defaults."""
    keys = (spec_field.name for spec_field in fields(ContaminationSpec))
    given = {key: float(params[key]) for key in keys if key in params}
    return ContaminationSpec(**{"theta_lo": 0.5, "theta_hi": 2.0, **given})


def _linear_null(plan: ReplicationPlan, stream: Stream) -> TestReport:
    sample = Sample(rnormal(stream, plan.n).reshape(-1, 1))
    return test_linear(sample, _linear_moment_family(), plan.alpha)


def _linear_alt(plan: ReplicationPlan, stream: Stream) -> TestReport:
    sample = Sample(stream.uniforms(plan.n).reshape(-1, 1))
    return test_linear(sample, _mean_quarter_family(), plan.alpha)


def _marginal_replicate(plan: ReplicationPlan, stream: Stream, beta_first: bool) -> TestReport:
    d = int(plan.params.get("d", 2))
    m = plan.params.get("m")
    data = runif_d(stream, plan.n, d)
    if beta_first:
        data = data.copy()
        data[:, 0] = rbeta22(stream.derive(0xB22), plan.n)
    spec = MarginalSpec.all_uniform(d)
    return marginal_test(Sample(data), spec, plan.alpha, m=None if m is None else int(m))


def _contam_replicate(plan: ReplicationPlan, stream: Stream, contaminated: bool) -> TestReport:
    params = plan.params
    spec = _contam_spec(params)
    theta0 = float(params.get("theta0", 1.0))
    if contaminated:
        lam = float(params.get("lam", 0.15))
        data = rmixture(stream, plan.n, theta0, lam, spec.pareto_gamma, spec.pareto_nu)
    else:
        data = rexp(stream, plan.n, theta0)
    settings = SearchSettings(alpha_tol=float(params.get("alpha_tol", SearchSettings().alpha_tol)))
    return contamination_test(Sample(data.reshape(-1, 1)), spec, plan.alpha, settings=settings)


# scenario -> (one replicate on its stream, params keys it reads); the
# reference law is the one the replicates' reports name
_SCENARIO_TABLE = {
    "linear_null": (_linear_null, {}),
    "linear_alt": (_linear_alt, {}),
    "marginal_null": (partial(_marginal_replicate, beta_first=False), _MARGINAL_KEYS),
    "marginal_alt": (partial(_marginal_replicate, beta_first=True), _MARGINAL_KEYS),
    "contam_null": (partial(_contam_replicate, contaminated=False), _CONTAM_KEYS),
    "contam_alt": (partial(_contam_replicate, contaminated=True), _CONTAM_ALT_KEYS),
}
SCENARIOS = tuple(_SCENARIO_TABLE)


def run_plan(plan: ReplicationPlan) -> CalibrationReport:
    """Execute every replicate of the plan and aggregate the results.

    Replicate r uses the stream seeded with base_seed + r; failures are
    recorded and tolerated up to 1% of the replicate count.
    """
    start = time.perf_counter()
    replicate, _ = _SCENARIO_TABLE[plan.scenario]
    statistics: list[float] = []
    rejections = 0
    failed: list[int] = []
    for r in range(plan.replicates):
        stream = Stream(replicate_seed(plan.base_seed, r))
        try:
            report = replicate(plan, stream)
        except Chi2DualError:
            failed.append(r)
            if len(failed) > 0.01 * plan.replicates:
                raise PlanFailure(
                    f"{len(failed)} failures in {r + 1} replicates exceeds the "
                    "1% budget"
                ) from None
            continue
        statistics.append(report.statistic)
        rejections += int(report.reject)
        reference_cdf = report.cdf  # one law for every replicate of a scenario
    succeeded = len(statistics)
    ks = ks_one_sample(np.array(statistics), reference_cdf)
    return CalibrationReport(
        plan=plan,
        rejection_rate=rejections / succeeded,
        ks_distance=ks,
        statistics=tuple(statistics),
        n_failures=len(failed),
        failed_replicates=tuple(failed),
        wall_time=time.perf_counter() - start,
    )
