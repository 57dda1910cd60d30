"""Dual-representation chi-square divergence estimation and tests."""

from .contamination import (
    Chi2SimpleResult,
    ContaminationSpec,
    DualGFunction,
    SearchSettings,
    chi2_simple,
    contamination_test,
    dual_objective_contam,
    model_integral,
)
from .core import (
    ConstraintFamily,
    DualSolution,
    MomentVectors,
    Sample,
    chi2_quadratic,
    dual_coefficients,
    dual_function_values,
    h1_variance,
    moment_vectors,
)
from .errors import (
    Chi2DualError,
    DegenerateCellsWarning,
    InvalidInput,
    InvalidLevel,
    InvalidParameter,
    InvalidSpec,
    NonPositiveDensity,
    OptimizationFailure,
    PlanFailure,
    QuadratureFailure,
    SingularCovariance,
    SmallSampleWarning,
)
from .linear import TestReport, test_linear
from .marginal import (
    MarginalSpec,
    build_indicator_family,
    marginal_test,
    parse_marginal_spec,
    pit_transform,
)
from .montecarlo import (
    CalibrationReport,
    ReplicationPlan,
    ks_one_sample,
    rbeta22,
    rexp,
    rmixture,
    rnormal,
    rpareto,
    run_plan,
    runif_d,
)
from .rng import Stream, replicate_seed
from .sieve import default_m, sieve_test

__version__ = "0.1.0"
