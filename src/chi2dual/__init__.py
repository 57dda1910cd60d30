"""Dual-representation chi-square divergence estimation and tests."""

from .contamination import (
    Chi2SimpleResult,
    ContaminationSpec,
    DualGFunction,
    SearchSettings,
    chi2_simple,
    contamination_test,
    dual_objective_contam,
    minimax_gap,
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
    dual_objective,
    dual_target_integral,
    h1_variance,
    legendre_transform,
    moment_vectors,
)
from .errors import (
    Chi2DualError,
    DegenerateCellsWarning,
    InvalidInput,
    InvalidLevel,
    InvalidParameter,
    InvalidSpec,
    MissingBound,
    NoConvergence,
    NonPositiveDensity,
    OptimizationFailure,
    PlanFailure,
    QuadratureFailure,
    RateConditionWarning,
    SingularCovariance,
    SmallSampleWarning,
    ZeroCellWarning,
)
from .linear import TestReport, chi2_cdf, chi2_sf, normal_cdf, test_linear
from .marginal import (
    CellCounts,
    EigenBoundsReport,
    Grid,
    MarginalSpec,
    TableMinResult,
    build_indicator_family,
    eigen_bounds_check,
    marginal_sieve_plan,
    marginal_test,
    parse_marginal_spec,
    pearson_min_form,
    pit_transform,
    s0_matrix,
    table_coefficients_to_dual,
    u_matrix,
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
from .sieve import (
    RateConditionReport,
    SievePlan,
    check_rate_conditions,
    default_m,
    sieve_test,
    standardized_statistic,
)

__version__ = "0.1.0"
