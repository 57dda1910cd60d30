"""The public names of ``chi2dual``, pinned so that any addition or removal is a stated diff."""

import types

import chi2dual

EXPORTS = {
    # contamination
    "Chi2SimpleResult", "ContaminationSpec", "DualGFunction", "SearchSettings",
    "chi2_simple", "contamination_test", "dual_objective_contam", "model_integral",
    # core
    "ConstraintFamily", "DualSolution", "MomentVectors", "Sample", "chi2_quadratic",
    "dual_coefficients", "dual_function_values", "h1_variance", "moment_vectors",
    # errors
    "Chi2DualError", "DegenerateCellsWarning", "InvalidInput", "InvalidLevel",
    "InvalidParameter", "InvalidSpec", "NonPositiveDensity", "OptimizationFailure",
    "PlanFailure", "QuadratureFailure", "SingularCovariance", "SmallSampleWarning",
    # linear
    "TestReport", "test_linear",
    # marginal
    "MarginalSpec", "build_indicator_family", "marginal_test", "parse_marginal_spec",
    "pit_transform",
    # montecarlo
    "CalibrationReport", "ReplicationPlan", "ks_one_sample", "rbeta22", "rexp",
    "rmixture", "rnormal", "rpareto", "run_plan", "runif_d",
    # rng and sieve
    "Stream", "replicate_seed", "default_m", "sieve_test",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(chi2dual).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
    assert len(EXPORTS) == 50
