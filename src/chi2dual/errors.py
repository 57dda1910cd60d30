"""Exception hierarchy and warning categories shared across the package."""


class Chi2DualError(Exception):
    """Base class for all package errors."""


class InvalidInput(Chi2DualError, ValueError):
    """Malformed numeric input: non-finite values, shape mismatches, empty data."""


class InvalidLevel(Chi2DualError, ValueError):
    """Nominal test level outside (0, 1)."""


class InvalidSpec(Chi2DualError, ValueError):
    """A distribution/constraint specification is inconsistent or out of range."""


class InvalidParameter(Chi2DualError, ValueError):
    """Generator or model parameter outside its admissible domain."""


class SingularCovariance(Chi2DualError):
    """Constraint covariance matrix is rank-deficient or too ill-conditioned.

    Usually indicates linearly dependent constraint functions, a constant
    function in the family, or a sample too small for the family size.
    """


class NonPositiveDensity(Chi2DualError):
    """Mixture density is not strictly positive on the evaluation nodes."""


class QuadratureFailure(Chi2DualError):
    """Adaptive quadrature could not meet the requested error target."""


class OptimizationFailure(Chi2DualError):
    """No optimizer start point produced a usable objective value."""


class PlanFailure(Chi2DualError):
    """Replication plan exceeded its per-replicate failure budget."""


class DegenerateCellsWarning(UserWarning):
    """One or more marginal grid cells received zero observations."""


class SmallSampleWarning(UserWarning):
    """Sample size is below the recommended minimum for the chosen grid."""
