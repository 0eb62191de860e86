"""Exception types shared across the package."""


class DcmgError(Exception):
    """Base class for every error raised by this package."""


class InvalidTopology(DcmgError):
    """Network description is structurally unusable."""


class InvalidAgent(DcmgError):
    """Referenced bus id does not exist in the network."""


class NonPositiveInput(DcmgError):
    """A quantity that must be positive (or nonnegative) is not."""


class DimensionMismatch(DcmgError):
    """Matrix or vector dimensions are inconsistent."""


class NonSquare(DcmgError):
    """Operation requires a square matrix."""


class NonFinite(DcmgError):
    """Matrix contains NaN or infinite entries."""


class RankDeficient(DcmgError):
    """Matrix does not have full column rank."""


class DecouplingInfeasible(DcmgError):
    """Disturbance direction cannot be decoupled from the estimation error."""


class SingularInnovation(DcmgError):
    """Innovation covariance C P C^T + R is not invertible."""


class NegativeVariance(DcmgError):
    """A variance entry is negative."""


class UnknownComponent(DcmgError):
    """Residual stream does not match the model metadata."""


class ParseError(DcmgError):
    """Scenario file is unreadable or not valid JSON."""


class ValidationError(DcmgError):
    """Scenario content violates a semantic constraint."""
