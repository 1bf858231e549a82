"""Exception types raised by validation and search routines."""


class NonSquareError(ValueError):
    """Matrix operand is not two-dimensional square."""


class NotHermitianError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPositiveSemidefiniteError(ValueError):
    """Eigenvalue below the allowed negative tolerance."""


class NotSymmetricError(ValueError):
    """Matrix deviates from its plain transpose beyond tolerance."""


class NonFiniteError(ValueError):
    """Input holds a NaN or infinite entry."""


class DimensionTooSmallError(ValueError):
    """Subsystem dimension too small to carry any generator."""


class InvalidSplitError(ValueError):
    """Bipartition is not of the required single-versus-rest form."""


class SubsystemIndexError(ValueError):
    """Subsystem index set is empty, duplicated, or out of range."""


class ParameterRangeError(ValueError):
    """Scalar parameter outside its documented interval."""


class DecompositionSizeError(ValueError):
    """Requested ensemble size is smaller than the state rank."""


class DimensionMismatchError(ValueError):
    """Operator, state, or subsystem dimensions disagree."""


class LengthMismatchError(ValueError):
    """Subset and coefficient lists have different lengths."""


class SubsetSizeError(ValueError):
    """Subset size k outside the range 1..N."""


class CoefficientBoundError(ValueError):
    """Coefficient modulus exceeds the allowed unit bound."""


class NotNormalizedError(ValueError):
    """Coefficient vector is not normalized to unit Euclidean norm."""


class ThresholdNotDetectedError(RuntimeError):
    """Scan detector fails at the upper end of the parameter range."""
