"""Exception types raised across the package.

Everything derives from :class:`SubspaceBanditError` so callers can catch one
base class; most types also subclass ``ValueError`` since they signal bad
inputs rather than internal faults.
"""


class SubspaceBanditError(Exception):
    """Base class for all package errors."""


class InvalidMatrix(SubspaceBanditError, ValueError):
    """Matrix input is not a finite square (symmetric) matrix."""


class DimMismatch(SubspaceBanditError, ValueError):
    """Operands have incompatible dimensions."""


class NormViolation(SubspaceBanditError, ValueError):
    """Instance squared norm exceeds the domain bound G."""

    def __init__(self, sq_norm, bound):
        self.sq_norm = float(sq_norm)
        self.bound = float(bound)
        super().__init__(f"squared norm {self.sq_norm:.12g} exceeds G={self.bound:.12g}")


class InfNormViolation(SubspaceBanditError, ValueError):
    """Instance has a coordinate with magnitude above 1."""


class NotOrthonormal(SubspaceBanditError, ValueError):
    """Basis columns are not orthonormal to tolerance."""


class BadIndex(SubspaceBanditError, ValueError):
    """Coordinate index outside [0, d)."""


class BadProbabilities(SubspaceBanditError, ValueError):
    """Probability vector is negative or does not sum to 1."""


class BadParams(SubspaceBanditError, ValueError):
    """Fixture parameters outside their admissible range."""


class BadBasis(SubspaceBanditError, ValueError):
    """Coin-fixture basis is not orthogonal / correctly scaled / inside the cube."""


class InfeasibleBasis(SubspaceBanditError, ValueError):
    """No orthogonal basis with the requested norms fits in the unit cube."""


class OddBudget(SubspaceBanditError, ValueError):
    """Split-half estimators need an even attribute budget r >= 2."""


class ZeroProbability(SubspaceBanditError, ValueError):
    """Importance weight requested for a zero-probability pair."""


class BudgetNotTwo(SubspaceBanditError, ValueError):
    """The non-uniform-sampling learner only supports attribute budget r = 2."""


class AlphaTooLarge(SubspaceBanditError, ValueError):
    """Default mixing weight exceeds 1/2; increase the sample budget or override alpha."""


class EmptySample(SubspaceBanditError, ValueError):
    """Batch PCA called with no samples."""


class NotInHull(SubspaceBanditError, ValueError):
    """Matrix is not (numerically) a trace-k matrix with spectrum in [0, 1]."""


class NonTermination(SubspaceBanditError, RuntimeError):
    """Decomposition residual failed to vanish within d iterations (internal error)."""


class InfeasibleK(SubspaceBanditError, ValueError):
    """Target trace k exceeds the dimension."""


class MissingBasis(SubspaceBanditError, ValueError):
    """Coin metadata or projector basis required but absent."""


class ConfigError(SubspaceBanditError, ValueError):
    """Experiment configuration rejected before running any trial."""
