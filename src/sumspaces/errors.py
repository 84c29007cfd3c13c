"""Exception hierarchy shared by all analysis modules."""


class SumspacesError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(SumspacesError):
    """Operands live in different ambient spaces or have incompatible shapes or counts."""


class NonSquare(SumspacesError):
    """A square matrix was required."""


class NotHermitian(SumspacesError):
    """Asymmetry of a supposedly Hermitian matrix exceeds tolerance."""


class ComputationFailed(SumspacesError):
    """A dense decomposition failed to converge."""


class EigenvalueOnBoundary(SumspacesError):
    """A spectral cutoff sits too close to an eigenvalue to select a side
    (the shrink level delta of ``reduce_pair`` against sigma(a))."""


class GraphDisconnected(SumspacesError):
    """A connected graph was required."""


class NotIndependent(SumspacesError):
    """The subspace system is not linearly independent."""


class SumNotFull(SumspacesError):
    """The subspace sum does not cover the ambient space."""


class GapTooSmall(SumspacesError):
    """The spectral gap is below the decision tolerance."""


class RangeNotIncluded(SumspacesError):
    """Im(A) is not contained in Im(B)."""


class NotInvertible(SumspacesError):
    """An invertible operator was required."""


class BudgetExceeded(SumspacesError):
    """The product-enumeration budget would be exceeded."""


class HypothesisViolated(SumspacesError):
    """A hypothesis of the criterion fails: F vanishes somewhere on [0, 1)."""


class DiagonalNotPositive(SumspacesError):
    """The coefficient matrix needs a positive diagonal."""


class UnknownFamily(SumspacesError):
    """Unrecognized built-in block family name."""


class MalformedInput(SumspacesError):
    """An input entry is not a pair [re, im] of finite real numbers."""
