"""Exception types shared across the library."""


class MConvexError(Exception):
    """Base class for all library-specific errors."""


class NonHermitianInput(MConvexError):
    """A matrix that must be Hermitian deviates beyond tolerance."""


class DimensionMismatch(MConvexError):
    """Operands have incompatible shapes or lengths."""


class TupleMismatch(MConvexError):
    """Two operator tuples cannot be compared (different d, or bad levels)."""


class BadProblem(MConvexError):
    """A feasibility problem is malformed (shapes, non-Hermitian data)."""


class NoCertificate(MConvexError):
    """A certificate was requested for a verdict that does not carry one."""


class NotCommuting(MConvexError):
    """A tuple expected to commute (including adjoints) fails to."""


class ReducibleCandidate(MConvexError):
    """A proposed block summand has commutant dimension > 1."""

    def __init__(self, index: int, dim: int):
        self.index = index
        self.dim = dim
        super().__init__(
            f"candidate {index} is reducible (commutant dimension {dim})"
        )


class EmptyEssentialSpectrum(MConvexError):
    """A diagonal tuple has no infinite atoms and no sequences."""


class NotInKmax(MConvexError):
    """The tuple is not even in K^max, so no scaling analysis applies."""


class NoInteriorZero(MConvexError):
    """The body does not contain 0 in its interior, so scaling is ill-posed."""


class TooLarge(MConvexError):
    """A query would allocate more than the library's memory budget."""
