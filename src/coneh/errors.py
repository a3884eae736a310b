"""Exception hierarchy shared by all coneh modules."""


class ConehError(Exception):
    """Base class for all library errors."""


class InvalidArgument(ConehError, ValueError):
    """An argument violates a documented precondition."""


class ResolutionInsufficient(ConehError):
    """A numeric backend cannot certify the requested spectral range.

    ``certified_bound`` carries the largest eigenvalue (or exponent range)
    that *is* certified, so callers can retry with a smaller request.
    """

    def __init__(self, message, certified_bound=None):
        super().__init__(message)
        self.certified_bound = certified_bound


class NumericFailure(ConehError):
    """A numeric procedure failed, or would pass its resource ceiling."""


class DegenerateInput(ConehError, ValueError):
    """The input is structurally valid but degenerate (e.g. all-zero modes)."""


class PreconditionViolation(ConehError, ValueError):
    """A domain precondition fails for a specific, nameable part of the input."""


class UnsupportedCrossSection(ConehError, TypeError):
    """The operation needs evaluable eigenfunctions this cross-section lacks."""
