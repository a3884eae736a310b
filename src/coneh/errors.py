"""Exception hierarchy shared by all coneh modules."""


class ConehError(Exception):
    """Base class for all library errors; ``exit_code`` is the CLI exit
    code of its error objects: 1 usage, 2 resolution, 3 verification."""

    exit_code = 1


class InvalidArgument(ConehError, ValueError):
    """An argument violates a documented precondition."""


class ResolutionInsufficient(ConehError):
    """A numeric backend cannot certify the requested spectral range.

    ``certified_bound`` carries the largest eigenvalue (or exponent range)
    that *is* certified, so callers can retry with a smaller request.
    """

    exit_code = 2

    def __init__(self, message, certified_bound=None):
        super().__init__(message)
        self.certified_bound = certified_bound


class NumericFailure(ConehError):
    """A numeric procedure failed, or would pass its resource ceiling."""

    exit_code = 3


class DegenerateInput(ConehError, ValueError):
    """The input is structurally valid but degenerate (e.g. all-zero modes)."""


class PreconditionViolation(ConehError, ValueError):
    """A domain precondition fails for a specific, nameable part of the input."""

    exit_code = 3

