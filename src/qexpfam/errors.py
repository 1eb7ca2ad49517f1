"""Exception types raised by the package."""


class AlgebraMismatchError(ValueError):
    """Operands live in different algebras (or have wrong block shapes)."""


class DomainError(ValueError):
    """A scalar function was applied outside its domain on a spectrum."""


class PreconditionError(ValueError):
    """A documented precondition of an operation was violated."""


class NumericalDegeneracyError(RuntimeError):
    """Two equivalent numerical criteria disagreed beyond tolerance."""


class SolverError(RuntimeError):
    """The projection solver failed to converge within its iteration cap."""


class UnderResolvedSweepError(RuntimeError):
    """A boundary sweep has fewer than SWEEP_MIN_ANGLES angles to classify."""
