"""Exception types shared by all modules."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """A value or comparison is undecided at the widest precision tried; retry with a higher-precision context."""


class ResourceError(RuntimeError):
    """Requested computation exceeds a configured size cap."""
