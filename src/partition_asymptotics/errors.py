"""Exception types shared by all modules, and the one gate on a working precision."""

MIN_DIGITS = 30


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class PrecisionError(ArithmeticError):
    """A value or comparison is undecided at the widest precision tried; retry with a higher-precision context."""


class ResourceError(RuntimeError):
    """Requested computation exceeds a configured size cap."""


def _check_digits(digits) -> None:
    """Refuse a working precision that is not an integer of at least ``MIN_DIGITS`` decimal digits.

    It is the one gate, here beside the exception it raises, so that the CLI,
    which builds no ``PrecisionContext`` and so imports no mpmath, checks
    ``--digits`` as ``PrecisionContext`` checks it for a library caller.
    """
    if not isinstance(digits, int) or digits < MIN_DIGITS:
        raise DomainError(f"digits must be an integer >= {MIN_DIGITS}, got {digits!r}")
