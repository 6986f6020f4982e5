"""Exception types shared across the package, and the two rules for
plain arguments.

`check_count` admits an integer (any `numbers.Integral` but bool) of at
least `least`: draw counts m, sample sizes, frequencies, replicate counts
and stream indices.  `check_positive` admits a finite number above 0, so
nan and inf fail: rates, shapes of laws and weights.  Both raise
`DomainError`.  The Pitman-Yor pair has its own rule, `model.PYParams`.
"""

import math
import numbers


class UnseenError(Exception):
    """Base class for all package-specific errors."""


class DomainError(UnseenError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeLimitError(UnseenError, ValueError):
    """A requested table or pmf exceeds the configured size cap."""


class NumericalIntegrityError(UnseenError, ArithmeticError):
    """Two evaluation paths disagree, or an internal sampler failed to
    converge; indicates an implementation or precision problem rather
    than bad user input."""


class MethodUnavailableError(UnseenError, ValueError):
    """The requested method does not exist for the given parameters
    (e.g. Mittag-Leffler asymptotics at alpha = 0)."""


class DegenerateSampleError(UnseenError, ValueError):
    """The observed sample carries no usable information for the
    requested operation (e.g. empirical-Bayes fitting with n = 1)."""


class ParseError(UnseenError, ValueError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def check_count(value, least: int = 0, name: str = "m") -> None:
    """Raise DomainError unless `value` is an integer >= `least`; bool is
    not a count."""
    # the exact-type test spares the common case the slower ABC check
    if (type(value) is not int
            and (type(value) is bool or not isinstance(value, numbers.Integral))
            or value < least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")


def check_positive(value, name: str) -> None:
    """Raise DomainError unless `value` is finite and > 0; nan fails."""
    if not (value > 0 and math.isfinite(value)):
        raise DomainError(f"{name} must be finite and positive, got {value!r}")
