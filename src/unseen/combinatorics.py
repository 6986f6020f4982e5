"""Rising factorials and the rescaled generalized factorial coefficients of
the closed-form posterior, in log space.

On the model's domain (0 <= a < 1, b < 0) the coefficients
D(u, v) = C(u, v; a, b) / a^v satisfy a recurrence whose every term is
positive, so one unsigned log-space triangle evaluates them without
cancellation.  At a = 0 the same triangle gives the non-central Stirling
numbers |s(u, v; -b)|, so it is continuous at the Dirichlet case.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SizeLimitError, check_count

# Largest order u of the closed-form triangle that its callers build.
U_MAX = 60


def log_rising_factorial(a: float, u: int) -> float:
    """log of the rising factorial a * (a+1) * ... * (a+u-1).

    Evaluated as a log-gamma difference, which stays accurate up to
    u ~ 1e7 for the argument ranges used by the posterior formulas.
    """
    if a <= 0:
        raise DomainError(f"rising factorial base must be positive, got a={a}")
    if u < 0:
        raise DomainError(f"rising factorial order must be >= 0, got u={u}")
    if u == 0:
        return 0.0
    return float(gammaln(a + u) - gammaln(a))


class GfcTable:
    """Triangle of log D(u, v) for 0 <= v <= u <= u_max, where
    D(u, v) = C(u, v; a, b) / a^v for a > 0 and D(u, v) = |s(u, v; -b)|
    at a = 0, built by the recurrence

        D(u+1, v) = D(u, v-1) + (u - b - v*a) * D(u, v),  D(0, 0) = 1.

    For 0 <= a < 1 and b < 0 the factor u - b - v*a >= u(1 - a) - b is
    positive for every v <= u, so each row is one log-space add of
    positive terms.  Entries with v > u are 0 (log -inf)."""

    def __init__(self, u_max: int, a: float, b: float):
        check_count(u_max, 0, "u_max")
        if not (0.0 <= a < 1.0 and -np.inf < b < 0.0):
            raise DomainError(f"the triangle needs 0 <= a < 1 and finite b < 0, got a={a}, b={b}")
        self.u_max = u_max
        self.a = float(a)
        self.b = float(b)
        size = self.u_max + 1
        logs = np.full((size, size), -np.inf)
        logs[0, 0] = 0.0
        for u in range(self.u_max):
            prev = logs[u, : u + 1]
            log_coef = np.log(u - self.b - self.a * np.arange(u + 1))
            row = logs[u + 1]
            row[1 : u + 2] = prev
            np.logaddexp(row[: u + 1], log_coef + prev, out=row[: u + 1])
        self._logs = logs

    def log_row(self, u: int) -> np.ndarray:
        """log D(u, v) for v = 0..u."""
        if not (0 <= u <= self.u_max):
            raise SizeLimitError(f"u={u} outside table range 0..{self.u_max}")
        check_count(u, 0, "u")
        return self._logs[u, : u + 1].copy()
