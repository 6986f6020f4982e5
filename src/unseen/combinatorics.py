"""Rising factorials, generalized factorial coefficients and non-central
Stirling numbers, evaluated in signed log space.

The alternating sum defining the non-central generalized factorial
coefficient cancels catastrophically in double precision, so the
production path is a triangular recurrence on signed log magnitudes;
the explicit sum is retained as an extended-precision reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SizeLimitError

# Largest order u of the closed-form tables and of their callers.
U_MAX = 60

_LOG2 = math.log(2.0)


def _log_big_int(n: int) -> float:
    """log of a positive int too large for float conversion."""
    shift = max(0, n.bit_length() - 512)
    return math.log(n >> shift) + shift * _LOG2


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as (sign, log |x|); sign 0 encodes exact zero."""

    sign: int
    log_abs: float

    @classmethod
    def from_value(cls, x: float) -> "SignedLog":
        if x == 0:
            return cls.ZERO
        if isinstance(x, int):
            return cls(1 if x > 0 else -1, _log_big_int(abs(x)))
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    def value(self) -> float:
        """Collapse to a float; overflows to +/-inf for huge magnitudes."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0 or other.sign == 0:
            return SignedLog.ZERO
        return SignedLog(self.sign * other.sign, self.log_abs + other.log_abs)

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.log_abs)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        s, log_abs = _signed_logaddexp(self.sign, self.log_abs, other.sign, other.log_abs)
        return SignedLog(int(s), float(log_abs)) if s else SignedLog.ZERO


SignedLog.ZERO = SignedLog(0, 0.0)
SignedLog.ONE = SignedLog(1, 0.0)


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


def _signed_log_rising_prefix(x: float, u: int):
    """(signs, log magnitudes) of the prefix products (x)_(0), ..., (x)_(u)
    for arbitrary real x; once a factor is zero the sign is 0 and the log
    -inf."""
    factors = x + np.arange(u, dtype=float)
    signs = np.ones(u + 1, dtype=np.int8)
    signs[1:] = np.cumprod(np.sign(factors))
    logs = np.zeros(u + 1)
    with np.errstate(divide="ignore"):
        np.cumsum(np.log(np.abs(factors)), out=logs[1:])
    return signs, logs


def signed_log_rising(x: float, u: int) -> SignedLog:
    """(x)_(u) for arbitrary real x, as a SignedLog (handles sign flips)."""
    signs, logs = _signed_log_rising_prefix(x, u)
    return SignedLog(int(signs[-1]), float(logs[-1])) if signs[-1] else SignedLog.ZERO


def _signed_logaddexp(s1, l1, s2, l2):
    """Signed log-space addition on (sign, log|.|) arrays or scalars; a
    zero result has sign 0 and log -inf."""
    s1 = np.asarray(s1, dtype=np.int8)
    s2 = np.asarray(s2, dtype=np.int8)
    # a zero operand counts as log -inf, so the other operand comes through
    l1 = np.where(s1 == 0, -np.inf, l1)
    l2 = np.where(s2 == 0, -np.inf, l2)
    big = np.maximum(l1, l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # opposite signs: |x| - |y|, an exact zero once exp(diff) rounds to 1
        shrink = np.log1p(-np.exp(np.minimum(l1, l2) - big))
        out_l = np.where(s1 == s2, np.logaddexp(l1, l2), big + shrink)
    out_s = np.where(out_l > -np.inf, np.where(l1 >= l2, s1, s2), 0).astype(np.int8)
    return out_s, out_l


class GfcTable:
    """Triangle of non-central generalized factorial coefficients
    C(u, v; a, b) for 0 <= v <= u <= u_max, built by the recurrence

        C(u+1, v) = a * C(u, v-1) + (u - b - v*a) * C(u, v)

    seeded from C(0,0) = 1 and C(u,0) = (-b)_(u)."""

    def __init__(self, u_max: int, a: float, b: float):
        if u_max < 0:
            raise DomainError("u_max must be >= 0")
        self.u_max = int(u_max)
        self.a = float(a)
        self.b = float(b)
        n = self.u_max + 1
        signs = np.zeros((n, n), dtype=np.int8)
        logs = np.full((n, n), -np.inf)
        # column 0 boundary: (-b)_(u)
        signs[:, 0], logs[:, 0] = _signed_log_rising_prefix(-self.b, self.u_max)
        sa = SignedLog.from_value(self.a)
        for u in range(n - 1):
            v = np.arange(1, u + 2)
            coef = u - self.b - v * self.a
            cs = np.sign(coef).astype(np.int8)
            with np.errstate(divide="ignore"):
                cl = np.log(np.abs(coef))
            # a * C(u, v-1)
            t1_s = (sa.sign * signs[u, v - 1]).astype(np.int8)
            t1_l = np.where(t1_s != 0, sa.log_abs + logs[u, v - 1], -np.inf)
            # (u - b - v a) * C(u, v); C(u, u+1) row slot is zero already
            t2_s = (cs * signs[u, v]).astype(np.int8)
            t2_l = np.where(t2_s != 0, cl + logs[u, v], -np.inf)
            rs, rl = _signed_logaddexp(t1_s, t1_l, t2_s, t2_l)
            signs[u + 1, v] = rs
            logs[u + 1, v] = rl
        self._signs = signs
        self._logs = logs

    def entry(self, u: int, v: int) -> SignedLog:
        if not (0 <= u <= self.u_max):
            raise SizeLimitError(f"u={u} outside table range 0..{self.u_max}")
        if v > u:
            return SignedLog.ZERO
        if v < 0:
            raise DomainError("v must be >= 0")
        s = int(self._signs[u, v])
        if s == 0:
            return SignedLog.ZERO
        return SignedLog(s, float(self._logs[u, v]))

    def log_row(self, u: int):
        """(signs, log magnitudes) of row u, entries v = 0..u."""
        if not (0 <= u <= self.u_max):
            raise SizeLimitError(f"u={u} outside table range 0..{self.u_max}")
        return self._signs[u, : u + 1].copy(), self._logs[u, : u + 1].copy()


def gfc_noncentral(u: int, v: int, a: float, b: float) -> SignedLog:
    """Non-central generalized factorial coefficient C(u, v; a, b), by the
    stable triangular recurrence; u is capped at U_MAX."""
    if v < 0 or u < 0:
        raise DomainError("u and v must be nonnegative")
    if u > U_MAX:
        raise SizeLimitError(f"u={u} exceeds u_max={U_MAX}")
    if v > u:
        return SignedLog.ZERO
    return GfcTable(u, a, b).entry(u, v)


def gfc_noncentral_sum(u: int, v: int, a: float, b: float, prec: int | None = None) -> SignedLog:
    """C(u, v; a, b) by the explicit alternating binomial sum, in extended
    precision (the reference that the recurrence is tested against).

    The sum cancels by a factor bounded by its largest term, so by default
    the working precision adapts to the term magnitudes (never below 200
    bits); pass `prec` to override.
    """
    import mpmath

    if v > u:
        return SignedLog.ZERO
    if prec is None:
        log2_term = 0.0
        for i in range(v + 1):
            base = -i * a - b
            mags = np.abs(base + np.arange(u, dtype=float))
            if np.all(mags > 0):
                log2_term = max(log2_term, float(np.log2(mags).sum()) + v)
        prec = max(200, int(log2_term) + 160)
    with mpmath.workprec(prec):
        a_mp, b_mp = mpmath.mpf(a), mpmath.mpf(b)
        total = mpmath.mpf(0)
        for i in range(v + 1):
            # the base must be formed in working precision: a double-rounded
            # -i*a - b perturbs the huge terms above the cancellation floor
            term = mpmath.binomial(v, i) * mpmath.rf(-i * a_mp - b_mp, u)
            total += term if i % 2 == 0 else -term
        total /= mpmath.factorial(v)
        if total == 0:
            return SignedLog.ZERO
        return SignedLog(1 if total > 0 else -1, float(mpmath.log(abs(total))))


@lru_cache(maxsize=8)
def stirling_central_exact(u_max: int):
    """Exact integer triangle of central signless Stirling numbers |s(u, v)|."""
    rows = [[1]]
    for u in range(u_max):
        prev = rows[-1]
        row = [0] * (u + 2)
        for v in range(u + 2):
            left = prev[v - 1] if 1 <= v <= u + 1 else 0
            up = prev[v] if v <= u else 0
            row[v] = left + u * up
        rows.append(row)
    return rows


_EXACT_STIRLING_MAX = 20


@lru_cache(maxsize=8)
def _stirling_central_log(u_max: int) -> np.ndarray:
    """log |s(u, v)| triangle; exact ints converted below u = 20, the same
    recurrence carried in log space beyond."""
    n = u_max + 1
    logs = np.full((n, n), -np.inf)
    exact = stirling_central_exact(min(u_max, _EXACT_STIRLING_MAX))
    for u, row in enumerate(exact):
        for v, val in enumerate(row):
            if val > 0:
                logs[u, v] = _log_big_int(val)
    for u in range(_EXACT_STIRLING_MAX, u_max):
        v = np.arange(1, u + 2)
        left = logs[u, v - 1]
        up = np.where(v <= u, logs[u, v], -np.inf)
        logs[u + 1, 1 : u + 2] = np.logaddexp(left, math.log(u) + up) if u > 0 else left
    return logs


def stirling_noncentral(u: int, v: int, b: float) -> SignedLog:
    """Non-central signless Stirling number |s(u, v; b)| for b >= 0, via

        |s(u, v; b)| = sum_{i=v}^{u} C(u, i) (b)_(u-i) |s(i, v)|;

    u is capped at U_MAX.
    """
    if u < 0 or v < 0:
        raise DomainError("u and v must be nonnegative")
    if u > U_MAX:
        raise SizeLimitError(f"u={u} exceeds u_max={U_MAX}")
    if b < 0:
        raise DomainError("non-central Stirling numbers require b >= 0")
    if v > u:
        return SignedLog.ZERO
    if u == 0:
        return SignedLog.ONE
    if v == 0 and b == 0:
        return SignedLog.ZERO
    central = _stirling_central_log(u)
    i = np.arange(v, u + 1)
    log_binom = gammaln(u + 1) - gammaln(i + 1) - gammaln(u - i + 1)
    if b == 0:
        log_rise = np.where(i == u, 0.0, -np.inf)
    else:
        log_rise = gammaln(b + u - i) - gammaln(b)
    terms = log_binom + log_rise + central[i, v]
    total = float(np.logaddexp.reduce(terms))
    if total == -np.inf:
        return SignedLog.ZERO
    return SignedLog(1, total)
