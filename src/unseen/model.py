"""Pitman-Yor posterior quantities for the unseen-species count.

Given a sample of n observations containing j distinct species, the
posterior law of the number of new species among m further draws depends
on the data only through (n, j).  Two independent evaluations of that law
are provided: a banded forward recursion over the predictive chain
(production path) and the closed form in terms of generalized factorial
coefficients (small-m validation path).  The recursion keeps only the band
of counts whose probability is at least `_DP_FLOOR`, so it costs
O(m * band) rather than O(m^2); the mass it drops is at most
(2m + 2) * _DP_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gammaln

from .combinatorics import U_MAX, GfcTable, log_rising_factorial, stirling_noncentral
from .errors import DomainError, NumericalIntegrityError, SizeLimitError

# Largest m of the pmf recursion.
DP_MAX = 20000

# Edge entries of the DP band below this are set to 0 and leave the band.
# Trimming exact zeros alone would not narrow it: the smallest denormal
# times (1 - p) > 0.5 rounds back to itself.
_DP_FLOOR = 1e-300

_NEG_CLAMP = -1e-12


@dataclass(frozen=True)
class PYParams:
    """Pitman-Yor parameter pair; alpha = 0 is the Dirichlet prior."""

    alpha: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < 1.0):
            raise DomainError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta}")
        if not self.theta > -self.alpha:
            raise DomainError(
                f"theta must exceed -alpha, got theta={self.theta}, alpha={self.alpha}"
            )

    @property
    def is_dirichlet(self) -> bool:
        return self.alpha == 0.0


@dataclass(frozen=True)
class SampleSummary:
    """Observed sample: size n and distinct species j, which are all that
    the posterior depends on, plus the species frequencies when they are
    known (only the empirical-Bayes fit and the export need them)."""

    n: int
    j: int
    freqs: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.n < 1 or self.j < 1 or self.j > self.n:
            raise DomainError(f"need 1 <= j <= n, got n={self.n}, j={self.j}")
        if self.freqs is None:
            return
        freqs = tuple(int(f) for f in self.freqs)
        object.__setattr__(self, "freqs", freqs)
        if len(freqs) != self.j:
            raise DomainError(f"freqs has {len(freqs)} entries, expected j={self.j}")
        if any(f < 1 for f in freqs):
            raise DomainError("all frequencies must be >= 1")
        if sum(freqs) != self.n:
            raise DomainError(f"frequencies sum to {sum(freqs)}, expected n={self.n}")

    @classmethod
    def from_freqs(cls, freqs) -> "SampleSummary":
        freqs = tuple(sorted((int(f) for f in freqs), reverse=True))
        return cls(n=sum(freqs), j=len(freqs), freqs=freqs)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function on {0, ..., support_max}."""

    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(probs)):
            raise NumericalIntegrityError("pmf has non-finite entries")
        if np.any(probs < 0):
            raise DomainError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise NumericalIntegrityError(
                f"pmf sums to {probs.sum():.15f}, expected 1 within 1e-10"
            )

    @property
    def support_max(self) -> int:
        return self.probs.size - 1

    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    def variance(self) -> float:
        k = np.arange(self.probs.size)
        mu = self.mean()
        return float(((k - mu) ** 2) @ self.probs)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def quantile(self, p: float) -> int:
        """Smallest k with Pr[K <= k] >= p."""
        if not 0.0 < p <= 1.0:
            raise DomainError("quantile level must lie in (0, 1]")
        return int(np.searchsorted(self.cdf(), p))


def predictive_new_prob(
    params: PYParams, n_current: int, k_current: int, offset: int = 0
) -> float:
    """Probability that the next draw founds a new species:
    (theta + alpha * k) / (theta + n + offset)."""
    denom = params.theta + n_current + offset
    if denom <= 0:
        raise DomainError(f"predictive denominator must be positive, got {denom}")
    p = (params.theta + params.alpha * k_current) / denom
    return min(max(p, 0.0), 1.0)


def posterior_mean(params: PYParams, sample: SampleSummary, m: int) -> float:
    """Posterior expected number of new species in m additional draws."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m == 0:
        return 0.0
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    if a == 0.0:
        return float(t * (digamma(t + n + m) - digamma(t + n)))
    log_ratio = log_rising_factorial(t + n + a, m) - log_rising_factorial(t + n, m)
    return float((j + t / a) * np.expm1(log_ratio))


def _dp_steps(alpha: float, theta: float, n: int, j: int, m: int):
    """Forward recursion of the new-species count over m predictive draws.

    Yields the unnormalised pmf buffer (length m + 1, updated in place)
    after 0, 1, ..., m draws.  Each draw updates only the live band
    [lo, hi); afterwards band entries at either edge below `_DP_FLOOR` are
    set to 0 and dropped, so every entry outside the band is 0.
    """
    probs = np.zeros(m + 1)
    probs[0] = 1.0
    k = np.arange(m + 1, dtype=float)
    p_new_numer = np.clip(theta + alpha * (j + k), 0.0, None)
    lo, hi = 0, 1
    yield probs
    for i in range(m):
        hi = min(hi + 1, m + 1)
        band = probs[lo:hi]
        p = p_new_numer[lo:hi] / (theta + n + i)
        np.clip(p, 0.0, 1.0, out=p)
        move = band * p
        band *= 1.0 - p
        band[1:] += move[:-1]
        while probs[lo] < _DP_FLOOR:
            probs[lo] = 0.0
            lo += 1
        while probs[hi - 1] < _DP_FLOOR:
            probs[hi - 1] = 0.0
            hi -= 1
        yield probs


def posterior_pmf_dp(params: PYParams, sample: SampleSummary, m: int) -> Pmf:
    """Exact posterior pmf of the new-species count by forward recursion
    over the predictive chain; O(m * band) time, O(m) memory, m capped at
    DP_MAX.  Entries below `_DP_FLOOR` at the edges of the band are dropped
    (set to 0), a total mass of at most (2m + 2) * _DP_FLOOR."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m > DP_MAX:
        raise SizeLimitError(f"m={m} exceeds dp_max={DP_MAX}")
    for probs in _dp_steps(params.alpha, params.theta, sample.n, sample.j, m):
        pass
    return Pmf(probs / probs.sum())


def _closed_log_weights_py(params: PYParams, sample: SampleSummary, m: int):
    """Unnormalized signed log weights of the closed-form pmf, alpha > 0."""
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    table = GfcTable(m, a, -n + j * a)
    signs, logs = table.log_row(m)
    base = j + t / a
    k = np.arange(m + 1)
    if base <= 0:
        # theta + j*alpha = 0: rising factorial vanishes for k >= 1
        lr = np.where(k == 0, 0.0, -np.inf)
    else:
        lr = gammaln(base + k) - gammaln(base)
    return signs, lr + logs


def posterior_pmf_closed(params: PYParams, sample: SampleSummary, m: int) -> Pmf:
    """Posterior pmf from the closed form: generalized factorial
    coefficients for alpha > 0, non-central Stirling numbers at alpha = 0;
    m capped at U_MAX."""
    if m < 0:
        raise DomainError("m must be >= 0")
    if m > U_MAX:
        raise SizeLimitError(f"m={m} exceeds u_max={U_MAX}")
    if m == 0:
        return Pmf(np.ones(1))
    a, t, n = params.alpha, params.theta, sample.n
    if a == 0.0:
        k = np.arange(m + 1)
        log_s = np.array(
            [
                v.log_abs if v.sign > 0 else -np.inf
                for v in (stirling_noncentral(m, int(kk), float(n)) for kk in k)
            ]
        )
        log_w = k * np.log(t) + log_s
        signs = np.ones(m + 1, dtype=np.int8)
    else:
        signs, log_w = _closed_log_weights_py(params, sample, m)
    log_norm = log_rising_factorial(t + n, m)
    with np.errstate(over="ignore"):
        probs = np.where(signs == 0, 0.0, signs * np.exp(log_w - log_norm))
    if np.any(probs < _NEG_CLAMP):
        raise NumericalIntegrityError(
            f"closed-form pmf produced probability {probs.min():.3e} < {_NEG_CLAMP}"
        )
    probs = np.clip(probs, 0.0, None)
    with np.errstate(over="ignore"):
        total = probs.sum()
    if not np.isfinite(total):
        raise NumericalIntegrityError("closed-form pmf weights overflow double precision")
    return Pmf(probs / total)
