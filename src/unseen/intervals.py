"""Credible-interval assembly for the three families, and the coverage
metric used to compare an approximate interval against the exact one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, check_count
from .model import Pmf, PYParams, SampleSummary, posterior_pmfs
from .samplers import RngStream, sample_from_pmf, sample_k_future, sample_ml_limit

_METHODS = ("exact_mc", "mittag_leffler", "gaussian")

# Bounds on the Monte Carlo replicates of one interval; at the top, the
# draws and their sorted copy take a few hundred MB.
_MIN_MC_SAMPLES = 100
_MAX_MC_SAMPLES = 10_000_000


@dataclass(frozen=True)
class CredibleInterval:
    """An equal-tailed credible interval; endpoints are stored unrounded."""

    lo: float
    hi: float
    level: float
    method: str
    mc_samples: int | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown method {self.method!r}, expected one of {_METHODS}")
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must lie in (0, 1)")
        if self.lo > self.hi:
            raise DomainError(f"interval endpoints out of order: ({self.lo}, {self.hi})")
        if (self.mc_samples is None) != (self.method == "gaussian"):
            raise DomainError("mc_samples must be present exactly when the method is Monte Carlo")


def _equal_tailed(draws: np.ndarray, level: float) -> tuple[float, float]:
    """Equal-tailed interval from order statistics at ceiling ranks (no
    interpolation, so endpoints are realizable sample values).  The tail
    mass is formed exactly from the level's decimal form: in floats
    1 - 0.95 = 0.05000000000000004, which would put the lower endpoint of
    2000 draws at rank 51 rather than 50."""
    r = draws.size
    half_delta = (1 - Fraction(str(level))) / 2
    draws = np.sort(draws)
    lo_rank = max(math.ceil(r * half_delta), 1)
    hi_rank = min(math.ceil(r * (1 - half_delta)), r)
    return float(draws[lo_rank - 1]), float(draws[hi_rank - 1])


def _mc_interval(draws: np.ndarray, m: int, level: float, method: str) -> CredibleInterval:
    """Equal-tailed interval of `draws` with both endpoints clamped into
    [0, m], the support of the count it approximates; rounding can put
    every draw a few ulps above m."""
    lo, hi = (min(max(x, 0.0), float(m)) for x in _equal_tailed(draws.astype(float), level))
    return CredibleInterval(lo, hi, level, method, mc_samples=draws.size)


def _check_mc_args(samples: int, level: float) -> None:
    check_count(samples, 0, "samples")
    if samples < _MIN_MC_SAMPLES:
        raise DomainError(f"need at least {_MIN_MC_SAMPLES} Monte Carlo samples")
    if samples > _MAX_MC_SAMPLES:
        raise DomainError(f"at most {_MAX_MC_SAMPLES} Monte Carlo samples, got {samples}")
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")


def exact_interval(
    params: PYParams,
    sample: SampleSummary,
    m: int,
    level: float = 0.95,
    samples: int = 2000,
    rng: RngStream | None = None,
    pmf: Pmf | None = None,
) -> CredibleInterval:
    """Monte Carlo interval from the exact posterior over `samples`
    replicates.  The replicates are drawn by inverse CDF from the exact
    posterior pmf at m: `pmf` when given (for instance from
    `posterior_pmfs` over a grid, one pass for many m), else
    `posterior_pmfs` at m alone, which gives the same pmf.  Where
    `posterior_pmfs`, the one place that picks the route, gives no pmf,
    each replicate runs the thinning chain (`sample_k_future`) instead.
    Both routes use the law of K given (n, j): the prior chain's species
    count after R ~ BetaBinomial(m; theta + alpha*j, n - alpha*j) draws.
    The pass mixes the prior chain's pmfs over R; the chain draws its own
    R per replicate and runs R prior-chain draws.  The pmf draws have the
    chain's law up to the mass the pmf pass drops: the band entries below
    1e-30 and the weights of R below 1e-30.  `samples` lies in [100,
    10**7]."""
    check_count(m)
    _check_mc_args(samples, level)
    if pmf is not None and pmf.support_max != m:
        raise DomainError(f"pmf has support_max={pmf.support_max}, expected m={m}")
    if rng is None:
        rng = RngStream(0)
    if m == 0:
        return CredibleInterval(0.0, 0.0, level, "exact_mc", mc_samples=samples)
    if pmf is None:
        pmf = posterior_pmfs(params, sample, [m]).get(m)
    if pmf is None:
        draws = sample_k_future(params, sample, m, rng, size=samples)
    else:
        draws = sample_from_pmf(pmf, rng, size=samples)
    return _mc_interval(draws, m, level, "exact_mc")


def ml_interval(
    params: PYParams,
    sample: SampleSummary,
    m: int,
    level: float = 0.95,
    samples: int = 2000,
    rng: RngStream | None = None,
) -> CredibleInterval:
    """Monte Carlo interval from the scaled Mittag-Leffler limit law
    (alpha > 0 only)."""
    _check_mc_args(samples, level)
    if rng is None:
        rng = RngStream(0)
    return _mc_interval(sample_ml_limit(params, sample, m, rng, size=samples), m, level,
                        "mittag_leffler")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def coverage(approx: CredibleInterval, exact: CredibleInterval) -> float:
    """Percentage of the integer-rounded exact interval's length covered by
    the integer-rounded approximate interval."""
    if abs(approx.level - exact.level) > 1e-12:
        raise DomainError("intervals must share the same credibility level")
    a_lo, a_hi = _round_half_up(approx.lo), _round_half_up(approx.hi)
    e_lo, e_hi = _round_half_up(exact.lo), _round_half_up(exact.hi)
    if e_hi == e_lo:
        return 100.0 if a_lo <= e_lo <= a_hi else 0.0
    inter = min(a_hi, e_hi) - max(a_lo, e_lo)
    return 100.0 * max(inter, 0) / (e_hi - e_lo)
