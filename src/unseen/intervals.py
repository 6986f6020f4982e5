"""Credible-interval assembly for the three families, and the coverage
metric used to compare an approximate interval against the exact one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, check_count
from .model import Pmf, PYParams, SampleSummary, posterior_pmfs
from .samplers import RngStream, _pmf_order_statistics, sample_k_future, sample_ml_limit

_METHODS = ("exact_mc", "mittag_leffler", "gaussian")

# Bounds on the Monte Carlo replicates of one interval; at the top, the
# draws and their partitioned copy take a few hundred MB.
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


def _tail_ranks(r: int, level: float) -> tuple[int, int]:
    """1-based ranks of the equal-tailed endpoints among r draws, at the
    ceiling (no interpolation, so endpoints are realizable sample values).
    The tail mass is formed exactly from the level's decimal form: in
    floats 1 - 0.95 = 0.05000000000000004, which would put the lower
    endpoint of 2000 draws at rank 51 rather than 50."""
    half_delta = (1 - Fraction(str(level))) / 2
    return max(math.ceil(r * half_delta), 1), min(math.ceil(r * (1 - half_delta)), r)


def _equal_tailed(draws: np.ndarray, level: float) -> tuple[float, float]:
    """Equal-tailed interval of `draws`: its order statistics at
    `_tail_ranks`, found by a partition rather than a sort."""
    lo_rank, hi_rank = _tail_ranks(draws.size, level)
    draws = np.partition(draws, (lo_rank - 1, hi_rank - 1))
    return float(draws[lo_rank - 1]), float(draws[hi_rank - 1])


def _mc_interval(lo: float, hi: float, m: int, level: float, method: str,
                 samples: int) -> CredibleInterval:
    """Interval (lo, hi) of `samples` draws with both endpoints clamped into
    [0, m], the support of the count it approximates; rounding can put
    every draw a few ulps above m."""
    lo, hi = (min(max(float(x), 0.0), float(m)) for x in (lo, hi))
    return CredibleInterval(lo, hi, level, method, mc_samples=int(samples))


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
    `posterior_pmfs` at m alone, which gives the same pmf.  Of those draws
    only the two at the endpoints' ranks are formed
    (`samplers._pmf_order_statistics`); the interval is the one the full
    set of `sample_from_pmf` draws gives.  Where `posterior_pmfs`, the one
    place that picks the route, gives no pmf, each replicate runs the
    thinning chain (`sample_k_future`) instead.  Both routes use the law
    of K given (n, j); the pmf draws have the chain's law up to the mass
    the pmf pass drops below 1e-30.  `samples` lies in [100, 10**7]."""
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
        lo, hi = _equal_tailed(draws.astype(float), level)
    else:
        lo, hi = _pmf_order_statistics(pmf, rng, samples, _tail_ranks(samples, level))
    return _mc_interval(lo, hi, m, level, "exact_mc", samples)


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
    draws = sample_ml_limit(params, sample, m, rng, size=samples)
    return _mc_interval(*_equal_tailed(draws, level), m, level, "mittag_leffler", samples)


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
