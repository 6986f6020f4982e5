"""Random-variate generation: seedable streams, the posterior and prior
predictive chains (the posterior one is a BetaBinomial number of prior
draws, so one exact thinning chain serves both), and the exact sampler
for the scaled Mittag-Leffler limit law, whose angle is drawn by rejection
under one Gaussian envelope in about one round at any q.

Streams are counter-based (Philox keyed by (seed, stream_id)), so a
replicate index maps to an independent stream in O(1); `split` numbers a
stream's children as in a heap, so distinct split paths give distinct
streams.  Each benchmark row has its own stream, so its draws do not
depend on the other rows.

Every sampler of variates takes a required `size`, an integer >= 0, and
returns a NumPy array of that many draws, also for size 1.
`sample_prior_partition` draws one partition and returns its
`SampleSummary`.  `draw_count()` counts every variate drawn; for the
thinning chain that is two uniforms per lane for each round it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv

from .errors import (
    DomainError,
    MethodUnavailableError,
    NumericalIntegrityError,
    SizeLimitError,
    check_count,
    check_positive,
)
from .model import Pmf, PYParams, SampleSummary

_CHUNK = 1 << 14

# Cumulative count of variates drawn through this module; lets tests assert
# that analytic code paths perform no random draws.
_draws = 0


def draw_count() -> int:
    return _draws


def _count(n: int) -> None:
    global _draws
    _draws += n


@dataclass(frozen=True)
class RngStream:
    """Deterministic random source identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        check_count(self.seed, 0, "seed")
        check_count(self.stream_id, 0, "stream_id")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def split(self, index: int) -> "RngStream":
        """Derive the stream for replicate/pair `index` under this seed; with
        index in [0, 1_000_003), every stream_id >= 1 has one parent and one
        index."""
        check_count(index, 0, "split index")
        if index >= 1_000_003:
            raise DomainError(f"split index must be an integer in [0, 1000003), got {index!r}")
        return RngStream(self.seed, self.stream_id * 1_000_003 + index + 1)


@dataclass(frozen=True)
class MLLimitParams:
    """Parameters of the scaled Mittag-Leffler approximation
    c * Beta(beta_a, beta_b) * S_{alpha, stable_q}."""

    alpha: float
    beta_a: float
    beta_b: float
    stable_q: float
    scale_c: float

    @classmethod
    def from_posterior(cls, params: PYParams, sample: SampleSummary, m: int) -> "MLLimitParams":
        a, t, n, j = params.alpha, params.theta, sample.n, sample.j
        if a == 0.0:
            raise MethodUnavailableError(
                "the Mittag-Leffler limit is degenerate for alpha = 0 "
                "(the posterior concentrates at theta on the log-m scale); "
                "use the exact or Gaussian method instead"
            )
        beta_a, stable_q = j + t / a, (t + n) / a
        if not (math.isfinite(beta_a) and math.isfinite(stable_q)):
            raise DomainError(
                f"theta/alpha overflows at theta = {t!r}, alpha = {a!r}: the "
                "Mittag-Leffler limit is unavailable"
            )
        # (t+n+m)^a - (t+n)^a without the cancellation at t + n >> m
        scale_c = (t + n) ** a * math.expm1(a * math.log1p(m / (t + n)))
        return cls(
            alpha=a,
            beta_a=beta_a,
            beta_b=n / a - j,
            stable_q=stable_q,
            scale_c=scale_c,
        )


def _as_batch(size) -> int:
    """The number of draws a sampler is asked for: an integer >= 0."""
    check_count(size, 0, "size")
    return int(size)


def _chain(gen, lengths, alpha: float, theta_total: float):
    """Run independent prior predictive chains side by side, lane l for
    lengths[l] draws (integers >= 0): with k species so far, draw i founds
    a new one with probability
    p(i, k) = (theta_total + alpha*k) / (theta_total + i).

    The chains are run by thinning (Lewis & Shedler, 1979).  From lane
    state (i, k), p falls as i grows until k changes, so every later draw
    has p(t, k) <= p_bar = p(i, k), which is at most 1 since k <= i.  A
    geometric gap with rate p_bar proposes the next candidate draw t, which
    founds a species with probability p(t, k) / p_bar; the lane then moves
    on to t + 1.  The number of rounds is about the number of events plus
    rejections, not the length, and each round moves every unfinished lane
    on by at least one draw.  Every round draws two uniforms per lane,
    finished or not, as it runs, so a lane's draws do not depend on the
    other lanes' lengths or progress."""
    # floats, so that no comparison with t or i casts an integer array
    lengths = np.asarray(lengths, dtype=float)
    k, i = np.zeros((2, lengths.size))
    while (i < lengths).any():
        u1, u2 = gen.random((2, lengths.size))
        _count(2 * lengths.size)
        c = theta_total + alpha * k
        p_bar = c / (theta_total + i)
        # the gap is 0 at p_bar = 1, as log1p(-u1) is finite on [0, 1)
        with np.errstate(divide="ignore"):
            t = i + np.floor(np.log1p(-u1) / np.log1p(-p_bar))
        k += (t < lengths) & (u2 * p_bar < c / (theta_total + t))
        i = np.minimum(t + 1.0, lengths)
    return k.astype(np.int64)


def sample_k_future(params: PYParams, sample: SampleSummary, m: int, rng: RngStream, size):
    """Numbers of new species among m posterior-predictive draws, `size`
    independent replicates from the single stream.  Given (n, j) the count
    has the law of the prior chain's species count K*_R with theta' =
    theta + alpha*j, where R ~ BetaBinomial(m; theta + alpha*j, n - alpha*j)
    (Pitman, 1996), the law `posterior_pmfs` mixes.  So each replicate
    draws R, then runs R prior-chain draws in the thinning chain `_chain`,
    at a cost that grows with the number of new species and rejected
    candidates rather than with m.  m is capped at 2**63 - 1, the largest
    count numpy's binomial draws."""
    check_count(m)
    if m > np.iinfo(np.int64).max:
        raise SizeLimitError(f"m={m} exceeds 2**63 - 1, the largest count of a binomial draw")
    count = _as_batch(size)
    if m == 0:
        return np.zeros(count, dtype=np.int64)
    gen = rng.generator()
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    lengths = gen.binomial(m, gen.beta(t + a * j, n - a * j, size=count))
    _count(2 * count)
    return _chain(gen, lengths, a, t + a * j)


def sample_from_pmf(pmf: Pmf, rng: RngStream, size):
    """Draws from a pmf on {0, ..., support_max} by inverse CDF, one
    uniform per draw: the smallest k with Pr[K <= k] > u, from numpy's
    weighted `choice`, which divides the cdf by its last entry.  Entries of
    probability 0 are never drawn."""
    count = _as_batch(size)
    _count(count)
    return rng.generator().choice(pmf.probs.size, size=count, p=pmf.probs)


def _pmf_order_statistics(pmf: Pmf, rng: RngStream, size: int, ranks) -> list[int]:
    """The draws at the 1-based `ranks` of `size` draws of `sample_from_pmf`,
    its bits without its other draws: the same `size` uniforms, of which
    only those at `ranks` are inverted on the same normalised cdf.  The
    inverse cdf is nondecreasing, so the uniform at a rank maps to the draw
    at that rank.  Counts `size` draws."""
    count = _as_batch(size)
    _count(count)
    u = rng.generator().random(count)
    u = np.partition(u, [r - 1 for r in ranks])
    cdf = pmf.probs.cumsum()
    cdf /= cdf[-1]
    return [int(cdf.searchsorted(u[r - 1], side="right")) for r in ranks]


def sample_prior_kstar(alpha: float, theta_total: float, m: int, rng: RngStream, size):
    """Species count among m draws of the prior predictive chain started
    from an empty sample (the first draw always founds a species)."""
    PYParams(alpha, theta_total)  # the Pitman-Yor domain
    # the chain divides by theta_total at its first draw
    check_positive(theta_total, "theta_total")
    check_count(m, 1)
    count = _as_batch(size)
    return _chain(rng.generator(), np.full(count, m), alpha, theta_total)


def _neg_log_sinc(y: np.ndarray) -> np.ndarray:
    """-log(sin(y)/y) on [0, pi); below y = 0.1 its Taylor series
    sum_k zeta(2k)/(k*pi^(2k)) * y^(2k), five terms, keeps relative accuracy."""
    y2 = y * y
    out = y2 * (1 / 6 + y2 * (1 / 180 + y2 * (1 / 2835 + y2 * (1 / 37800 + y2 / 467775))))
    far = y >= 0.1
    y = y[far]
    out[far] = -np.log(np.sin(y) / y)
    return out


def _log_zolotarev_excess(u: np.ndarray, alpha: float) -> np.ndarray:
    """g(u) = log A(pi*u) - log A(0) on [0, 1), A the Zolotarev function,
    from -log(sin(y)/y) terms so that g keeps its relative accuracy at 0."""
    x, h = np.pi * u, _neg_log_sinc
    return (h(x) - alpha * h(alpha * x) - (1.0 - alpha) * h((1.0 - alpha) * x)) / (1.0 - alpha)


# Rejection rounds after which the angle sampler reports a bug; the Gaussian
# envelope accepts more than 0.85 of proposals at every (alpha, q), so the
# chance of reaching it is nil.
_ML_MAX_ROUNDS = 1000


def sample_mittag_leffler(alpha: float, q: float, rng: RngStream, size):
    """Exact draws of the generalized Mittag-Leffler law S_{alpha, q}.

    Uses the Zolotarev integral representation of the polynomially tilted
    positive stable density: conditionally on an angle U with density
    proportional to A(pi*U)^(-b), b = (1-alpha)*q, the variable
    G ~ Gamma(b+1, rate=A(pi*U)) satisfies S = G^(1-alpha) exactly.  The
    angle density is proportional to exp(-b*g(U)), g = log A(pi*U) - log A(0),
    whose Taylor coefficients in u are all >= 0, the first being
    pi^2*alpha/2.  So the Gaussian exp(-(s*u)^2), s^2 = b*pi^2*alpha/2, is
    an envelope with the same peak at u = 0.  A proposal is that Gaussian
    truncated to [0, 1), drawn by inverting its cdf erf(s*u)/erf(s), and it
    is kept with probability exp((s*U)^2 - b*g(U)): one round, nearly
    always, at every q.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly in (0, 1)")
    check_positive(q, "q")
    count = _as_batch(size)
    gen = rng.generator()
    b = (1.0 - alpha) * q
    s = math.pi * math.sqrt(alpha * b / 2.0)
    # g at the kept angles, from the evaluation that accepted them
    excess = np.empty(count)
    filled = 0
    rounds = 0
    while filled < count:
        rounds += 1
        if rounds > _ML_MAX_ROUNDS:
            raise NumericalIntegrityError(
                f"Mittag-Leffler angle rejection did not converge in {_ML_MAX_ROUNDS} "
                f"rounds (alpha={alpha}, q={q}); this indicates an implementation bug"
            )
        todo = count - filled
        k = max(todo, min(2 * todo, _CHUNK))
        v = gen.random(2 * k)
        _count(2 * k)
        # s underflows to 0 only where the envelope is flat to rounding
        u = erfinv(v[:k] * math.erf(s)) / s if s > 0.0 else v[:k]
        g = _log_zolotarev_excess(u, alpha)
        take = g[np.log(v[k:]) <= (s * u) ** 2 - b * g][:todo]
        excess[filled : filled + take.size] = take
        filled += take.size
    gam = gen.gamma(b + 1.0, size=count)
    _count(count)
    log_a0 = (alpha * math.log(alpha) + (1.0 - alpha) * math.log1p(-alpha)) / (1.0 - alpha)
    return np.exp((1.0 - alpha) * (np.log(gam) - log_a0 - excess))


def sample_ml_limit(params: PYParams, sample: SampleSummary, m: int, rng: RngStream, size):
    """Draws of the scaled Mittag-Leffler approximation to the posterior:
    c(m) * Beta(j + theta/alpha, n/alpha - j) * S_{alpha, (theta+n)/alpha}."""
    check_count(m)
    ml = MLLimitParams.from_posterior(params, sample, m)
    count = _as_batch(size)
    if ml.scale_c == 0.0:
        return np.zeros(count)
    # beta_a = j + theta/alpha > 0 and beta_b = n/alpha - j > 0, as theta > -alpha and n >= j
    beta = rng.split(0).generator().beta(ml.beta_a, ml.beta_b, size=count)
    _count(count)
    s = sample_mittag_leffler(ml.alpha, ml.stable_q, rng.split(1), size=count)
    return ml.scale_c * beta * s


def sample_prior_partition(alpha: float, theta: float, n: int, rng: RngStream) -> SampleSummary:
    """A full random partition (frequencies included) of n draws from the
    prior predictive chain; used for synthetic empirical-Bayes fixtures.

    Existing-species picks use the uniform-past-draw proposal with
    acceptance 1 - alpha/count, which is O(1) per draw.
    """
    PYParams(alpha, theta)  # the Pitman-Yor domain
    check_count(n, 1, "n")
    gen = rng.generator()
    labels = np.empty(n, dtype=np.int64)
    counts = [1]
    labels[0] = 0
    draws_used = 1
    for i in range(1, n):
        j = len(counts)
        draws_used += 1
        if gen.random() < (theta + alpha * j) / (theta + i):
            labels[i] = j
            counts.append(1)
            continue
        while True:
            draws_used += 2
            pick = labels[int(gen.integers(i))]
            if alpha == 0.0 or gen.random() >= alpha / counts[pick]:
                counts[pick] += 1
                labels[i] = pick
                break
    _count(draws_used)
    return SampleSummary.from_freqs(counts)
