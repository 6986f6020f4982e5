"""Random-variate generation: seedable streams, posterior and prior
predictive chains, Beta draws, and the exact sampler for the scaled
Mittag-Leffler limit law.

Streams are counter-based (Philox keyed by (seed, stream_id)), so a
replicate index maps to an independent stream in O(1).  Each benchmark
row has its own stream, so its draws do not depend on the other rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MethodUnavailableError, NumericalIntegrityError
from .model import Pmf, PYParams, SampleSummary, _check_draw_count, posterior_mean

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
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise DomainError(f"seed must be an integer >= 0, got {self.seed!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(ss))

    def split(self, index: int) -> "RngStream":
        """Derive the stream for replicate/pair `index` under this seed."""
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
        # (t+n+m)^a - (t+n)^a without the cancellation at t + n >> m
        scale_c = (t + n) ** a * math.expm1(a * math.log1p(m / (t + n)))
        return cls(
            alpha=a,
            beta_a=j + t / a,
            beta_b=n / a - j,
            stable_q=(t + n) / a,
            scale_c=scale_c,
        )


def _as_batch(size):
    return (1, True) if size is None else (int(size), False)


def _bernoulli_chain(gen, count: int, m: int, numer0: float, alpha: float, denom0: float):
    """Run `count` lockstep chains for m steps: success prob at step i is
    (numer0 + alpha*k) / (denom0 + i).  Uniforms are drawn in step-major
    blocks to amortize generator-call overhead."""
    k = np.zeros(count, dtype=np.float64)
    block = max(1, 2_000_000 // max(count, 1))  # ~16 MB of buffered uniforms
    i = 0
    while i < m:
        steps = min(block, m - i)
        u = gen.random((steps, count))
        _count(steps * count)
        for s in range(steps):
            p = (numer0 + alpha * k) / (denom0 + i + s)
            k += u[s] < p
        i += steps
    return k.astype(np.int64)


# The event-jump path evaluates the survival function by Stirling series,
# exact to double rounding only while n - alpha*j stays well above zero.
_JUMP_MIN_MARGIN = 300.0
# Above this expected event rate E[K]/m, Bernoulli steps are cheaper than
# jumps.  Measured on a 2-vCPU Xeon VM at 2000 lanes: one Bernoulli step
# costs 17-20 ns per lane, one jump event 500-570 ns per lane, so the two
# paths break even at a rate of ~0.03-0.04.
_JUMP_MAX_RATE = 0.03


def _log_gamma_ratio(z, c):
    """log Gamma(z - c) - log Gamma(z) by the Stirling series; exact to
    double rounding for z - c >= ~300 (enforced by the caller)."""
    zc = z - c
    out = (zc - 0.5) * np.log(zc) - (z - 0.5) * np.log(z) + c
    out += (1.0 / zc - 1.0 / z) / 12.0
    out -= (zc ** -3.0 - z ** -3.0) / 360.0
    out += (zc ** -5.0 - z ** -5.0) / 1260.0
    return out


def _k_future_jump(params: PYParams, sample: SampleSummary, m: int, gen, count: int):
    """Waiting-time simulation of the predictive chain: instead of one
    Bernoulli per step, draw the number of failures before the next new
    species from its exact survival function

        S(s) = (D - c)_(s) / (D)_(s),   c = theta + alpha*K,  D = theta + n + i,

    one uniform per founding event.  Distributionally identical to the
    step-by-step chain, at a cost proportional to the number of events
    rather than to m; requires n - alpha*j well above zero, where the
    Stirling evaluation of the survival function is exact.

    Only lanes that still have a founding event ahead are carried through
    the solve; a finished lane writes its K once.  Each round still draws
    `count` uniforms and uses those of the live lanes, so a lane's draws
    do not depend on which other lanes are still live."""
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    d0 = t + n
    out = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    k = np.zeros(count)
    i = np.zeros(count)
    guard = 0
    while live.size:
        guard += 1
        if guard > m + 2:
            raise NumericalIntegrityError("waiting-time chain failed to terminate")
        u = gen.random(count)
        _count(count)
        log_u = np.log(u[live])
        c = t + a * (j + k)
        d = d0 + i
        r = m - i
        # no further species if the survival at the remaining horizon wins
        h0 = _log_gamma_ratio(d, c)
        hit = _log_gamma_ratio(d + r, c) - h0 < log_u
        if not hit.all():
            out[live[~hit]] = k[~hit]
            live, k, i, log_u, c, d, r, h0 = (
                x[hit] for x in (live, k, i, log_u, c, d, r, h0)
            )
            if not live.size:
                break
        # Newton solve G(s) = log u, G(s) = h(d+s) - h(d), then snap to the
        # largest integer with S(t) >= u
        with np.errstate(over="ignore", invalid="ignore"):
            s = d * np.expm1(-log_u / np.maximum(c, 1e-300))
        s = np.clip(np.where(np.isfinite(s), s, r), 0.0, r)
        for _ in range(24):
            g = _log_gamma_ratio(d + s, c) - h0 - log_u
            dg = np.log1p(-c / (d + s))
            step = g / dg
            s = np.clip(s - step, 0.0, r)
            if np.max(np.abs(step)) < 0.25:
                break
        tt = np.floor(s)
        # S(tt) >= u must hold; walk down while it fails, up while S(tt+1) >= u
        for _ in range(64):
            bad = _log_gamma_ratio(d + tt, c) - h0 < log_u
            if not np.any(bad):
                break
            tt = np.where(bad, tt - 1.0, tt)
        for _ in range(64):
            more = (tt + 1.0 <= r - 1.0) & (_log_gamma_ratio(d + tt + 1.0, c) - h0 >= log_u)
            if not np.any(more):
                break
            tt = np.where(more, tt + 1.0, tt)
        tt = np.clip(tt, 0.0, r - 1.0)
        k = k + 1.0
        i = i + tt + 1.0
    return out


def sample_k_future(params: PYParams, sample: SampleSummary, m: int, rng: RngStream, size=None):
    """Number of new species among m posterior-predictive draws, simulated
    as m sequential Bernoulli steps with success prob (theta + alpha*K) /
    (theta + n + i).  With size given, that many independent replicates are
    run in lockstep from the single stream.

    Both paths are exact; the choice affects speed only.  The chain is run
    by exact waiting times between founding events when that is cheaper and
    exact: the expected event rate posterior_mean(m) / m is at most
    _JUMP_MAX_RATE, and n - alpha*j >= _JUMP_MIN_MARGIN.  Otherwise it takes
    one Bernoulli step per draw."""
    _check_draw_count(m)
    count, scalar = _as_batch(size)
    gen = rng.generator()
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    if (m > 0 and n - a * j >= _JUMP_MIN_MARGIN
            and posterior_mean(params, sample, m) <= _JUMP_MAX_RATE * m):
        k = _k_future_jump(params, sample, m, gen, count)
    else:
        k = _bernoulli_chain(gen, count, m, t + a * j, a, t + n)
    return int(k[0]) if scalar else k


def sample_from_pmf(pmf: Pmf, rng: RngStream, size=None):
    """Draws from a pmf on {0, ..., support_max} by inverse CDF, one
    uniform per draw: the smallest k with Pr[K <= k] > u.  Entries of
    probability 0 are never drawn."""
    count, scalar = _as_batch(size)
    cdf = pmf.cdf()
    u = rng.generator().random(count)
    _count(count)
    k = np.searchsorted(cdf / cdf[-1], u, side="right")
    return int(k[0]) if scalar else k


def sample_prior_kstar(alpha: float, theta_total: float, m: int, rng: RngStream, size=None):
    """Species count among m draws of the prior predictive chain started
    from an empty sample (the first draw always founds a species)."""
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    if theta_total <= 0:
        raise DomainError("theta_total must be positive")
    _check_draw_count(m, 1)
    count, scalar = _as_batch(size)
    gen = rng.generator()
    k = _bernoulli_chain(gen, count, m, theta_total, alpha, theta_total)
    return int(k[0]) if scalar else k


def sample_beta(a: float, b: float, rng: RngStream, size=None):
    """Beta(a, b) variates."""
    if a <= 0 or b <= 0:
        raise DomainError(f"Beta parameters must be positive, got ({a}, {b})")
    count, scalar = _as_batch(size)
    out = rng.generator().beta(a, b, size=count)
    _count(count)
    return float(out[0]) if scalar else out


def _log_zolotarev(u: np.ndarray, alpha: float) -> np.ndarray:
    """log A(pi*u) for u in (0, 1), A the Zolotarev function."""
    x = np.pi * u
    return (
        alpha * np.log(np.sin(alpha * x))
        + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * x))
        - np.log(np.sin(x))
    ) / (1.0 - alpha)


def _log_zolotarev_at_zero(alpha: float) -> float:
    return (alpha * math.log(alpha) + (1.0 - alpha) * math.log1p(-alpha)) / (1.0 - alpha)


# Rejection rounds after which the angle sampler reports a bug; with an
# acceptance rate above ~1/4 the chance of reaching it is nil.
_ML_MAX_ROUNDS = 1000


def sample_mittag_leffler(alpha: float, q: float, rng: RngStream, size=None):
    """Exact draws of the generalized Mittag-Leffler law S_{alpha, q}.

    Uses the Zolotarev integral representation of the polynomially tilted
    positive stable density: conditionally on an angle U with density
    proportional to A(pi*U)^(-b), b = (1-alpha)*q, the variable
    G ~ Gamma(b+1, rate=A(pi*U)) satisfies S = G^(1-alpha) exactly.  The
    angle is drawn by rejection under a two-piece envelope (flat head,
    flat tail bounded through the monotonicity of A), which keeps the
    acceptance rate above ~1/4 uniformly in q.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly in (0, 1)")
    if q <= 0:
        raise DomainError("q must be positive")
    count, scalar = _as_batch(size)
    gen = rng.generator()
    b = (1.0 - alpha) * q
    la0 = _log_zolotarev_at_zero(alpha)
    # curvature scale of the angle density near 0: sd ~ 1/(pi*sqrt(alpha*b))
    u_knee = min(3.0 / (math.pi * math.sqrt(alpha * max(b, 1e-12))), 1.0) if b > 0 else 1.0
    if u_knee < 1.0:
        g_knee = float(_log_zolotarev(np.array([u_knee]), alpha)[0]) - la0
        try:
            w_tail = (1.0 - u_knee) * math.exp(-b * g_knee)
        except OverflowError:
            raise NumericalIntegrityError(
                f"Mittag-Leffler angle envelope overflows (alpha={alpha}, q={q})"
            ) from None
        w_head = u_knee
    else:
        g_knee, w_head, w_tail = 0.0, 1.0, 0.0
    p_tail = w_tail / (w_head + w_tail)

    angles = np.empty(count)
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
        u01 = gen.random(3 * k)
        _count(3 * k)
        in_tail = u01[:k] < p_tail
        u = np.where(
            in_tail,
            u_knee + (1.0 - u_knee) * u01[k : 2 * k],
            u_knee * u01[k : 2 * k],
        )
        g = _log_zolotarev(u, alpha) - la0
        log_accept = -b * np.where(in_tail, g - g_knee, g)
        ok = np.log(u01[2 * k :]) <= log_accept
        take = u[ok][:todo]
        angles[filled : filled + take.size] = take
        filled += take.size
    gam = gen.gamma(b + 1.0, size=count)
    _count(count)
    s = (gam / np.exp(_log_zolotarev(angles, alpha))) ** (1.0 - alpha)
    return float(s[0]) if scalar else s


def sample_ml_limit(params: PYParams, sample: SampleSummary, m: int, rng: RngStream, size=None):
    """Draws of the scaled Mittag-Leffler approximation to the posterior:
    c(m) * Beta(j + theta/alpha, n/alpha - j) * S_{alpha, (theta+n)/alpha}."""
    _check_draw_count(m)
    ml = MLLimitParams.from_posterior(params, sample, m)
    count, scalar = _as_batch(size)
    if ml.scale_c == 0.0:
        out = np.zeros(count)
        return float(out[0]) if scalar else out
    beta = sample_beta(ml.beta_a, ml.beta_b, rng.split(0), size=count)
    s = sample_mittag_leffler(ml.alpha, ml.stable_q, rng.split(1), size=count)
    out = ml.scale_c * beta * s
    return float(out[0]) if scalar else out


def sample_prior_partition(alpha: float, theta: float, n: int, rng: RngStream) -> SampleSummary:
    """A full random partition (frequencies included) of n draws from the
    prior predictive chain; used for synthetic empirical-Bayes fixtures.

    Existing-species picks use the uniform-past-draw proposal with
    acceptance 1 - alpha/count, which is O(1) per draw.
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    if theta <= -alpha:
        raise DomainError("theta must exceed -alpha")
    if n < 1:
        raise DomainError("n must be >= 1")
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
