"""Independent references for the benchmark's output checks.

Nothing here calls into `unseen`: draw-free quantities are recomputed in
extended precision with mpmath or from closed forms, and the exact posterior
pmf comes from a banded forward recursion of the predictive chain written
for the benchmark.  Monte Carlo outputs are checked against the law, not
against particular draws, so a change that alters the random stream but
keeps the distribution still passes.
"""

from __future__ import annotations

import math
from collections import Counter

import mpmath as mp
import numpy as np
from scipy.stats import binom

mp.mp.dps = 40

# Relative tolerance for draw-free scalars.  Tight enough that the measured
# 6e-4 relative error of the posterior mean at theta = 1e6 fails.
REL_TOL = 1e-6
# Pmf moments from the exact recursion agree with the closed forms to ~1e-15.
PMF_MOMENT_TOL = 1e-9
# Closed-form pmf against the reference recursion, absolute per entry.
PMF_ENTRY_TOL = 1e-9
# Per-endpoint false-alarm rate of the order-statistic band.
FALSE_ALARM = 1e-6
# Cantelli multiplier for the Mittag-Leffler endpoints: P(X >= mu + k*sd) <=
# 1/(1 + k^2) ~ 0.0099, so more than 50 of 2000 draws beyond it is a
# >7-sigma binomial event.
ML_SD_BOUND = 10.0


def _log_rf_ratio(x, shift, m):
    """log[(x + shift)_(m) / (x)_(m)] in mpmath."""
    return (mp.loggamma(x + shift + m) - mp.loggamma(x + shift)
            - mp.loggamma(x + m) + mp.loggamma(x))


def posterior_mean(alpha: float, theta: float, n: int, j: int, m: int) -> float:
    """E[K_m | n, j]; for alpha > 0, (j + theta/alpha) [(theta+n+alpha)_m /
    (theta+n)_m - 1], and theta [psi(theta+n+m) - psi(theta+n)] at alpha = 0."""
    if m == 0:
        return 0.0
    a, t = mp.mpf(alpha), mp.mpf(theta)
    if alpha == 0.0:
        return float(t * (mp.digamma(t + n + m) - mp.digamma(t + n)))
    return float((j + t / a) * mp.expm1(_log_rf_ratio(t + n, a, m)))


def posterior_variance(alpha: float, theta: float, n: int, j: int, m: int) -> float:
    """Var[K_m | n, j].  With Z = j + theta/alpha + K, each step multiplies
    E[Z] by (D + alpha)/D and E[Z(Z+1)] by (D + 2 alpha)/D, D = theta+n+i."""
    if m == 0:
        return 0.0
    a, t = mp.mpf(alpha), mp.mpf(theta)
    if alpha == 0.0:
        mean = t * (mp.digamma(t + n + m) - mp.digamma(t + n))
        return float(mean - t * t * (mp.psi(1, t + n) - mp.psi(1, t + n + m)))
    z0 = j + t / a
    ez = z0 * mp.exp(_log_rf_ratio(t + n, a, m))
    ezz = z0 * (z0 + 1) * mp.exp(_log_rf_ratio(t + n, 2 * a, m))
    return float(ezz - ez - ez * ez)


def gaussian_interval(alpha: float, theta: float, n: int, j: int, m: int,
                      level: float) -> tuple[float, float]:
    """Closed-form Gaussian interval m*M -/+ z*sqrt(m*S^2), clamped to [0, m],
    with tau, nu, rho = (theta, n, j)/m and lam = tau + nu."""
    a = mp.mpf(alpha)
    tau, nu, rho = mp.mpf(theta) / m, mp.mpf(n) / m, mp.mpf(j) / m
    lam = tau + nu
    c = mp.log1p(1 / lam)
    if alpha == 0.0:
        big_m = tau * c
        big_s2 = tau * c - tau * tau / (lam * (lam + 1))
    else:
        g = tau + rho * a
        big_a = mp.exp(a * c)
        big_m = g / a * mp.expm1(a * c)
        big_s2 = (g / lam) * big_a * ((lam / a) * mp.expm1(a * c) - g * big_a / (lam + 1))
    z = mp.sqrt(2) * mp.erfinv(mp.mpf(level))
    mean, half = m * big_m, z * mp.sqrt(m * big_s2)
    return float(max(mp.mpf(0), mean - half)), float(min(mp.mpf(m), mean + half))


def ml_mean_sd(alpha: float, theta: float, n: int, j: int, m: int) -> tuple[float, float]:
    """Mean and standard deviation of the scaled Mittag-Leffler law
    c * Beta(j + theta/alpha, n/alpha - j) * S_{alpha, (theta+n)/alpha}."""
    a, t = mp.mpf(alpha), mp.mpf(theta)
    c = (t + n + m) ** a - (t + n) ** a
    ba, bb = j + t / a, n / a - j
    q = (t + n) / a

    def s_moment(p):
        return mp.exp(mp.loggamma(q + p + 1) - mp.loggamma(q + 1)
                      + mp.loggamma(q * a + 1) - mp.loggamma(q * a + p * a + 1))

    eb = ba / (ba + bb)
    eb2 = ba * (ba + 1) / ((ba + bb) * (ba + bb + 1))
    mean = c * eb * s_moment(1)
    second = c * c * eb2 * s_moment(2)
    return float(mean), float(mp.sqrt(max(second - mean * mean, mp.mpf(0))))


def coverage(a_lo: float, a_hi: float, e_lo: float, e_hi: float) -> float:
    """Share (%) of the integer-rounded exact interval covered by the
    integer-rounded approximate one."""
    def r(x):
        return int(math.floor(x + 0.5))

    a_lo, a_hi, e_lo, e_hi = r(a_lo), r(a_hi), r(e_lo), r(e_hi)
    if e_hi == e_lo:
        return 100.0 if a_lo <= e_lo <= a_hi else 0.0
    return 100.0 * max(min(a_hi, e_hi) - max(a_lo, e_lo), 0) / (e_hi - e_lo)


def pmf_trajectory(alpha: float, theta: float, n: int, j: int, ms) -> dict:
    """Exact pmf of K_m for each m in `ms`, by one forward pass of the
    predictive chain.  Only the band where the mass exceeds 1e-25 is kept,
    so a pass costs O(m * band).  Returns {m: (k_lo, probs)} with probs[i]
    = P(K_m = k_lo + i)."""
    wanted = set(int(m) for m in ms)
    top = max(wanted)
    buf = np.zeros(top + 2)
    buf[0] = 1.0
    # P(new species | k) = (theta + alpha (j + k)) / (theta + n + i) lies in
    # [0, 1] for admissible parameters, so no clipping is needed
    numer = theta + alpha * (j + np.arange(top + 2))
    lo, hi = 0, 1
    out = {0: (0, buf[:1].copy())} if 0 in wanted else {}
    for i in range(top):
        band = buf[lo:hi]
        move = band * numer[lo:hi]
        move *= 1.0 / (theta + n + i)
        band -= move
        buf[hi] = 0.0
        buf[lo + 1: hi + 1] += move
        hi += 1
        while buf[lo] < 1e-25:
            lo += 1
        while buf[hi - 1] < 1e-25:
            hi -= 1
        if i + 1 in wanted:
            probs = buf[lo:hi]
            out[i + 1] = (lo, probs / probs.sum())
    return out


def order_stat_band(k_lo: int, probs: np.ndarray, draws: int, rank: int,
                    false_alarm: float = FALSE_ALARM) -> tuple[int, int]:
    """[a, b] holding the rank-th order statistic of `draws` iid draws from
    the pmf except with probability <= false_alarm (split between the two
    sides): P(X_(r) <= x) = P(Binomial(draws, F(x)) >= r)."""
    cdf = np.clip(np.cumsum(probs), 0.0, 1.0)
    below = binom.sf(rank - 1, draws, cdf)
    half = false_alarm / 2.0
    a = int(np.argmax(below > half))
    hi_hits = np.flatnonzero(below >= 1.0 - half)
    b = int(hi_hits[0]) if hi_hits.size else probs.size - 1
    return k_lo + a, k_lo + b


def equal_tailed_ranks(draws: int, level: float) -> tuple[int, int]:
    """Order-statistic ranks of the equal-tailed interval's endpoints."""
    delta = 1.0 - level
    return (max(math.ceil(draws * delta / 2.0), 1),
            min(math.ceil(draws * (1.0 - delta / 2.0)), draws))


def ep_log_likelihood(alpha: float, theta: float, freqs) -> float:
    """Log Ewens-Pitman probability of a partition with block sizes freqs."""
    n, j = sum(freqs), len(freqs)
    if alpha == 0.0:
        s_new = (j - 1) * math.log(theta)
    else:
        s_new = math.fsum(math.log(theta + i * alpha) for i in range(1, j))
    s_norm = math.lgamma(theta + n) - math.lgamma(theta + 1.0)
    s_blocks = math.fsum(
        mult * (math.lgamma(f - alpha) - math.lgamma(1.0 - alpha))
        for f, mult in Counter(freqs).items()
    )
    return s_new - s_norm + s_blocks


def is_local_max(alpha: float, theta: float, freqs, theta_max: float = 1e6,
                 step: float = 1e-3) -> bool:
    """No admissible neighbour at +/- step in alpha or log theta has a
    higher Ewens-Pitman likelihood than (alpha, theta), up to rounding."""
    best = ep_log_likelihood(alpha, theta, freqs)
    tol = 1e-9 * max(1.0, abs(best))
    for da, dlt in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
        a, t = alpha + da, theta * math.exp(dlt)
        if not (0.0 <= a < 1.0) or not (1e-4 <= t <= theta_max):
            continue
        if ep_log_likelihood(a, t, freqs) > best + tol:
            return False
    return True


def close(x: float, ref: float, rel: float, floor: float = 0.0) -> bool:
    """|x - ref| <= rel * max(|ref|, floor); a floor of 1 suits interval
    endpoints, which are counts and may be clamped to exactly 0."""
    return math.isfinite(x) and abs(x - ref) <= rel * max(abs(ref), floor)
