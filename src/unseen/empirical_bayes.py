"""Empirical-Bayes fitting of the Pitman-Yor parameters by maximizing the
Ewens-Pitman marginal likelihood of the observed partition."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .errors import DegenerateSampleError, DomainError
from .model import SampleSummary

_FLAGS = ("alpha_zero", "alpha_near_one", "theta_capped")

# Most entries of one (lanes, j - 1) term matrix of `_loglik`: 16 MB.
_LANE_BUDGET = 2_000_000

# Iteration cap of the Nelder-Mead refinement.
_REFINE_ITERS = 400


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    theta_hat: float
    log_likelihood: float
    converged: bool
    boundary_flags: frozenset[str]

    def __post_init__(self):
        unknown = self.boundary_flags - set(_FLAGS)
        if unknown:
            raise DomainError(f"unknown boundary flags {sorted(unknown)}")


def _freq_multiset(sample: SampleSummary):
    if sample.freqs is None:
        raise DomainError("the Ewens-Pitman likelihood needs the sample's frequencies")
    return np.unique(np.asarray(sample.freqs, dtype=np.int64), return_counts=True)


def _loglik(alpha, theta, n, j, freq_vals, freq_mult):
    """Ewens-Pitman log-likelihood at each lane (alpha[i], theta[i]).

    alpha and theta are float arrays of equal length; inadmissible lanes
    give -inf.  Each lane's arithmetic is that of a scalar evaluation, so a
    lane's value does not depend on the others.  The (lanes, j - 1) term
    matrix is built in blocks of at most `_LANE_BUDGET` entries.
    """
    out = np.full(alpha.shape, -math.inf)
    ok = (alpha >= 0.0) & (alpha < 1.0) & (theta > -alpha)
    if not ok.any():
        return out
    a, t = alpha[ok], theta[ok]
    s_new = np.zeros(a.size)
    if j > 1:
        # theta > -alpha keeps every term theta + alpha * i positive
        dirichlet = a == 0.0
        # math.log, not np.log, whose vector path may differ in the last bit
        for lane in np.flatnonzero(dirichlet):
            s_new[lane] = (j - 1) * math.log(t[lane])
        pitman = np.flatnonzero(~dirichlet)
        steps = np.arange(1, j)
        block = max(1, _LANE_BUDGET // (j - 1))
        for start in range(0, pitman.size, block):
            lanes = pitman[start:start + block]
            terms = a[lanes, None] * steps
            terms += t[lanes, None]
            s_new[lanes] = np.log(terms, out=terms).sum(axis=1)
    s_norm = gammaln(t + n) - gammaln(t + 1.0)
    blocks = gammaln(freq_vals - a[:, None])
    blocks -= gammaln(1.0 - a)[:, None]
    blocks *= freq_mult
    out[ok] = s_new - s_norm + blocks.sum(axis=1)
    return out


def ep_log_likelihood(alpha: float, theta: float, sample: SampleSummary) -> float:
    """Log of the Ewens-Pitman probability of the observed partition.

    Inadmissible interior points return -inf rather than raising, so the
    function can be handed directly to an optimizer.
    """
    fv, fm = _freq_multiset(sample)
    return float(_loglik(np.array([alpha]), np.array([theta]), sample.n, sample.j,
                         fv.astype(float), fm.astype(float))[0])


def _golden_max(f, lo, hi, iters: int = 80):
    """Golden-section maxima of a lane-wise f on the intervals [lo, hi].

    lo and hi are arrays with one entry per lane; every lane advances in
    lockstep, so each iteration makes one call of f on all lanes.  Returns
    the arrays (argmax, max).
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc > fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c, d = (np.where(left, hi - inv_phi * (hi - lo), d),
                np.where(left, c, lo + inv_phi * (hi - lo)))
        f_new = f(np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    x = 0.5 * (lo + hi)
    return x, f(x)


def fit_empirical_bayes(
    sample: SampleSummary,
    alpha_step: float = 0.01,
    theta_bounds: tuple[float, float] = (1e-4, 1e6),
    allow_negative_theta: bool = False,
) -> FitResult:
    """Maximize the Ewens-Pitman likelihood over admissible (alpha, theta).

    Two stages: a coarse alpha grid with a golden-section theta search on
    the log scale at each grid point, then Nelder-Mead refinement around
    the best grid point.  The grid search runs every grid point as one lane
    of a single lockstep golden-section search (and, with
    `allow_negative_theta`, a second one over theta in (-alpha, 0] on the
    linear scale for alpha > 0); the candidates are then scanned in grid
    order and the first strict maximum wins.  Boundary solutions are
    flagged, not rejected.
    """
    if not 0.0 < alpha_step < 1.0:
        raise DomainError(f"alpha_step must lie in (0, 1), got {alpha_step}")
    theta_min, theta_max = theta_bounds
    if not 0.0 < theta_min < theta_max < math.inf:
        raise DomainError(
            f"theta bounds must be finite with 0 < min < max, got {theta_bounds}"
        )
    if sample.n < 2:
        raise DegenerateSampleError(
            "a single observation is uninformative for (alpha, theta)"
        )
    fv, fm = _freq_multiset(sample)
    fv, fm = fv.astype(float), fm.astype(float)
    n, j = sample.n, sample.j

    def ll(alpha, theta):
        return _loglik(alpha, theta, n, j, fv, fm)

    def ll_one(alpha, theta):
        return float(ll(np.array([alpha]), np.array([theta]))[0])

    def exp_lanes(lt):
        # math.exp, as for the theta a candidate reports, so each value
        # belongs to exactly that theta
        return np.fromiter(map(math.exp, lt.tolist()), float, lt.size)

    alphas = np.arange(0.0, 1.0, alpha_step)
    lts, vals = _golden_max(lambda lt: ll(alphas, exp_lanes(lt)),
                            np.full(alphas.size, math.log(theta_min)),
                            np.full(alphas.size, math.log(theta_max)))
    neg_ts, neg_vals = np.zeros(alphas.size), np.full(alphas.size, -math.inf)
    if allow_negative_theta:
        # search theta in (-alpha, 0] directly (linear scale)
        pos = alphas > 0.0
        neg_ts[pos], neg_vals[pos] = _golden_max(
            lambda t: ll(alphas[pos], t), -alphas[pos] * (1.0 - 1e-9), np.zeros(pos.sum())
        )
    best = (-math.inf, 0.0, theta_min)
    for alpha, lt, val, neg_t, neg_val in zip(
        alphas.tolist(), lts.tolist(), vals.tolist(), neg_ts.tolist(), neg_vals.tolist()
    ):
        if val > best[0]:
            best = (val, alpha, math.exp(lt))
        if neg_val > best[0]:
            best = (neg_val, alpha, neg_t)

    def neg(x):
        a, lt = x
        return -ll_one(float(a), math.exp(float(lt)))

    if best[2] > 0:
        x0 = np.array([best[1], math.log(best[2])])
        res = minimize(
            neg, x0, method="Nelder-Mead",
            options={"maxiter": _REFINE_ITERS, "xatol": 1e-7, "fatol": 1e-10},
        )
        converged = bool(res.success)
        alpha_hat, theta_hat = float(res.x[0]), math.exp(float(res.x[1]))
        alpha_hat = min(max(alpha_hat, 0.0), 1.0 - 1e-12)
        if alpha_hat < 1e-10:
            alpha_hat = 0.0
        theta_hat = min(max(theta_hat, theta_min), theta_max)
    else:
        # negative-theta optimum: keep the grid/golden-section solution
        converged = True
        alpha_hat, theta_hat = best[1], best[2]
    refined = ll_one(alpha_hat, theta_hat)
    if refined < best[0]:
        alpha_hat, theta_hat, refined = best[1], best[2], best[0]

    flags = set()
    if alpha_hat == 0.0:
        flags.add("alpha_zero")
    if alpha_hat >= 1.0 - alpha_step:
        flags.add("alpha_near_one")
    if theta_hat >= 0.99 * theta_max:
        flags.add("theta_capped")
        converged = False
    if j == n or j == 1:
        # all-singletons pushes theta to the cap; a single block pushes both
        # parameters to their lower boundaries
        converged = False
    return FitResult(
        alpha_hat=alpha_hat,
        theta_hat=theta_hat,
        log_likelihood=refined,
        converged=converged,
        boundary_flags=frozenset(flags),
    )
