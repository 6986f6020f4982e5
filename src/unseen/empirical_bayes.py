"""Empirical-Bayes fitting of the Pitman-Yor parameters by maximizing the
Ewens-Pitman marginal likelihood of the observed partition.

The log-likelihood splits into a term of alpha alone, the frequency blocks'
sum of m_f [log Gamma(f - alpha) - log Gamma(1 - alpha)] (`_block_term`),
and a term of (alpha, theta) (the rest of `_loglik`).  The grid search
forms the alpha term once per fit for all its lanes; a single point forms
it with the same lines.  `_loglik` is the one entry point of every
evaluation: the grid's lanes, Nelder-Mead's points and
`ep_log_likelihood`.

The fit searches theta in [1e-4, theta_max] only.  The likelihood itself
is defined on all of theta > -alpha, and a fit that stops at the floor is
flagged `theta_at_min`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .errors import DegenerateSampleError, DomainError
from .model import SampleSummary

_FLAGS = ("alpha_zero", "alpha_near_one", "theta_capped", "theta_at_min")

# Most entries of one (lanes, j - 1) term matrix of `_loglik`: 16 MB.
_LANE_BUDGET = 2_000_000

# Iteration cap of the Nelder-Mead refinement.
_REFINE_ITERS = 400

# Golden-section iterations of the theta search on each grid lane.
_GOLDEN_ITERS = 80

# Smallest alpha grid step: at most 10 000 grid lanes.
_MIN_ALPHA_STEP = 1e-4

# Lower end of the theta search.  The search runs on log theta, so it never
# reaches the part (-alpha, 0] of the admissible range.
_THETA_MIN = 1e-4


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


def _block_term(alpha, freq_vals, freq_mult):
    """Sum over the frequency blocks of m_f [log Gamma(f - alpha) -
    log Gamma(1 - alpha)]: the one term of the likelihood that depends on
    alpha alone.  alpha is a float, or a float array of lanes."""
    a = np.asarray(alpha)[..., None]
    blocks = gammaln(freq_vals - a)
    blocks -= gammaln(1.0 - a)
    blocks *= freq_mult
    return blocks.sum(axis=-1)


def _new_species_term(alpha, theta, steps):
    """log prod_{i in steps} (theta + alpha i), with theta > -alpha: at one
    point (floats), or at a block of lanes with alpha > 0."""
    if not isinstance(alpha, np.ndarray) and alpha == 0.0:
        # math.log, not np.log, whose vector path may differ in the last bit
        return steps.size * math.log(theta)
    terms = np.asarray(alpha)[..., None] * steps
    terms += np.asarray(theta)[..., None]
    return np.log(terms, out=terms).sum(axis=-1)


def _loglik(alpha, theta, n, j, freq_vals, freq_mult, blocks=None):
    """Ewens-Pitman log-likelihood at (alpha, theta).

    Every evaluation comes through here: the lanes of the grid search, each
    Nelder-Mead point, the final check and `ep_log_likelihood`.  alpha and
    theta are floats at one point, which gives -inf where inadmissible, or
    float arrays of lanes, which the grid makes admissible by construction
    (alpha in [0, 1), and theta = exp(log theta) > 0).  `blocks` is
    `_block_term` at alpha when the caller formed it once for its lanes;
    otherwise it is formed here.  A point takes the same arithmetic as a
    lane, without a mask, so a lane's value does not depend on the others
    and equals that of the point.  The (lanes, j - 1) term matrix of the
    alpha > 0 lanes is built in blocks of at most `_LANE_BUDGET` entries.
    """
    lanes = isinstance(alpha, np.ndarray)
    if not lanes and not (0.0 <= alpha < 1.0 and theta > -alpha):
        return -math.inf
    if blocks is None:
        blocks = _block_term(alpha, freq_vals, freq_mult)
    steps = np.arange(1.0, j)
    if not lanes:
        s_new = _new_species_term(alpha, theta, steps) if j > 1 else 0.0
    else:
        s_new = np.zeros(alpha.size)
        if j > 1:
            dirichlet = alpha == 0.0
            for lane in np.flatnonzero(dirichlet):
                s_new[lane] = _new_species_term(alpha[lane], theta[lane], steps)
            pitman = np.flatnonzero(~dirichlet)
            block = max(1, _LANE_BUDGET // (j - 1))
            for start in range(0, pitman.size, block):
                rows = pitman[start:start + block]
                s_new[rows] = _new_species_term(alpha[rows], theta[rows], steps)
    value = s_new - (gammaln(theta + n) - gammaln(theta + 1.0)) + blocks
    return value if lanes else float(value)


def ep_log_likelihood(alpha: float, theta: float, sample: SampleSummary) -> float:
    """Log of the Ewens-Pitman probability of the observed partition.

    Inadmissible interior points return -inf rather than raising, so the
    function can be handed directly to an optimizer.
    """
    fv, fm = _freq_multiset(sample)
    return _loglik(alpha, theta, sample.n, sample.j, fv.astype(float), fm.astype(float))


def _golden_max(f, lo, hi):
    """Golden-section maxima of a lane-wise f on the intervals [lo, hi].

    lo and hi are arrays with one entry per lane; every lane advances in
    lockstep, so each iteration makes one call of f on all lanes.  Returns
    the arrays (argmax, max).
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_ITERS):
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
    theta_max: float = 1e6,
) -> FitResult:
    """Maximize the Ewens-Pitman likelihood over alpha in [0, 1) and theta
    in [1e-4, theta_max].

    Two stages: a coarse alpha grid with a golden-section theta search on
    the log scale at each grid point, then Nelder-Mead refinement around
    the best grid point.  The grid search runs every grid point as one lane
    of a single lockstep golden-section search; the candidates are then
    scanned in grid order and the first strict maximum wins.  The
    Nelder-Mead simplex is bounded to alpha in [0, 1) and free in log
    theta; its theta is clamped to [1e-4, theta_max] afterwards.

    The alpha term of the likelihood is formed once for the grid's lanes
    and shared by every golden-section step; only the (alpha, theta) term
    is formed per step.  Each Nelder-Mead point and the final check
    evaluate one point on floats.  alpha_step must lie in [1e-4, 1), which
    bounds the grid at 10 000 lanes, and theta_max must be finite and above
    the theta floor 1e-4.

    Boundary solutions are flagged, not rejected: `alpha_zero`,
    `alpha_near_one` (alpha within one grid step of 1), `theta_capped`
    (theta within 1% of theta_max) and `theta_at_min` (theta within 1% of
    the floor, where the likelihood may still rise toward theta <= 0).
    Either theta flag, and a sample of all singletons or of one block,
    make the fit not converged.
    """
    if not _MIN_ALPHA_STEP <= alpha_step < 1.0:
        raise DomainError(
            f"alpha_step must lie in [{_MIN_ALPHA_STEP:g}, 1), got {alpha_step}"
        )
    if not _THETA_MIN < theta_max < math.inf:
        raise DomainError(
            f"theta_max must be finite and above {_THETA_MIN:g}, got {theta_max}"
        )
    if sample.n < 2:
        raise DegenerateSampleError(
            "a single observation is uninformative for (alpha, theta)"
        )
    fv, fm = _freq_multiset(sample)
    fv, fm = fv.astype(float), fm.astype(float)
    n, j = sample.n, sample.j

    def ll_one(alpha, theta):
        return _loglik(alpha, theta, n, j, fv, fm)

    def exp_lanes(lt):
        # math.exp, as for the theta a candidate reports, so each value
        # belongs to exactly that theta
        return np.fromiter(map(math.exp, lt.tolist()), float, lt.size)

    alphas = np.arange(0.0, 1.0, alpha_step)
    blocks = _block_term(alphas, fv, fm)
    lts, vals = _golden_max(lambda lt: _loglik(alphas, exp_lanes(lt), n, j, fv, fm, blocks),
                            np.full(alphas.size, math.log(_THETA_MIN)),
                            np.full(alphas.size, math.log(theta_max)))
    best = (-math.inf, 0.0, _THETA_MIN)
    for alpha, lt, val in zip(alphas.tolist(), lts.tolist(), vals.tolist()):
        if val > best[0]:
            best = (val, alpha, math.exp(lt))

    def neg(x):
        a, lt = x
        return -ll_one(float(a), math.exp(float(lt)))

    res = minimize(
        neg, np.array([best[1], math.log(best[2])]), method="Nelder-Mead",
        bounds=[(0.0, 1.0 - 1e-12), (None, None)],
        options={"maxiter": _REFINE_ITERS, "xatol": 1e-7, "fatol": 1e-10},
    )
    converged = bool(res.success)
    alpha_hat, theta_hat = float(res.x[0]), math.exp(float(res.x[1]))
    if alpha_hat < 1e-10:
        alpha_hat = 0.0
    theta_hat = min(max(theta_hat, _THETA_MIN), theta_max)
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
    if theta_hat <= 1.01 * _THETA_MIN:
        flags.add("theta_at_min")
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
