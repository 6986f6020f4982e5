"""Empirical-Bayes fitting of the Pitman-Yor parameters by maximizing the
Ewens-Pitman marginal likelihood of the observed partition.

The log-likelihood splits into a term of alpha alone, the frequency blocks'
sum of m_f [log Gamma(f - alpha) - log Gamma(1 - alpha)] (`_block_term`),
and a term of (alpha, theta) (the rest of `_loglik`).  The grid search
forms the alpha term once per fit for all its lanes.  `_loglik` is the one
arithmetic of every evaluation: the grid's lanes, and, as one-lane calls
through `_loglik_at`, the points of the Newton ascent and
`ep_log_likelihood`.  The Newton ascent that refines the grid's best point
steps on the closed-form score and Hessian (`_score`).

On every alpha lane |d loglik / d log theta| <= n - 1, so the grid's
golden-section search drops a lane once that bound shows it cannot hold
the grid's best value (`_golden_max`); the lane it keeps has the bits the
full search gives it.

The fit searches alpha on a grid of step 0.01, then on [0, 1 - 1e-12],
and theta in [1e-4, 1e6] only.  The likelihood itself is defined on all of
theta > -alpha, and a fit that stops at either end of the theta range is
flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .errors import DegenerateSampleError, DomainError
from .model import SampleSummary

_FLAGS = ("alpha_zero", "alpha_near_one", "theta_capped", "theta_at_min")

# Most entries of one (lanes, j - 1) term matrix of `_loglik`: 16 MB.
_LANE_BUDGET = 2_000_000

# Golden-section iterations of the theta search on each grid lane.
_GOLDEN_ITERS = 80

# Step of the alpha grid.
_ALPHA_STEP = 0.01

# Ends of the theta search.  The search runs on log theta, so it never
# reaches the part (-alpha, 0] of the admissible range.
_THETA_MIN = 1e-4
_THETA_MAX = 1e6

# The box (alpha, theta) of the Newton ascent.
_LOWER = np.array([0.0, _THETA_MIN])
_UPPER = np.array([1.0 - 1e-12, _THETA_MAX])

# A fit has converged once its projected score is at most this times n.
_SCORE_TOL = 1e-6

# Cap on the steps of the Newton ascent.  Interior fits stop after 0-3
# steps.  A likelihood that keeps rising toward theta = 1e-4 takes about
# one step per unit of log theta, and the theta range spans 23 units.
_NEWTON_STEPS = 50


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
    vals, mult = np.unique(np.asarray(sample.freqs, dtype=np.int64), return_counts=True)
    return vals.astype(float), mult.astype(float)


def _block_term(alphas, freq_vals, freq_mult):
    """Sum over the frequency blocks of m_f [log Gamma(f - alpha) -
    log Gamma(1 - alpha)] at each lane of alphas: the one term of the
    likelihood that depends on alpha alone."""
    a = alphas[:, None]
    blocks = gammaln(freq_vals - a)
    blocks -= gammaln(1.0 - a)
    blocks *= freq_mult
    return blocks.sum(axis=-1)


def _loglik(alphas, thetas, n, j, freq_vals, freq_mult, blocks=None):
    """Ewens-Pitman log-likelihood at the lanes (alphas[i], thetas[i]).

    alphas and thetas are float arrays of admissible lanes: alpha in
    [0, 1) and theta > -alpha.  `blocks` is `_block_term` at alphas when
    the caller formed it once for its lanes; otherwise it is formed here.
    The new-species term log prod_{i < j} (theta + alpha i) of a lane is
    (j - 1) math.log(theta) at alpha = 0, since np.log's vector path may
    differ in the last bit, and otherwise a row of a (lanes, j - 1) term
    matrix, built in blocks of at most `_LANE_BUDGET` entries.  Every step
    is lane-wise, so a lane's value does not depend on the others.
    """
    if blocks is None:
        blocks = _block_term(alphas, freq_vals, freq_mult)
    s_new = np.zeros(alphas.size)
    if j > 1:
        dirichlet = [lane for lane, a in enumerate(alphas.tolist()) if a == 0.0]
        if len(dirichlet) < alphas.size:
            steps = np.arange(1.0, j)
            block = max(1, _LANE_BUDGET // (j - 1))
            for start in range(0, alphas.size, block):
                terms = alphas[start:start + block, None] * steps
                terms += thetas[start:start + block, None]
                np.log(terms, out=terms).sum(axis=-1, out=s_new[start:start + block])
        for lane in dirichlet:
            s_new[lane] = (j - 1) * math.log(thetas[lane])
    return s_new - (gammaln(thetas + n) - gammaln(thetas + 1.0)) + blocks


def _loglik_at(alpha, theta, n, j, freq_vals, freq_mult):
    """`_loglik` at the one point (alpha, theta); -inf where inadmissible."""
    if not (0.0 <= alpha < 1.0 and theta > -alpha):
        return -math.inf
    return float(_loglik(np.array([alpha]), np.array([theta]), n, j, freq_vals, freq_mult)[0])


def ep_log_likelihood(alpha: float, theta: float, sample: SampleSummary) -> float:
    """Log of the Ewens-Pitman probability of the observed partition.

    Inadmissible interior points return -inf rather than raising, so the
    function can be handed directly to an optimizer.
    """
    return _loglik_at(alpha, theta, sample.n, sample.j, *_freq_multiset(sample))


def _golden_max(f, lo, hi, lipschitz, allowance):
    """Golden-section maxima of a lane-wise f on the intervals [lo, hi],
    keeping only the lanes that may still hold the largest maximum.

    lo and hi are arrays with one entry per lane, and f(lanes, x) gives the
    values of the lanes `lanes` (indices into lo) at the points x.  The
    live lanes advance together, one call of f per iteration.  Returns the
    arrays (lanes, argmax, max) of the lanes still live at the end, in
    ascending lane order.

    A lane is dropped once it provably cannot end with the largest value
    (branch and bound; Piyavskii 1972, Shubert 1972).  `lipschitz` bounds
    |f(u) - f(v)| / |u - v| on every lane, and `allowance` bounds how far
    the float error of two evaluations can stretch that.  Every later point
    of a lane, its final midpoint included, lies in its bracket [lo, hi],
    up to `pad` for the rounding of the points themselves.  So the lane's
    final value lies within reach = lipschitz * (hi - lo + pad) + allowance
    of max(fc, fd).  After each iteration, a lane whose upper bound
    max(fc, fd) + reach is below the largest lower bound over the live
    lanes ends strictly below that lane, so the first lane of the largest
    final value is never dropped.  The live lanes run the same lane-wise
    arithmetic, so that lane's argmax and max keep their bits.  An infinite
    `lipschitz` drops no lane: the full search.
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    pad = 8.0 * np.finfo(float).eps * (1.0 + max(np.abs(lo).max(), np.abs(hi).max()))
    lanes = np.arange(lo.size)
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(lanes, c), f(lanes, d)
    for _ in range(_GOLDEN_ITERS):
        left = fc > fd
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        c, d = (np.where(left, hi - inv_phi * (hi - lo), d),
                np.where(left, c, lo + inv_phi * (hi - lo)))
        f_new = f(lanes, np.where(left, c, d))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        best = np.maximum(fc, fd)
        reach = lipschitz * (hi - lo + pad) + allowance
        keep = best + reach >= np.max(best - reach)
        if not keep.all():
            lanes, lo, hi, c, d, fc, fd = (v[keep] for v in (lanes, lo, hi, c, d, fc, fd))
    x = 0.5 * (lo + hi)
    return lanes, x, f(lanes, x)


def _allowance(n, j, blocks):
    """A bound on the float error of two grid evaluations of `_loglik` on
    the same lane, at any theta in [_THETA_MIN, _THETA_MAX], for
    `_golden_max`.

    A lane's alpha term is the one shared value of `blocks`, so only the
    theta part and the final sum differ in their rounding.  The theta part
    sums j - 1 logs of theta + alpha i, each at most `log_span` in size,
    less gammaln(theta + n) - gammaln(theta + 1), each at most
    gammaln(_THETA_MAX + n) in size; the value adds the lane's alpha term.
    `size` bounds the sum of all their sizes, plus (n - 1) for math.exp's
    rounding of theta, which moves log theta by at most 2**-52.  Each log
    and gammaln is good to a few ulps of its size, and numpy's pairwise sum
    adds at most about 16 + log2(j) ulps of its terms' total, so one
    evaluation is far within 256 ulps of `size`.  The error is largest at
    theta near 1e6, from the two gammaln values near 1.3e7 (one ulp is
    1.9e-9): two evaluations a few ulps of log theta apart differ by up to
    5e-9 there, for n from 6 to 1e5, against an allowance of about 3e-6.
    A larger allowance only delays the pruning; one too small could change
    the fit.
    """
    log_span = max(-math.log(_THETA_MIN), math.log(_THETA_MAX + j))
    size = ((j - 1) * log_span + 2.0 * float(gammaln(_THETA_MAX + n))
            + float(np.abs(blocks).max()) + (n - 1))
    return 2 * 256 * np.finfo(float).eps * size


def _score(alpha, theta, n, j, freq_vals, freq_mult):
    """Score and Hessian of the log-likelihood in (alpha, log theta), in
    closed form.  With i < j over the new-species terms and k < n over the
    normaliser terms:

        d/d alpha     = sum_i i / (theta + alpha i)
                        - sum_f m_f [psi(f - alpha) - psi(1 - alpha)],
        d/d log theta = sum_i theta / (theta + alpha i)
                        - sum_k theta / (theta + k),

    and the second derivatives are the same sums with squared
    denominators, psi' (zeta(2, .)) in place of psi.  The log theta score
    pairs the terms i = k < j as theta (1 - alpha) i / ((theta + alpha i)
    (theta + i)), so its sign is exact where both sums are near j and n,
    at large theta, and writes the unpaired rest j <= k < n as theta
    [psi(theta + n) - psi(theta + j)].  The cost is O(j + distinct f),
    as for `_loglik`, whatever the size of n or of the counts.
    """
    i = np.arange(1.0, j)
    a_new = i / (theta + alpha * i)
    t_new = theta / (theta + alpha * i)
    t_old = theta / (theta + i)
    psi, psi1 = digamma([theta + n, theta + j]), zeta(2.0, [theta + j, theta + n])
    rest = theta * (psi[0] - psi[1])
    rest_2 = theta * theta * (psi1[0] - psi1[1])
    block = freq_mult @ (digamma(freq_vals - alpha) - digamma(1.0 - alpha))
    block_2 = freq_mult @ (zeta(2.0, freq_vals - alpha) - zeta(2.0, 1.0 - alpha))
    cross = -(a_new @ t_new)
    score = np.array([a_new.sum() - block, (1.0 - alpha) * (a_new @ t_old) - rest])
    hessian = np.array([
        [-(a_new @ a_new) + block_2, cross],
        [cross, t_new @ (1.0 - t_new) - t_old @ (1.0 - t_old) - rest + rest_2]])
    return score, hessian


def _projected(x, score):
    """The score at x with each coordinate that sits at a bound of the box
    [_LOWER, _UPPER] while its score points out of the box set to 0, and
    the mask of those held coordinates."""
    held = ((x == _LOWER) & (score < 0.0)) | ((x == _UPPER) & (score > 0.0))
    return np.where(held, 0.0, score), held


def _newton(x, n, j, freq_vals, freq_mult):
    """Projected Newton ascent of the log-likelihood in (alpha, log theta),
    from x = (alpha, theta) and inside the box [_LOWER, _UPPER].

    A coordinate at a bound whose score points out of the box is held
    there; the projected score is the score with the held coordinates set
    to 0.  The step solves the Newton equations of the free coordinates.
    Where their Hessian is not negative definite, the step follows the
    projected score instead, scaled to span the log theta range, so that a
    likelihood still rising toward a bound reaches it in one step.  A
    backtracking line search halves the step, projected onto the box,
    until `_loglik_at` rises.  It gives up once the rise the score predicts
    falls below the rounding error of `_loglik`, a few ulps of its largest
    terms, the value and gammaln(theta + n), and the ascent stops there.
    So every accepted step raises the value, and the result is never below
    the start.

    Returns (x, value, converged), where converged says that the ascent
    stopped with the projected score at most _SCORE_TOL * n in each
    coordinate.
    """
    args = (n, j, freq_vals, freq_mult)
    value = _loglik_at(*x, *args)
    span = math.log(_THETA_MAX / _THETA_MIN)
    for _ in range(_NEWTON_STEPS):
        score, hessian = _score(*x, *args)
        score, held = _projected(x, score)
        size = np.abs(score).max()
        converged = size <= _SCORE_TOL * n
        if size == 0.0:
            break
        # -1 on the diagonal of a held coordinate, 0 off it, so the Newton
        # step leaves that coordinate where it is; h is negative definite
        # where h[0, 0] < 0 < det, and the step is -h^-1 score
        h = np.where(np.outer(~held, ~held), hessian, -np.eye(2))
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if h[0, 0] < 0.0 < det:
            step = np.array([h[0, 1] * score[1] - h[1, 1] * score[0],
                             h[1, 0] * score[0] - h[0, 0] * score[1]]) / det
        else:
            step = score * (span / size)
        resolution = np.finfo(float).eps * (abs(value) + 2.0 * gammaln(x[1] + n))
        t, rise = 1.0, score @ step
        while t * rise > resolution:
            dlt = min(max(t * step[1], -span), span)
            trial = np.clip([x[0] + t * step[0], x[1] * math.exp(dlt)], _LOWER, _UPPER)
            v = _loglik_at(*trial, *args)
            if v > value:
                break
            t /= 2.0
        else:
            break
        x, value = trial, v
    else:
        converged = False
    return x, value, bool(converged)


def fit_empirical_bayes(sample: SampleSummary) -> FitResult:
    """Maximize the Ewens-Pitman likelihood over alpha in [0, 1) and theta
    in [1e-4, 1e6].

    Two stages: an alpha grid of step 0.01 with a golden-section theta
    search on the log scale at each grid point, then projected Newton
    ascent in (alpha, log theta) from the best grid point (`_newton`).
    The grid search runs every grid point as one lane of a single
    golden-section search, and the first grid point of the largest value
    wins.  A lane is dropped from the search once it provably cannot win:
    on every lane the log-likelihood moves by at most (n - 1) |d log
    theta|, since each of the j - 1 new-species terms theta / (theta +
    alpha i) and each of the n - 1 normaliser terms theta / (theta + k) of
    its derivative lies in (0, 1], and the alpha term does not depend on
    theta.  The winner keeps the bits of the full search (`_golden_max`).
    The Newton ascent runs on the closed-form score and Hessian
    (`_score`) inside the box alpha in [0, 1 - 1e-12], theta in [1e-4,
    1e6], holds a coordinate at a bound while its score points out of the
    box, and takes a step only if the value rises, so the fit is never
    below the grid's best value.

    The alpha term of the likelihood is formed once for the grid's lanes
    and shared by every golden-section step; only the (alpha, theta) term
    is formed per step.  Each point of the Newton ascent is a one-lane
    evaluation of the same arithmetic.

    The fit is converged when the ascent stops with its projected score,
    the score with the held coordinates set to 0, at most 1e-6 n in each
    coordinate.

    Boundary solutions are flagged, not rejected: `alpha_zero`,
    `alpha_near_one` (alpha within one grid step of 1), `theta_capped`
    (theta within 1% of 1e6) and `theta_at_min` (theta within 1% of the
    floor 1e-4, where the likelihood may still rise toward theta <= 0).
    Either theta flag, and a sample of all singletons or of one block,
    also make the fit not converged.
    """
    if sample.n < 2:
        raise DegenerateSampleError(
            "a single observation is uninformative for (alpha, theta)"
        )
    fv, fm = _freq_multiset(sample)
    n, j = sample.n, sample.j

    def exp_lanes(lt):
        # math.exp, as for the theta a candidate reports, so each value
        # belongs to exactly that theta
        return np.fromiter(map(math.exp, lt.tolist()), float, lt.size)

    alphas = np.arange(0.0, 1.0, _ALPHA_STEP)
    blocks = _block_term(alphas, fv, fm)
    lanes, lts, vals = _golden_max(
        lambda lanes, lt: _loglik(alphas[lanes], exp_lanes(lt), n, j, fv, fm, blocks[lanes]),
        np.full(alphas.size, math.log(_THETA_MIN)), np.full(alphas.size, math.log(_THETA_MAX)),
        n - 1.0, _allowance(n, j, blocks))
    i = int(np.argmax(vals))
    x, loglik, converged = _newton(
        np.array([alphas[lanes[i]], math.exp(float(lts[i]))]), n, j, fv, fm)
    alpha_hat, theta_hat = x.tolist()

    flags = set()
    if alpha_hat == 0.0:
        flags.add("alpha_zero")
    if alpha_hat >= 1.0 - _ALPHA_STEP:
        flags.add("alpha_near_one")
    if theta_hat >= 0.99 * _THETA_MAX:
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
        log_likelihood=loglik,
        converged=converged,
        boundary_flags=frozenset(flags),
    )
