"""Empirical-Bayes fitting of the Pitman-Yor parameters by maximizing the
Ewens-Pitman marginal likelihood of the observed partition.

The log-likelihood splits into a term of alpha alone, the frequency blocks'
sum of m_f [log Gamma(f - alpha) - log Gamma(1 - alpha)] (`_block_term`),
and a term of (alpha, theta) (the rest of `_loglik`).  The fit starts from
the best point of a coarse mesh of alpha lanes by log theta columns.  The
mesh is scored in closed form (`_closed_mesh`), with a bound on each
cell's rounding, and only the cells that bound leaves in reach of the
maximum are scored again by `_loglik`, so the start is the exact mesh's
best point.  `_loglik` is the one arithmetic of every exact evaluation:
the mesh's near-ties, and, as one-lane calls through `_loglik_at`, the
points of the Newton ascent and `ep_log_likelihood`.  The Newton ascent
that refines the mesh's best point steps on the closed-form score and
Hessian (`_score`).

The fit searches alpha in [0, 1 - 1e-12] and theta in [1e-4, 1e6] only.
The likelihood itself is defined on all of theta > -alpha, and a fit that
stops at either end of the theta range is flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, zeta

from .errors import DegenerateSampleError, DomainError
from .model import SampleSummary, _dot

_FLAGS = ("alpha_zero", "alpha_near_one", "theta_capped", "theta_at_min")

# Most entries of one (lanes, j - 1) term matrix of `_loglik`: 16 MB.
_LANE_BUDGET = 2_000_000

# Step of the mesh's alpha lanes.
_ALPHA_STEP = 0.01

# The mesh's theta columns, evenly spaced in log theta from _THETA_MIN to
# _THETA_MAX, a step of about 1.0.  The mesh only picks the start of the
# Newton ascent.
_THETA_COLUMNS = 24

# Ends of the theta search.  The search runs on log theta, so it never
# reaches the part (-alpha, 0] of the admissible range.
_THETA_MIN = 1e-4
_THETA_MAX = 1e6

# The mesh: alpha lanes 0, 0.01, ..., 0.99 by theta columns from 1e-4 to
# 1e6 exactly.
_MESH_ALPHAS = np.arange(0.0, 1.0, _ALPHA_STEP)
_MESH_THETAS = np.geomspace(_THETA_MIN, _THETA_MAX, _THETA_COLUMNS)

# Rounding bound of a closed-form mesh score, in eps times the size of its
# terms.  Most of it is the worst case of `_loglik`'s pairwise sum of j - 1
# logs, about (25 + log2(j / 128)) / 2 eps; the closed form's own roundings
# add a few eps.  On 3000 random samples no cell was off by 2 eps.
_MESH_ULPS = 32

# The box (alpha, theta) of the Newton ascent, and its span in log theta.
_LOWER = np.array([0.0, _THETA_MIN])
_UPPER = np.array([1.0 - 1e-12, _THETA_MAX])
_SPAN = math.log(_THETA_MAX / _THETA_MIN)

# A fit has converged once its projected score is at most this times n.
_SCORE_TOL = 1e-6

# Cap on the steps of the Newton ascent.  From the mesh's best point most
# interior fits stop after 2-5 steps, and none of 11244 fits of random
# prior partitions and Zipf and uniform samples took more than 16.
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


def _closed_mesh(n, j, blocks):
    """`_loglik` on the mesh in closed form, and a bound on each cell's
    distance from it, as two (lanes, columns) arrays.  `blocks` is
    `_block_term` at the mesh's lanes.

    The new-species term is (j - 1) log theta at alpha = 0 and otherwise,
    with x = theta / alpha,

        sum_{i < j} log(theta + alpha i)
            = (j - 1) log alpha + log Gamma(x + j) - log Gamma(x + 1),

    so a cell costs O(1) rather than j - 1 logs.  Each side rounds within
    a few eps of the size of its terms: the magnitudes of the three terms
    of the closed form, which also bound the sum of |log(theta + alpha i)|
    that `_loglik` adds up, plus the theta term, the alpha term and j - 1
    argument roundings.  At large x the two gammaln values cancel, so the
    bound, and the closed form's error, reach about 1e-5 at x = 1e8.
    """
    a, t = _MESH_ALPHAS[1:, None], _MESH_THETAS
    x = t / a
    head, tail = gammaln(x + j), gammaln(x + 1.0)
    dirichlet = (j - 1) * np.log(t)
    log_a = (j - 1) * np.log(a)
    s_new = np.vstack([dirichlet, log_a + head - tail])
    size = np.vstack([np.abs(dirichlet), np.abs(log_a) + np.abs(head) + np.abs(tail)])
    theta_term = gammaln(t + n) - gammaln(t + 1.0)
    size += np.abs(theta_term) + np.abs(blocks)[:, None] + j
    return s_new - theta_term + blocks[:, None], _MESH_ULPS * np.finfo(float).eps * size


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
    as for `_loglik`, whatever the size of n or of the counts.  The sums
    of products are dots in pieces of at most 10 000 entries (`_dot`), so
    that none runs on BLAS worker threads and the fit does not depend on
    their number.
    """
    i = np.arange(1.0, j)
    a_new = i / (theta + alpha * i)
    t_new = theta / (theta + alpha * i)
    t_old = theta / (theta + i)
    psi, psi1 = digamma([theta + n, theta + j]), zeta(2.0, [theta + j, theta + n])
    rest = theta * (psi[0] - psi[1])
    rest_2 = theta * theta * (psi1[0] - psi1[1])
    block = _dot(freq_mult, digamma(freq_vals - alpha) - digamma(1.0 - alpha))
    block_2 = _dot(freq_mult, zeta(2.0, freq_vals - alpha) - zeta(2.0, 1.0 - alpha))
    cross = -_dot(a_new, t_new)
    score = np.array([a_new.sum() - block, (1.0 - alpha) * _dot(a_new, t_old) - rest])
    hessian = np.array([
        [-_dot(a_new, a_new) + block_2, cross],
        [cross, _dot(t_new, 1.0 - t_new) - _dot(t_old, 1.0 - t_old) - rest + rest_2]])
    return score, hessian


def _projected(x, score):
    """The score at x with each coordinate that sits at a bound of the box
    [_LOWER, _UPPER] while its score points out of the box set to 0, and
    the mask of those held coordinates."""
    held = ((x == _LOWER) & (score < 0.0)) | ((x == _UPPER) & (score > 0.0))
    return np.where(held, 0.0, score), held


def _moved(x, d):
    """x = (alpha, theta) moved by d in (alpha, log theta), with the move in
    log theta capped at the span of the theta range."""
    return np.array([x[0] + d[0], x[1] * math.exp(min(max(d[1], -_SPAN), _SPAN))])


def _newton(x, n, j, freq_vals, freq_mult):
    """Projected Newton ascent of the log-likelihood in (alpha, log theta),
    from x = (alpha, theta) and inside the box [_LOWER, _UPPER].

    A coordinate at a bound whose score points out of the box is held
    there; the projected score is the score with the held coordinates set
    to 0.  The step is Newton's.  Where the Hessian is not negative
    definite, it is first shifted down by its largest eigenvalue plus
    `floor`, the largest projected score over the log theta span
    (Levenberg 1944, Marquardt 1963).  Along the direction of that
    eigenvalue the step then follows the score, up to the whole span, so
    that a likelihood still rising toward a bound reaches it in one step,
    and an indefinite Hessian does not send the ascent zigzagging across
    the alpha-log theta ridge.

    A coordinate whose own Newton step, its score over its curvature,
    reaches a bound that its score points to steps alone: its row and
    column of the Hessian give way to that curvature.  A held coordinate
    is one such.  Near a bound the coupled step aims at the optimum outside
    the box, and cut at the bound it can move the other coordinate away
    from the optimum inside it (Bertsekas 1982).

    A backtracking line search halves the step, projected onto the box,
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
    for _ in range(_NEWTON_STEPS):
        raw, hessian = _score(*x, *args)
        score, held = _projected(x, raw)
        size = np.abs(score).max()
        converged = size <= _SCORE_TOL * n
        if size == 0.0:
            break
        floor = size / _SPAN
        curvature = np.maximum(np.abs(np.diag(hessian)), floor)
        end = _moved(x, raw / curvature)
        alone = ((end <= _LOWER) & (raw < 0.0)) | ((end >= _UPPER) & (raw > 0.0))
        h = np.where(np.outer(~alone, ~alone), hessian, -np.diag(curvature))
        top = 0.5 * (h[0, 0] + h[1, 1]) + math.hypot(0.5 * (h[0, 0] - h[1, 1]), h[0, 1])
        if top >= 0.0:
            h -= (top + floor) * np.eye(2)
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        step = np.array([h[0, 1] * raw[1] - h[1, 1] * raw[0],
                         h[1, 0] * raw[0] - h[0, 0] * raw[1]]) / det
        resolution = np.finfo(float).eps * (abs(value) + 2.0 * gammaln(x[1] + n))
        t, rise = 1.0, score @ step
        while t * rise > resolution:
            trial = np.clip(_moved(x, t * step), _LOWER, _UPPER)
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

    Two stages: a coarse mesh finds a start, then projected Newton ascent
    in (alpha, log theta) refines it (`_newton`).  The mesh is the alpha
    lanes 0, 0.01, ..., 0.99 by `_THETA_COLUMNS` theta columns evenly
    spaced in log theta, from 1e-4 to 1e6 exactly.  The start is the first
    point of the largest `_loglik` value on the mesh, in alpha-major order.
    The mesh is scored in closed form (`_closed_mesh`); a cell whose score
    plus its rounding bound falls below some other cell's score less that
    cell's bound cannot hold the maximum, and one `_loglik` call scores the
    rest exactly.  `_loglik` is lane-wise, so the start is the one a full
    `_loglik` mesh would pick, bit for bit.
    The Newton ascent runs on the closed-form score and Hessian (`_score`)
    inside the box alpha in [0, 1 - 1e-12], theta in [1e-4, 1e6], holds a
    coordinate at a bound while its score points out of the box, and takes
    a step only if the value rises, so the fit is never below the mesh's
    best value.  Each point of the Newton ascent is a one-lane evaluation
    of the same arithmetic.

    The fit is converged when the ascent stops with its projected score,
    the score with the held coordinates set to 0, at most 1e-6 n in each
    coordinate.

    Boundary solutions are flagged, not rejected: `alpha_zero`,
    `alpha_near_one` (alpha within one lane step of 1), `theta_capped`
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

    blocks = _block_term(_MESH_ALPHAS, fv, fm)
    closed, bound = _closed_mesh(n, j, blocks)
    lanes, columns = np.nonzero(closed + bound >= (closed - bound).max())
    exact = _loglik(_MESH_ALPHAS[lanes], _MESH_THETAS[columns], n, j, fv, fm, blocks[lanes])
    best = np.argmax(exact)
    start = np.array([_MESH_ALPHAS[lanes[best]], _MESH_THETAS[columns[best]]])
    x, loglik, converged = _newton(start, n, j, fv, fm)
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
