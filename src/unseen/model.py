"""Pitman-Yor posterior quantities for the unseen-species count.

Given a sample of n observations containing j distinct species, the
posterior law of the number of new species among m further draws depends
on the data only through (n, j).  Four evaluations of that law are
provided.  A banded forward recursion over the posterior predictive chain
(`posterior_pmf_dp`), the reference.  Two production routes, which
`posterior_pmfs` picks between.  At alpha > 0, a mixture over the prior
chain: given (n, j), K_{n,m} has the law of K*_R, with R ~
BetaBinomial(m; theta + alpha j, n - alpha j) the draws that leave the
seen species and K*_r the species count of r prior draws with theta' =
theta + alpha j (Pitman, 1996), so one prior pass to the top of R's
window serves every m.  At alpha = 0 (the Dirichlet prior), where draw i
founds a species with probability theta / (theta + n + i) whatever came
before, a product of those m Bernoulli pmfs (`_bernoulli_product_pmfs`),
built by convolution from one product tree.  And the closed form in
terms of generalized factorial coefficients (small-m validation path),
one positive log-space triangle at every alpha, the Dirichlet case
included.

The DP and the mixture run on one kernel, `_chain_steps`, the forward
recursion of a chain whose draw i founds a species with probability
(theta_total + alpha k) / (base + i).  `posterior_pmf_dp` stays a route
of its own, and the reference, because it runs the posterior chain
directly to m: a check of the mixture against it tests Pitman's identity
and the mixture's window and weights, and a check of the Bernoulli
product against it tests the product with no arithmetic in common.  The
tests keep a plain per-draw recursion as an independent reference for
the kernel's arithmetic.

The kernel keeps only the band of counts whose probability is at least
`_DP_FLOOR` (1e-30), so a pass costs O(m * band) rather than O(m^2); the
mass a pass drops is at most (2m + 2) * _DP_FLOOR, too little for the
2**-53 grid of a uniform to see.  The mixture also drops R's weights
below `_DP_FLOOR`, at most (m + 1) * _DP_FLOOR, and the product the
entries of its blocks and partial products below it.  `posterior_pmfs`
alone picks an exact interval's route: the m it returns a pmf for draw
their replicates from it by inverse CDF, and the rest run the thinning
chain.

No BLAS call of the package covers more than `_BLAS_CHUNK` (10 000)
entries.  Above that size the bundled OpenBLAS hands a dot or an axpy to
worker threads, which on a 2-vCPU host costs ten or more times a call of
10 000 entries and leaves the workers spinning on the other cores through
the calls that follow.  A longer vector goes through `_dot` or `_axpy` in
consecutive pieces of at most 10 000 entries; every shorter call is made
as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.special import digamma

from .combinatorics import U_MAX, GfcTable, log_rising_factorial
from .errors import DomainError, NumericalIntegrityError, SizeLimitError, check_count

# Largest m of the pmf passes: `posterior_pmfs` leaves larger m to the
# thinning chain, and `posterior_pmf_dp` refuses them.
DP_MAX = 20000

# Edge entries of the DP band below this are set to 0 and leave the band,
# and weights of R below it fall outside the mixture's window.  The mass
# the band drops, at most (2 * DP_MAX + 2) * 1e-30 ~ 4e-26, lies far
# below the 2**-53 grid of the uniforms that draw from the pmf, so a lower
# floor would only widen the band (this one keeps about 12 sd of tail on
# each side) and slow every draw of the recursion.
_DP_FLOOR = 1e-30

# Most entries of one BLAS call: OpenBLAS runs a level-1 call over more
# entries than this (its MULTI_THREAD_MINIMAL) on worker threads.  It is a
# multiple of the axpy kernels' 16-wide unroll, so an axpy split at its
# multiples rounds every entry as one call does.
_BLAS_CHUNK = 10_000


def _dot(x, y):
    """x @ y for 1-d arrays in BLAS calls of at most `_BLAS_CHUNK` entries:
    bitwise x @ y up to that size, and above it the dots of consecutive
    pieces of `_BLAS_CHUNK` entries summed in order, a fixed order that no
    thread count changes."""
    if x.size <= _BLAS_CHUNK:
        return x @ y
    total = 0.0
    for s in range(0, x.size, _BLAS_CHUNK):
        total += x[s : s + _BLAS_CHUNK] @ y[s : s + _BLAS_CHUNK]
    return total


def _axpy(x, y, n, a, offx=0, incx=1, offy=0):
    """`daxpy(x, y, n, a, offx, incx, offy)` into a unit-stride y, in calls
    of at most `_BLAS_CHUNK` entries.  An axpy is elementwise and the
    pieces start at multiples of the kernels' unroll, so y gets the bytes
    of one call."""
    for s in range(0, n, _BLAS_CHUNK):
        daxpy(x, y, min(_BLAS_CHUNK, n - s), a, offx + s * incx, incx, offy + s)


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


@dataclass(frozen=True)
class SampleSummary:
    """Observed sample: size n and distinct species j, which are all that
    the posterior depends on, plus the species frequencies when they are
    known (only the empirical-Bayes fit and the export need them)."""

    n: int
    j: int
    freqs: tuple[int, ...] | None = None

    def __post_init__(self):
        check_count(self.n, 1, "n")
        check_count(self.j, 1, "j")
        if self.j > self.n:
            raise DomainError(f"need 1 <= j <= n, got n={self.n}, j={self.j}")
        if self.freqs is None:
            return
        freqs = tuple(self.freqs)
        if len(freqs) != self.j:
            raise DomainError(f"freqs has {len(freqs)} entries, expected j={self.j}")
        for f in freqs:
            check_count(f, 1, "every frequency")
        # exact on checked counts: numpy integers become the Python ints
        # that json and mpmath take
        freqs = tuple(map(int, freqs))
        object.__setattr__(self, "freqs", freqs)
        if sum(freqs) != self.n:
            raise DomainError(f"frequencies sum to {sum(freqs)}, expected n={self.n}")

    @classmethod
    def from_freqs(cls, freqs) -> "SampleSummary":
        freqs = tuple(sorted(freqs, reverse=True))
        # a fractional frequency fails the check in __post_init__, so int()
        # truncates nothing that is kept
        return cls(n=int(sum(freqs)), j=len(freqs), freqs=freqs)


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
        """Mean of the pmf, a dot in pieces of at most 10 000 entries
        (`_dot`), so that no call runs on BLAS worker threads and the
        value does not depend on their number."""
        return float(_dot(np.arange(self.probs.size), self.probs))

    def variance(self) -> float:
        """Variance of the pmf about `mean`, a dot in pieces as there."""
        k = np.arange(self.probs.size)
        mu = self.mean()
        return float(_dot((k - mu) ** 2, self.probs))

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def quantile(self, p: float) -> int:
        """Smallest k with Pr[K <= k] >= p; support_max when p exceeds the
        float cdf's last entry, which can round to just below 1."""
        if not 0.0 < p <= 1.0:
            raise DomainError("quantile level must lie in (0, 1]")
        return min(int(np.searchsorted(self.cdf(), p)), self.support_max)


def posterior_mean(params: PYParams, sample: SampleSummary, m: int) -> float:
    """Posterior expected number of new species in m additional draws."""
    check_count(m)
    if m == 0:
        return 0.0
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    if a == 0.0:
        return float(t * (digamma(t + n + m) - digamma(t + n)))
    log_ratio = log_rising_factorial(t + n + a, m) - log_rising_factorial(t + n, m)
    return float((j + t / a) * np.expm1(log_ratio))


def _chain_steps(alpha: float, theta_total: float, base: float, m: int):
    """Forward recursion of the species count of a chain of m draws, the
    package's one pmf kernel.

    After i draws with k species, draw i founds a new species with
    probability p_k = c_k / (base + i), c_k = theta_total + alpha k.  The
    posterior chain (`posterior_pmf_dp`) takes theta_total = theta +
    alpha j and base = theta + n, and counts new species; the prior chain
    (`_mixture_pmfs`) takes base = theta_total.  Every c_k is positive:
    theta + alpha j > 0 for j >= 1 and theta > -alpha.

    Yields (buffer, lo, hi) after 0, 1, ..., m draws: the unnormalised pmf
    buffer (length m + 1, updated in place) and its live band [lo, hi).
    After each draw, band entries at either edge below `_DP_FLOOR` are set
    to 0 and dropped, so every entry outside the band is 0.

    The first draw is written in closed form, (1 - p_0, p_0) with p_0 =
    theta_total / base; for the prior chain x / x is exactly 1, so that
    pass starts from the exact state K*_1 = 1.  Every later draw runs in
    flux form: with the flux F_k = P_k c_k into k + 1, draw i maps P to

        P_k + (F_{k-1} - F_k) / (base + i),

    the map P_k (1 - p_k) + P_{k-1} p_{k-1} without forming p or 1 - p, so
    no p needs a clamp at 1.  Where p_k rounds to 1 (theta near 1e300, or
    alpha near 1 at theta 1e17), P_k - F_k / (base + i) can round to just
    below 0 at the band's lower edge; that entry is below the floor and
    leaves the band like any other.
    A block of up to 64 draws runs on the fixed column window [lo, hi +
    rows), the band at the block's start plus the columns it can reach;
    entries of the window outside the band are 0 and stay 0, except the
    one the band grows into.  A draw makes three calls over the window:
    F = P * c, then two BLAS axpys into P, of -F_k and of F_{k-1}, each
    times 1 / (base + i); over a wide band an axpy costs a fraction of a
    ufunc over the same entries, so two of them beat a subtract and one
    axpy.  A window of more than 10 000 entries takes its axpys in pieces
    (`_axpy`), chosen once a block, so that none runs on BLAS worker
    threads.
    """
    probs = np.zeros(m + 1)
    probs[0] = 1.0
    yield probs, 0, 1
    if m == 0:
        return
    p0 = theta_total / base
    probs[0], probs[1] = 1.0 - p0, p0
    # Per-call overhead is most of a draw at the usual band widths, so the
    # ufunc takes `out` by position, the names it uses are local, and the
    # trim loops read and write the band's edges as Python floats.
    multiply, floor, pv = np.multiply, _DP_FLOOR, memoryview(probs)
    lo, hi = 0, 2
    while pv[lo] < floor:
        pv[lo] = 0.0
        lo += 1
    while pv[hi - 1] < floor:
        pv[hi - 1] = 0.0
        hi -= 1
    yield probs, lo, hi
    c = theta_total + alpha * np.arange(m + 1, dtype=float)
    # flux[0] stays 0: the flux into the window's first column from below,
    # where every entry is 0
    flux = np.zeros(m + 2)
    i = 1
    while i < m:
        rows = min(64, m - i)
        b_lo, b_hi = lo, min(hi + rows, m + 1)
        width = b_hi - b_lo
        state, c_win = probs[b_lo:b_hi], c[b_lo:b_hi]
        f_out, f_in = flux[1 : width + 1], flux[:width]
        axpy = daxpy if width <= _BLAS_CHUNK else _axpy
        for r in range(i, i + rows):
            if hi <= m:
                hi += 1
            multiply(state, c_win, f_out)
            step = 1.0 / (base + r)
            axpy(f_out, state, width, -step)
            axpy(f_in, state, width, step)
            while pv[lo] < floor:
                pv[lo] = 0.0
                lo += 1
            while pv[hi - 1] < floor:
                pv[hi - 1] = 0.0
                hi -= 1
            yield probs, lo, hi
        i += rows


def _beta_binomial_log_weights(a: float, b: float, m: int) -> np.ndarray:
    """log P(R = r), r = 0..m, for R ~ BetaBinomial(m; a, b), from the
    ratio w(r + 1) / w(r) = (m - r)(r + a) / ((r + 1)(m - r - 1 + b)).  The
    log ratios are summed outward from the mode, so the partial sums across
    the window stay small and keep their digits, and then normalised."""
    r = np.arange(m, dtype=float)
    step = np.log((m - r) / (r + 1.0)) + (np.log(r + a) - np.log(m - r - 1.0 + b))
    mode = int(np.argmax(np.concatenate(([0.0], np.cumsum(step)))))
    log_w = np.zeros(m + 1)
    np.cumsum(step[mode:], out=log_w[mode + 1 :])
    log_w[:mode] = -np.cumsum(step[:mode][::-1])[::-1]
    return log_w - math.log(np.exp(log_w).sum())


def _mixture_pmfs(
    alpha: float, theta_total: float, windows: dict[int, tuple[int, np.ndarray]]
) -> dict[int, Pmf]:
    """Pmfs of K*_R by one pass of the prior chain (`_chain_steps`) to
    the top of every window: for each m, windows[m] = (r_lo, w) holds the
    weights w of R = r_lo, r_lo + 1, ..., and the pass adds w(r) times its
    band after r draws into the pmf at m, one in-place BLAS axpy per step
    and m.  A band of more than 10 000 entries is added in pieces
    (`_axpy`), so that no axpy runs on BLAS worker threads."""
    if not windows:
        return {}
    accs = {m: np.zeros(m + 1) for m in windows}
    # (first step, one past the last, weights, accumulator), popped by first step
    pending = sorted(((r_lo, r_lo + w.size, w.tolist(), accs[m])
                      for m, (r_lo, w) in windows.items()), key=lambda job: -job[0])
    ends = {job[1] for job in pending}
    r_max = max(ends) - 1
    # a band after r >= 1 draws holds at most r entries, so a pass of at
    # most _BLAS_CHUNK draws never tests a band's width
    wide = r_max > _BLAS_CHUNK
    active = []
    for r, (probs, lo, hi) in enumerate(_chain_steps(alpha, theta_total, theta_total, r_max)):
        while pending and pending[-1][0] == r:
            active.append(pending.pop())
        axpy = _axpy if wide and hi - lo > _BLAS_CHUNK else daxpy
        for r_lo, _, w, acc in active:
            # acc[lo:hi] += w(r) * probs[lo:hi]
            axpy(probs, acc, hi - lo, w[r - r_lo], lo, 1, lo)
        if r + 1 in ends:
            active = [job for job in active if job[1] > r + 1]
    return {m: Pmf(acc / acc.sum()) for m, acc in accs.items()}


def _trim(off: int, vec: np.ndarray) -> tuple[int, np.ndarray]:
    """(off, vec) with vec's entries below `_DP_FLOOR` set to 0 and vec cut
    to a copy of its support, the cut added to the offset.  A pmf of
    k + 1 entries has one of at least 1 / (k + 1), so some entry stays."""
    vec[vec < _DP_FLOOR] = 0.0
    (live,) = np.nonzero(vec)
    return off + int(live[0]), vec[live[0] : live[-1] + 1].copy()


def _trim_columns(cols: np.ndarray, offs: np.ndarray):
    """`_trim` of every column of `cols` at once: each column shifted so
    that its support starts at row 0, with zeros past its support, in as
    many rows as the widest support.  Returns (columns, offsets, widths)."""
    cols[cols < _DP_FLOOR] = 0.0
    live = cols > 0.0
    lo = live.argmax(axis=0)
    width = live.shape[0] - live[::-1].argmax(axis=0) - lo
    rows = int(width.max())
    padded = np.concatenate([cols, np.zeros((rows, cols.shape[1]))])
    return np.take_along_axis(padded, lo + np.arange(rows)[:, None], axis=0), offs + lo, width


# Bernoullis in a leaf of the Dirichlet product tree, and the levels above
# the leaves whose pairs are convolved on 2-d arrays, a level at a time;
# the levels above those convolve one pair at a time.
_LEAF = 64
_COLUMN_LEVELS = 3


def _tree_node(levels, nodes, level: int, b: int) -> tuple[int, np.ndarray]:
    """Node b of the product tree's level `level`, the Bernoullis [b, b +
    1) * _LEAF * 2**level: a column of `levels` up to their top, and above
    it the trimmed convolution of its two children; cached in `nodes`."""
    if (level, b) not in nodes:
        if level < len(levels):
            cols, offs, width = levels[level]
            nodes[level, b] = int(offs[b]), cols[: width[b], b].copy()
        else:
            (off_l, left), (off_r, right) = (
                _tree_node(levels, nodes, level - 1, c) for c in (2 * b, 2 * b + 1))
            nodes[level, b] = _trim(off_l + off_r, np.convolve(left, right))
    return nodes[level, b]


def _bernoulli_product_pmfs(theta: float, n: int, ms) -> dict[int, Pmf]:
    """Pmfs at the m of `ms` of K_{n,m} at alpha = 0, the sum of m
    independent Bernoulli(p_i), p_i = theta / (theta + n + i), i < m.

    [0, m) splits into aligned dyadic blocks, from the top bit of m down,
    and the pmf is the convolution of the blocks' pmfs, left to right.
    Blocks of `_LEAF` Bernoullis or more are nodes of one product tree
    over [0, max m); the last m mod `_LEAF` Bernoullis are a prefix of a
    leaf.  A leaf runs the Bernoulli update P_k q_i + P_{k-1} p_i, with p_i
    and q_i = (n + i) / (theta + n + i) each formed directly, never as
    1 - p.  The leaves are the columns of one 2-d array, and so are the
    nodes of each of the `_COLUMN_LEVELS` levels above them; higher nodes,
    and the products along m's blocks, are one `np.convolve` each.  Every
    sum is of nonnegative terms, so entries keep their relative accuracy
    down to `_DP_FLOOR`.

    Every node and partial product is cut at the floor to its own support
    (`_trim`) before it is used.  Its entries are then sums of the same
    terms in the same order whatever the grid: zeros past a column's
    support add exactly 0, and `np.convolve` sees only the support.  So
    each m's pmf depends only on (theta, n, m).  The dots of `np.convolve`
    are as long as the shorter support, under 2 000 entries at m <=
    DP_MAX (the sd of K is at most sqrt(m) / 2), so none runs on BLAS
    worker threads."""
    if not ms:
        return {}
    top = max(ms)
    leaves = -(-top // _LEAF)
    rests = {}
    for m in ms:
        rests.setdefault(m % _LEAF, []).append(m)
    # n + i for the Bernoullis of leaf b in column b
    ni = n + np.arange(leaves * _LEAF, dtype=float).reshape(leaves, _LEAF).T.copy()
    total = theta + ni
    p, q = theta / total, np.divide(ni, total, out=ni)
    cols = np.zeros((_LEAF + 1, leaves))
    cols[0] = 1.0
    moved = np.empty((_LEAF, leaves))
    multiply, add = np.multiply, np.add
    tails = {}
    for s in range(_LEAF):
        # cols[k] = cols[k] * q_s + cols[k - 1] * p_s, k <= s + 1, with
        # `out` by position into buffers made once
        below, here, up = moved[: s + 1], cols[: s + 1], cols[1 : s + 2]
        multiply(here, p[s], below)
        multiply(here, q[s], here)
        add(up, below, up)
        for m in rests.get(s + 1, ()):
            tails[m] = _trim(0, cols[: s + 2, m // _LEAF].copy())
    # the nodes of the lowest levels, one column each; level l has blocks
    # of _LEAF * 2**l Bernoullis
    levels = []
    full = top // _LEAF
    if full:
        levels.append(_trim_columns(cols[:, :full], np.zeros(full, dtype=np.int64)))
        while len(levels) <= _COLUMN_LEVELS and levels[-1][1].size > 1:
            cols, offs, _ = levels[-1]
            pairs, rows = offs.size // 2, cols.shape[0]
            left, right = cols[:, 0 : 2 * pairs : 2], cols[:, 1 : 2 * pairs : 2]
            # out[k + t] += left[k] * right[t], summed over k in order
            out, term = np.zeros((2 * rows - 1, pairs)), np.empty((rows, pairs))
            for k in range(rows):
                multiply(right, left[k], term)
                add(out[k : k + rows], term, out[k : k + rows])
            levels.append(_trim_columns(out, offs[0 : 2 * pairs : 2] + offs[1 : 2 * pairs : 2]))
    # heads[e]: the product over the first e leaves, e's blocks from its
    # top bit down, each a product of the last head and the next block
    nodes, heads, pmfs = {}, {}, {}
    for m in ms:
        off, vec, e, q = 0, np.ones(1), 0, m // _LEAF
        for level in reversed(range(q.bit_length())):
            if q >> level & 1:
                e += 1 << level
                if e not in heads:
                    off_b, block = _tree_node(levels, nodes, level, (e >> level) - 1)
                    heads[e] = _trim(off + off_b, np.convolve(vec, block))
                off, vec = heads[e]
        if m in tails:
            off_t, tail = tails[m]
            off, vec = _trim(off + off_t, np.convolve(vec, tail))
        probs = np.zeros(m + 1)
        probs[off : off + vec.size] = vec
        pmfs[m] = Pmf(probs / probs.sum())
    return pmfs


def posterior_pmfs(params: PYParams, sample: SampleSummary, ms) -> dict[int, Pmf]:
    """Exact posterior pmfs at the m of `ms` up to DP_MAX, the one place
    that picks an exact route.  Every m of `ms` is checked first; those
    above DP_MAX are left out of the result, as their exact replicates
    come from the thinning chain (`samplers.sample_k_future`), not a pmf.

    At alpha = 0, K_{n,m} is a sum of m independent Bernoulli(theta /
    (theta + n + i)), and its pmf is their product by convolution
    (`_bernoulli_product_pmfs`): one product tree to the grid's largest
    m, from which each m takes its dyadic blocks.  It is exact up to the
    entries below `_DP_FLOOR` that each block and partial product drops,
    and shares no arithmetic with the DP reference.

    At alpha > 0, K_{n,m} has the law of K*_R (Pitman, 1996): R ~
    BetaBinomial(m; theta + alpha j, n - alpha j) of the m draws leave the
    seen species, and K*_r is the species count of r draws of the prior
    chain with theta' = theta + alpha j.  R's window is where its weight
    is at least `_DP_FLOOR`, [r_lo, r_hi], and one prior pass to the
    largest r_hi of the grid mixes every m (`_mixture_pmfs`).  The mass
    dropped is the band floor's, at most (2m + 2) * _DP_FLOOR, plus R's
    weight outside its window, at most (m + 1) * _DP_FLOOR.

    On both routes each m's pmf depends only on (alpha, theta, n, j, m),
    so a grid gives each m the pmf a call for m alone gives."""
    ms = list(ms)
    for m in ms:
        check_count(m)
    a, n, j = params.alpha, sample.n, sample.j
    served = {m for m in ms if m <= DP_MAX}
    if a == 0.0:
        return _bernoulli_product_pmfs(params.theta, n, served)
    theta_total = params.theta + a * j
    windows = {}
    for m in served:
        w = np.exp(_beta_binomial_log_weights(theta_total, n - a * j, m))
        (kept,) = np.nonzero(w >= _DP_FLOOR)
        windows[m] = (int(kept[0]), w[kept[0] : kept[-1] + 1])
    return _mixture_pmfs(a, theta_total, windows)


def posterior_pmf_dp(params: PYParams, sample: SampleSummary, m: int) -> Pmf:
    """Exact posterior pmf of the new-species count by one pass of the
    forward recursion over the posterior predictive chain to m, the
    reference that both routes of `posterior_pmfs` are checked against; entries
    below `_DP_FLOOR` at the edges of the band are dropped, at most
    (2m + 2) * _DP_FLOOR in all."""
    check_count(m)
    if m > DP_MAX:
        raise SizeLimitError(f"m={m} exceeds dp_max={DP_MAX}")
    a, t = params.alpha, params.theta
    for probs, _, _ in _chain_steps(a, t + a * sample.j, t + sample.n, m):
        pass
    return Pmf(probs / probs.sum())


def posterior_pmf_closed(params: PYParams, sample: SampleSummary, m: int) -> Pmf:
    """Posterior pmf from the closed form, m capped at U_MAX:

        P(K = k) = prod_{i<k} (theta + alpha (j + i)) * D(m, k) / (theta + n)_(m)

    with D(m, k) = C(m, k; alpha, -n + j alpha) / alpha^k the rescaled
    generalized factorial coefficients (non-central Stirling numbers
    |s(m, k; n)| at alpha = 0) of `GfcTable`.  Every factor is positive,
    so the weights are summed in log space after subtracting the largest;
    their sum must reproduce (theta + n)_(m), the expansion identity, to
    within 1e-9 in log."""
    check_count(m)
    if m > U_MAX:
        raise SizeLimitError(f"m={m} exceeds u_max={U_MAX}")
    a, t, n, j = params.alpha, params.theta, sample.n, sample.j
    log_w = GfcTable(m, a, -n + j * a).log_row(m)
    # theta + alpha * (j + i) >= theta + alpha > 0; products, not log-gamma
    # differences, which lose digits at large theta
    log_w[1:] += np.cumsum(np.log(t + a * (j + np.arange(m))))
    top = log_w.max()
    w = np.exp(log_w - top)
    total = w.sum()
    log_total = top + math.log(total)
    log_norm = float(np.log(t + n + np.arange(m)).sum())
    if abs(log_total - log_norm) > 1e-9:
        raise NumericalIntegrityError(
            f"closed-form weights sum to exp({log_total:.17g}), "
            f"expected (theta + n)_(m) = exp({log_norm:.17g})"
        )
    return Pmf(w / total)
