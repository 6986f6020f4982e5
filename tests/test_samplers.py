import math

import mpmath
import numpy as np
import pytest
from scipy.special import erfinv

from unseen import samplers
from unseen.errors import DomainError, MethodUnavailableError, SizeLimitError
from unseen.model import (
    DP_MAX,
    Pmf,
    PYParams,
    SampleSummary,
    posterior_mean,
    posterior_pmf_dp,
    posterior_pmfs,
)
from unseen.samplers import (
    MLLimitParams,
    RngStream,
    sample_from_pmf,
    sample_k_future,
    sample_mittag_leffler,
    sample_ml_limit,
    sample_prior_kstar,
    sample_prior_partition,
)

from conftest import m_frak, s_frak_sq


def ml_moment(alpha: float, q: float, p: float) -> float:
    """Exact p-th moment of S_{alpha, q}:
    Gamma(q+p+1)Gamma(q*alpha+1) / (Gamma(q+1)Gamma(q*alpha+p*alpha+1)),
    in 60-digit arithmetic: float log-gamma differences lose every digit
    at q ~ 1e20."""
    with mpmath.workdps(60):
        a, q, p = mpmath.mpf(alpha), mpmath.mpf(q), mpmath.mpf(p)
        lg = mpmath.loggamma
        return float(mpmath.exp(lg(q + p + 1) - lg(q + 1) + lg(q * a + 1) - lg(q * a + p * a + 1)))


def log_zolotarev_excess(u: float, alpha: float) -> mpmath.mpf:
    """g(u) = log A(pi*u) - log A(0) from the Zolotarev function's own
    formula, in 80-digit arithmetic (the caller's precision applies to
    any further arithmetic on the result)."""
    with mpmath.workdps(80):
        a, x = mpmath.mpf(alpha), mpmath.pi * mpmath.mpf(u)
        log_a = (a * mpmath.log(mpmath.sin(a * x)) + (1 - a) * mpmath.log(mpmath.sin((1 - a) * x))
                 - mpmath.log(mpmath.sin(x))) / (1 - a)
        return log_a - (a * mpmath.log(a) + (1 - a) * mpmath.log(1 - a)) / (1 - a)


def step_chain(gen, count: int, m: int, numer0: float, alpha: float, denom0: float):
    """Reference predictive chain, one Bernoulli step per draw: with k
    species so far, draw i founds a new one with probability
    (numer0 + alpha*k) / (denom0 + i)."""
    k = np.zeros(count)
    for i in range(m):
        k += gen.random(count) < (numer0 + alpha * k) / (denom0 + i)
    return k.astype(np.int64)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123, 7).generator().random(16)
        b = RngStream(123, 7).generator().random(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 0).generator().random(16)
        b = RngStream(123, 1).generator().random(16)
        assert not np.array_equal(a, b)

    def test_split_is_deterministic(self):
        assert RngStream(5, 2).split(9) == RngStream(5, 2).split(9)
        assert RngStream(5, 2).split(9) != RngStream(5, 2).split(10)

    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, "3", None])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(DomainError, match="seed"):
            RngStream(bad)
        with pytest.raises(DomainError, match="stream_id"):
            RngStream(1, bad)

    @pytest.mark.parametrize("stream,index", [(RngStream(1, 1), -1), (RngStream(1, 0), 1_000_003),
                                              (RngStream(1, 0), 1.0)])
    def test_split_index_out_of_range_rejected(self, stream, index):
        """Indices outside [0, 1_000_003) would collide with another path:
        RngStream(1, 1).split(-1) would be RngStream(1, 0).split(1_000_002),
        and RngStream(1, 0).split(1_000_003) would be RngStream(1, 1).split(0)."""
        with pytest.raises(DomainError, match="split index"):
            stream.split(index)

    def test_split_paths_distinct(self):
        """Distinct split paths of depth 1 to 3 from one stream give
        distinct streams."""
        import itertools

        indices = (0, 1, 999, 1000, 1_000_002)
        paths = [p for depth in (1, 2, 3) for p in itertools.product(indices, repeat=depth)]
        ids = set()
        for path in paths:
            stream = RngStream(1)
            for index in path:
                stream = stream.split(index)
            ids.add(stream.stream_id)
        assert len(ids) == len(paths) == 155

    def test_numpy_integer_seed_accepted(self):
        assert RngStream(np.int64(5), 2).split(9) == RngStream(5, 2).split(9)

    def test_sampler_level_determinism(self):
        params, sample = PYParams(0.5, 1.0), SampleSummary(10, 4)
        rng = RngStream(99)
        a = sample_k_future(params, sample, 50, rng, size=32)
        b = sample_k_future(params, sample, 50, rng, size=32)
        assert np.array_equal(a, b)
        ml_a = sample_ml_limit(params, sample, 50, rng, size=32)
        ml_b = sample_ml_limit(params, sample, 50, rng, size=32)
        assert np.array_equal(ml_a, ml_b)

    def test_draw_counter_moves(self):
        before = samplers.draw_count()
        sample_from_pmf(Pmf(np.array([0.25, 0.75])), RngStream(1), size=10)
        assert samplers.draw_count() - before == 10


class TestKFutureChain:
    def test_m_zero(self):
        k = sample_k_future(PYParams(0.5, 0.5), SampleSummary(2, 1), 0, RngStream(0), size=3)
        assert k.tolist() == [0, 0, 0]

    def test_tiny_theta_dirichlet(self):
        # alpha = 0 with theta ~ 0: new-species probability ~ 0
        params, sample = PYParams(0.0, 1e-12), SampleSummary(5, 2)
        draws = sample_k_future(params, sample, 20, RngStream(4), size=200)
        assert np.all(draws == 0)

    def test_against_dp_pmf(self):
        """Empirical law of the chain vs the exact DP pmf, TV <= 4/sqrt(R)."""
        params, sample, m = PYParams(0.5, 0.5), SampleSummary(2, 1), 2
        reps = 200_000
        draws = sample_k_future(params, sample, m, RngStream(7), size=reps)
        emp = np.bincount(draws, minlength=m + 1) / reps
        dp = posterior_pmf_dp(params, sample, m).probs
        tv = 0.5 * np.abs(emp - dp).sum()
        assert tv <= 4.0 / math.sqrt(reps)

    def test_against_dp_pmf_grid(self):
        reps = 40_000
        bound = 4.0 / math.sqrt(reps)
        for idx, (alpha, theta, n, j, m) in enumerate([
            (0.0, 1.0, 5, 3, 10), (0.25, 10.0, 12, 4, 8),
            (0.75, 0.5, 3, 2, 12), (0.5, 1.0, 30, 15, 6),
            # p_bar = 1 from the start, or p clamped at 1 or near 0
            (0.5, 1e300, 20, 10, 30), (0.999999999, 1e17, 1, 1, 50), (0.3, -0.29, 50, 1, 30),
        ]):
            params, sample = PYParams(alpha, theta), SampleSummary(n, j)
            draws = sample_k_future(params, sample, m, RngStream(21, idx), size=reps)
            emp = np.bincount(draws, minlength=m + 1) / reps
            dp = posterior_pmf_dp(params, sample, m).probs
            assert 0.5 * np.abs(emp - dp).sum() <= bound

    def test_large_m_matches_dp(self):
        """At m = 20000 the empirical cdf of chain draws matches the exact DP
        cdf (KS; the support is too wide for the small-instance TV bound)."""
        params, sample, m = PYParams(0.5, 2.0), SampleSummary(400, 50), 20_000
        dp = posterior_pmf_dp(params, sample, m)
        reps = 100_000
        draws = sample_k_future(params, sample, m, RngStream(25), size=reps)
        emp_cdf = np.cumsum(np.bincount(draws, minlength=m + 1)) / reps
        ks = np.abs(emp_cdf - dp.cdf()).max()
        assert ks <= 2.5 / math.sqrt(reps)
        se = draws.std() / math.sqrt(reps)
        assert abs(draws.mean() - dp.mean()) <= 4.0 * se

    def test_same_law_as_step_chain_above_dp_max(self):
        """Above DP_MAX, where no pmf pass runs, the prior chain run for
        R ~ BetaBinomial draws and the step-by-step reference posterior
        chain have the same law."""
        from scipy.stats import ks_2samp

        (a, t), (n, j), m, reps = (0.54, 26.67), (977, 300), DP_MAX + 1, 10_000
        steps = step_chain(RngStream(27, 0).generator(), reps, m, t + a * j, a, t + n)
        chain = sample_k_future(PYParams(a, t), SampleSummary(n, j), m, RngStream(27, 1),
                                size=reps)
        assert ks_2samp(steps, chain).pvalue > 1e-4

    @pytest.mark.parametrize("alpha,theta,n,j", [
        (0.54, 26.67, 977, 300), (0.0, 178.48, 2000, 447), (0.999999, 0.5, 40, 3),
    ])
    def test_seam_at_dp_max(self, alpha, theta, n, j):
        """At m = DP_MAX the chain's draws lie within the DKW band at
        false-alarm 1e-6 of the pmf that `exact_interval` draws from there:
        the two exact routes agree where they meet."""
        params, sample, reps = PYParams(alpha, theta), SampleSummary(n, j), 10_000
        pmf = posterior_pmfs(params, sample, [DP_MAX])[DP_MAX]
        draws = sample_k_future(params, sample, DP_MAX, RngStream(29), size=reps)
        emp_cdf = np.cumsum(np.bincount(draws, minlength=DP_MAX + 1)) / reps
        gap = np.abs(emp_cdf - pmf.cdf()).max()
        assert gap <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * reps)), gap

    def test_m_zero_draws_nothing(self):
        before = samplers.draw_count()
        k = sample_k_future(PYParams(0.0, 5.0), SampleSummary(1000, 30), 0, RngStream(3), size=50)
        assert samplers.draw_count() == before
        assert np.array_equal(k, np.zeros(50, dtype=np.int64))

    def test_size_zero_is_empty(self):
        k = sample_k_future(PYParams(0.5, 2.0), SampleSummary(400, 50), 30_000, RngStream(3),
                            size=0)
        assert k.shape == (0,) and k.dtype == np.int64

    def test_m_above_binomial_limit_rejected_before_any_draw(self):
        """numpy draws binomial counts up to 2**63 - 1 only, so a larger m
        is a SizeLimitError before anything is drawn, not an OverflowError
        from the draw of R; the limit itself passes the check."""
        params, sample = PYParams(0.5, 2.0), SampleSummary(400, 50)
        before = samplers.draw_count()
        for m in (2**63, 10**20):
            with pytest.raises(SizeLimitError, match=r"2\*\*63 - 1"):
                sample_k_future(params, sample, m, RngStream(3), size=10)
        assert samplers.draw_count() == before
        k = sample_k_future(params, sample, 2**63 - 1, RngStream(3), size=0)
        assert k.shape == (0,) and k.dtype == np.int64

    @pytest.mark.parametrize("alpha,theta,n,j,m,seed,digest", [
        (0.54, 26.67, 977, 300, 97_700, 25,
         "d9126a687ce0543c07c6a811a70cb96d5b8e573cfa17b51b55bbaa6a131f8012"),
        (0.0, 178.48, 2000, 447, 50_000, 26,
         "2ffcdd0f5854c419ae9be0cc3a9b5569642b1753af34a52f21e87f1857da9e15"),
        (0.3, 10.0, 2000, 200, 30_000, 27,
         "37c54cf3b5766b29aacd0c03fa94c2775933a0f71f9dc3940d816c6aece7c181"),
    ])
    def test_output_pinned(self, alpha, theta, n, j, m, seed, digest):
        """Chain draws keep their bytes for a given stream."""
        import hashlib

        k = sample_k_future(PYParams(alpha, theta), SampleSummary(n, j), m, RngStream(seed),
                            size=400)
        assert hashlib.sha256(np.asarray(k, dtype="<i8").tobytes()).hexdigest() == digest


class TestChainLanes:
    LENGTHS = [5, 0, 20_000, 7, 300]

    def lanes(self, lengths):
        return samplers._chain(RngStream(31).generator(), lengths, 0.5, 2.0)

    def test_lane_keeps_its_draws(self):
        """A lane's count does not move when another lane's length does."""
        base = self.lanes(self.LENGTHS)
        for lane in range(len(self.LENGTHS)):
            for length in (0, 3, 20_000):
                lengths = list(self.LENGTHS)
                lengths[lane] = length
                moved = self.lanes(lengths)
                others = np.arange(len(lengths)) != lane
                assert np.array_equal(moved[others], base[others]), (lane, length)

    def test_lane_lengths_respected(self):
        k = self.lanes(self.LENGTHS)
        assert k.dtype == np.int64 and k[1] == 0
        # the first prior draw always founds a species, and no lane counts more
        # species than draws
        assert np.all(k[np.array(self.LENGTHS) > 0] >= 1) and np.all(k <= self.LENGTHS)


class TestSampleFromPmf:
    """Inverse-CDF draws from an exact pmf: one uniform per draw."""

    @pytest.mark.parametrize("make_pmf", [
        lambda: posterior_pmf_dp(PYParams(0.54, 26.67), SampleSummary(977, 300), 977),
        lambda: posterior_pmf_dp(PYParams(0.0, 206.07), SampleSummary(2000, 489), 5000),
        lambda: Pmf(np.array([0.0, 0.25, 0.0, 0.5, 0.25, 0.0])),
    ], ids=["pitman_yor", "dirichlet", "zero_entries"])
    def test_dkw_bound(self, make_pmf):
        """sup_k |F_N(k) - F(k)| stays within the DKW bound at false-alarm
        1e-6, and entries of probability 0 are never drawn."""
        pmf, reps = make_pmf(), 100_000
        before = samplers.draw_count()
        draws = sample_from_pmf(pmf, RngStream(41), size=reps)
        assert samplers.draw_count() - before == reps
        counts = np.bincount(draws, minlength=pmf.probs.size)
        assert counts.size == pmf.probs.size
        assert not counts[pmf.probs == 0.0].any()
        gap = np.max(np.abs(np.cumsum(counts) / reps - pmf.cdf()))
        assert gap <= math.sqrt(math.log(2.0 / 1e-6) / (2.0 * reps)), gap

    def test_scalar(self):
        # one draw comes back as an array of one
        k = sample_from_pmf(Pmf(np.array([0.0, 1.0])), RngStream(1), size=1)
        assert k.tolist() == [1]

    def test_same_law_as_chain(self):
        """Draws from the DP pmf and from the predictive chain at the same
        (params, m) have the same law."""
        from scipy.stats import ks_2samp

        params, sample, m, reps = PYParams(0.54, 26.67), SampleSummary(977, 300), 2000, 20_000
        from_pmf = sample_from_pmf(posterior_pmf_dp(params, sample, m), RngStream(27, 1), size=reps)
        chain = sample_k_future(params, sample, m, RngStream(27, 0), size=reps)
        assert ks_2samp(from_pmf, chain).pvalue > 1e-4


class TestPriorChain:
    def test_first_draw_founds_species(self):
        draws = sample_prior_kstar(0.5, 2.0, 1, RngStream(3), size=100)
        assert np.all(draws == 1)

    def test_mean_matches_clt_constant(self):
        m, lam, alpha = 10_000, 1.0, 0.0
        reps = 20_000
        draws = sample_prior_kstar(alpha, lam * m, m, RngStream(11), size=reps)
        se = draws.std() / math.sqrt(reps)
        assert abs(draws.mean() - m * m_frak(alpha, lam)) <= 3.0 * se + 1.0

    def test_variance_matches_clt_constant(self):
        m, lam, alpha = 10_000, 0.5, 0.5
        reps = 20_000
        draws = sample_prior_kstar(alpha, lam * m, m, RngStream(13), size=reps)
        target = m * s_frak_sq(alpha, lam)
        assert abs(draws.var() / target - 1.0) <= 0.05

    @pytest.mark.parametrize("alpha,theta_total,m,seed,size,digest", [
        # 3568 rounds at 2000 lanes
        (0.9, 1.0, 5000, 37, 2000,
         "2a7a6cf1e99c4262df153ad9645b7ac9d491c642370edea3c09ac3d96ef0a0d3"),
        (0.54, 26.67, 5000, 36, 300,
         "2a5cefaa9b9dc78220c84a3f151fed091974cf6e34387b5aad75ff7b22fdb241"),
        (0.5, 2.0, 1000, 34, 1,
         "ede8d7481f2e244c9ea14bc09905430c9fed882d2307c163a84955b6beca259e"),
    ])
    def test_output_pinned(self, alpha, theta_total, m, seed, size, digest):
        """Prior-chain draws keep their bytes for a given stream."""
        import hashlib

        k = sample_prior_kstar(alpha, theta_total, m, RngStream(seed), size=size)
        assert hashlib.sha256(np.asarray(k, dtype="<i8").tobytes()).hexdigest() == digest

    def test_draws_only_the_rounds_it_runs(self):
        """Each round draws its two uniforms per lane as it runs, so the
        chain's draw count is 2 * lanes per round run, and nothing more."""
        shapes = []

        class Counted:
            def __init__(self, gen):
                self.gen = gen

            def random(self, shape):
                shapes.append(shape)
                return self.gen.random(shape)

        lanes, m = 100, 20_000
        expect = samplers._chain(Counted(RngStream(35).generator()), np.full(lanes, m), 0.0, 1.0)
        before = samplers.draw_count()
        k = sample_prior_kstar(0.0, 1.0, m, RngStream(35), size=lanes)
        assert np.array_equal(k, expect)
        assert all(shape == (2, lanes) for shape in shapes) and len(shapes) < 100
        assert samplers.draw_count() - before == 2 * lanes * len(shapes)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_prior_kstar(0.5, -1.0, 5, RngStream(0), size=1)
        with pytest.raises(DomainError):
            sample_prior_kstar(1.2, 1.0, 5, RngStream(0), size=1)


class TestMittagLeffler:
    def test_strictly_positive(self):
        draws = sample_mittag_leffler(0.5, 3.0, RngStream(29), size=50_000)
        assert np.all(draws > 0)

    @pytest.mark.parametrize("alpha,q", [(0.3, 0.7), (0.5, 2.0), (0.54, 1858.6), (0.9, 40.0),
                                         (0.5, 1e2), (0.5, 1e6), (0.5, 1e10), (0.5, 2e20)])
    def test_exact_moments(self, alpha, q):
        """Sample mean and second moment vs the exact Gamma-ratio moments."""
        reps = 200_000
        draws = sample_mittag_leffler(alpha, q, RngStream(31), size=reps)
        for p in (1.0, 2.0):
            target = ml_moment(alpha, q, p)
            got = (draws ** p).mean()
            se = (draws ** p).std() / math.sqrt(reps)
            assert abs(got - target) <= 4.0 * se, (alpha, q, p)

    @pytest.mark.parametrize("q", [0.01, 0.5, 3.0, 40.0, 1e4, 1e8])
    def test_half_against_gamma_law(self, q):
        """At alpha = 1/2 the moments Gamma(q+p+1) Gamma(q/2+1) /
        (Gamma(q+1) Gamma(q/2+p/2+1)) reduce, by the duplication formula,
        to 2^p Gamma((q+1)/2 + p/2) / Gamma((q+1)/2): S_{1/2,q} has the law
        of 2 sqrt(G), G ~ Gamma((q+1)/2).  One-sample KS against it."""
        from scipy.stats import gamma, kstest

        draws = sample_mittag_leffler(0.5, q, RngStream(43), size=200_000)
        law = gamma((q + 1.0) / 2.0)
        assert kstest(draws, lambda s: law.cdf(s * s / 4.0)).pvalue > 1e-3, q

    def test_stream_consistency(self):
        from scipy.stats import ks_2samp

        a = sample_mittag_leffler(0.6, 5.0, RngStream(37, 0), size=100_000)
        b = sample_mittag_leffler(0.6, 5.0, RngStream(37, 1), size=100_000)
        assert ks_2samp(a, b).statistic <= 0.01

    def test_one_round_at_extreme_q(self):
        """2000 draws take one rejection round of 4000 proposals (two
        uniforms each) and 2000 gamma draws, from a q so small that the
        envelope's scale s underflows to 0 to far past the q ~ 2e9 where a
        flat envelope stops converging."""
        for q in (5e-324, 2e9, 2e19, 2e40, 1e300):
            before = samplers.draw_count()
            draws = sample_mittag_leffler(0.5, q, RngStream(0), size=2000)
            assert samplers.draw_count() - before == 2 * 4000 + 2000, q
            assert np.all(np.isfinite(draws) & (draws > 0)), q

    @pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6])
    def test_acceptance_bounded_in_q(self, alpha):
        """The envelope's acceptance rate, the integral of exp(-b*g(u))
        over the truncated Gaussian's mass sqrt(pi)*erf(s)/(2s), stays
        above 0.85 for b from 1e-12 to 1e20; in t = s*u both integrals are
        of order 1."""
        from scipy.integrate import quad

        for b in 10.0 ** np.arange(-12, 21, 2):
            s = math.pi * math.sqrt(alpha * b / 2.0)
            kept, _ = quad(lambda t: math.exp(-b * float(samplers._log_zolotarev_excess(
                np.array([t / s]), alpha)[0])), 0.0, min(s, 40.0), limit=200)
            rate = kept / (math.sqrt(math.pi) / 2.0 * math.erf(s))
            assert 0.85 <= rate <= 1.0 + 1e-9, (alpha, b, rate)

    @pytest.mark.parametrize("alpha,rel", [(1e-6, 1e-6), (1e-3, 1e-6), (0.1, 1e-6), (0.5, 1e-6),
                                           (0.9, 1e-6), (0.999, 1e-6), (1 - 1e-6, 1e-6),
                                           (1e-9, 1e-4)])
    def test_angle_exponent_against_mpmath(self, alpha, rel):
        """g(u) >= kappa*u^2, kappa = pi^2*alpha/2, the bound behind the
        Gaussian envelope, and the float g is within `rel` of the Zolotarev
        formula in 80 digits, from u = 1e-12 (where that formula cancels in
        floats) to 0.999.  The three -log(sin(y)/y) terms of g cancel by a
        factor of about 1/(3*alpha), so at alpha = 1e-9 g keeps about five
        digits."""
        u = np.concatenate([np.logspace(-12, -1, 45), np.linspace(0.1, 0.999, 45)])
        with mpmath.workdps(80):
            ref = [log_zolotarev_excess(x, alpha) for x in u]
            kappa = mpmath.pi ** 2 * mpmath.mpf(alpha) / 2
            assert all(r >= kappa * mpmath.mpf(x) ** 2 for r, x in zip(ref, u))
        got = samplers._log_zolotarev_excess(u, alpha)
        assert np.max(np.abs(got / np.array(ref, dtype=float) - 1.0)) <= rel

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_mittag_leffler(0.0, 1.0, RngStream(0), size=1)
        with pytest.raises(DomainError):
            sample_mittag_leffler(0.5, -1.0, RngStream(0), size=1)


def _where_neg_log_sinc(y):
    """-log(sin(y)/y) with both branches evaluated everywhere, as the
    sampler once formed it."""
    y2 = y * y
    series = y2 * (1 / 6 + y2 * (1 / 180 + y2 * (1 / 2835 + y2 * (1 / 37800 + y2 / 467775))))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y < 0.1, series, -np.log(np.sin(y) / y))


def _where_log_zolotarev_excess(u, alpha):
    x, h = np.pi * u, _where_neg_log_sinc
    return (h(x) - alpha * h(alpha * x) - (1.0 - alpha) * h((1.0 - alpha) * x)) / (1.0 - alpha)


def _two_evaluation_mittag_leffler(alpha, q, rng, size):
    """`sample_mittag_leffler` as it was: g evaluated on every proposal and
    again on the kept angles, each time through `_where_neg_log_sinc`."""
    gen = rng.generator()
    b = (1.0 - alpha) * q
    s = math.pi * math.sqrt(alpha * b / 2.0)
    angles, filled = np.empty(size), 0
    while filled < size:
        todo = size - filled
        k = max(todo, min(2 * todo, samplers._CHUNK))
        v = gen.random(2 * k)
        u = erfinv(v[:k] * math.erf(s)) / s if s > 0.0 else v[:k]
        ok = np.log(v[k:]) <= (s * u) ** 2 - b * _where_log_zolotarev_excess(u, alpha)
        take = u[ok][:todo]
        angles[filled : filled + take.size] = take
        filled += take.size
    gam = gen.gamma(b + 1.0, size=size)
    log_a0 = (alpha * math.log(alpha) + (1.0 - alpha) * math.log1p(-alpha)) / (1.0 - alpha)
    excess = _where_log_zolotarev_excess(angles, alpha)
    return np.exp((1.0 - alpha) * (np.log(gam) - log_a0 - excess))


@pytest.mark.parametrize("alpha", [1e-6, 0.3, 0.5, 0.9, 0.999999])
@pytest.mark.parametrize("q", [0.01, 3.0, 1e4, 1e8])
def test_mittag_leffler_keeps_its_bytes(alpha, q):
    """One evaluation of g per proposal, with the log-sin branch only where
    y >= 0.1, draws the bytes of the two-evaluation, both-branch form."""
    rng = RngStream(23, int(q * 100) % 1_000_003)
    got = sample_mittag_leffler(alpha, q, rng, size=3000)
    assert got.tobytes() == _two_evaluation_mittag_leffler(alpha, q, rng, 3000).tobytes()


def test_neg_log_sinc_keeps_its_bytes():
    y = np.concatenate([[0.0, 0.1, np.nextafter(0.1, 0.0)], np.linspace(0.0, 3.1, 5001),
                        np.logspace(-12, 0.49, 501)])
    assert samplers._neg_log_sinc(y).tobytes() == _where_neg_log_sinc(y).tobytes()


class TestMlLimit:
    def test_alpha_zero_unavailable(self):
        with pytest.raises(MethodUnavailableError, match="alpha = 0"):
            sample_ml_limit(PYParams(0.0, 1.0), SampleSummary(5, 2), 10, RngStream(0), size=1)

    def test_m_zero_degenerate(self):
        params, sample = PYParams(0.5, 0.5), SampleSummary(2, 1)
        assert sample_ml_limit(params, sample, 0, RngStream(0), size=3).tolist() == [0.0] * 3

    def test_params_from_posterior(self):
        params, sample = PYParams(0.54, 26.67), SampleSummary(977, 300)
        ml = MLLimitParams.from_posterior(params, sample, 977)
        assert ml.beta_a == pytest.approx(300 + 26.67 / 0.54)
        assert ml.beta_b == pytest.approx(977 / 0.54 - 300)
        assert ml.stable_q == pytest.approx(1003.67 / 0.54)
        assert ml.scale_c == pytest.approx(1980.67 ** 0.54 - 1003.67 ** 0.54)
        assert ml.scale_c > 0

    @pytest.mark.parametrize("alpha,theta", [(0.5, 1e308), (1e-300, 1e10)])
    def test_overflow_names_theta_and_alpha(self, alpha, theta):
        """Where (theta + n)/alpha or j + theta/alpha overflows, the error
        names the arguments the user gave, not the limit's q."""
        with pytest.raises(DomainError, match="theta = .* alpha = ") as exc:
            MLLimitParams.from_posterior(PYParams(alpha, theta), SampleSummary(100, 40), 10)
        assert "q must be" not in str(exc.value)

    @pytest.mark.parametrize("theta", [1e6, 1e12, 1e17, 1e20])
    def test_scale_c_at_large_theta(self, theta):
        """c = (theta+n+m)^alpha - (theta+n)^alpha keeps its relative
        accuracy where theta + n >> m and the two powers cancel."""
        n, m, alpha = 100, 10, 0.5
        ml = MLLimitParams.from_posterior(PYParams(alpha, theta), SampleSummary(n, 40), m)
        with mpmath.workdps(50):
            base = mpmath.mpf(theta) + n
            ref = float((base + m) ** alpha - base ** alpha)
        assert ml.scale_c == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("alpha,theta,n,j,m,seed,digest", [
        (0.54, 26.67, 977, 300, 977, 41,
         "1f4a72549438c4fbf9025c93ccebb54c0a1f24ae83ecbdef77118ca5d8fad589"),
        (0.5, 1e9, 100, 40, 10, 42,
         "c3211543e7dac03b73ce47346267330775113df39950e38cbe0085f479caf56f"),
        (0.999999, 0.5, 40, 3, 20000, 43,
         "c589110a0fd5bd4ec001f8c45eaeae268264081d48ca3724e90ebc42a3088397"),
    ])
    def test_output_pinned(self, alpha, theta, n, j, m, seed, digest):
        """c * B * S draws keep their bytes for a given stream: B on
        rng.split(0), S on rng.split(1)."""
        import hashlib

        d = sample_ml_limit(PYParams(alpha, theta), SampleSummary(n, j), m, RngStream(seed),
                            size=400)
        assert hashlib.sha256(np.asarray(d, dtype="<f8").tobytes()).hexdigest() == digest

    def test_centering_on_posterior_mean(self):
        """mean(c*B*S) tracks the exact posterior mean within 2%."""
        params, sample = PYParams(0.54, 26.67), SampleSummary(977, 300)
        draws = sample_ml_limit(params, sample, 977, RngStream(41), size=100_000)
        k_hat = posterior_mean(params, sample, 977)
        assert abs(draws.mean() - k_hat) / k_hat <= 0.02


class TestPriorPartition:
    def test_shape_and_determinism(self):
        s1 = sample_prior_partition(0.5, 10.0, 500, RngStream(43))
        s2 = sample_prior_partition(0.5, 10.0, 500, RngStream(43))
        assert s1 == s2
        assert s1.n == 500

    def test_dirichlet_expected_blocks(self):
        # E[K_n] = sum theta/(theta+i) for the Dirichlet case
        n, theta, reps = 400, 5.0, 300
        expect = sum(theta / (theta + i) for i in range(n))
        js = [
            sample_prior_partition(0.0, theta, n, RngStream(47, r)).j
            for r in range(reps)
        ]
        se = np.std(js) / math.sqrt(reps)
        assert abs(np.mean(js) - expect) <= 4.0 * se

    def test_pyp_expected_blocks(self):
        """E[K_n] for alpha > 0 via the exact recursion E[K_{i+1}] =
        E[K_i] + (theta + alpha E[K_i]) / (theta + i)."""
        n, alpha, theta, reps = 300, 0.6, 2.0, 300
        expect = 0.0
        for i in range(n):
            expect += (theta + alpha * expect) / (theta + i)
        js = [
            sample_prior_partition(alpha, theta, n, RngStream(53, r)).j
            for r in range(reps)
        ]
        se = np.std(js) / math.sqrt(reps)
        assert abs(np.mean(js) - expect) <= 4.0 * se


SIZED_SAMPLERS = {
    "sample_k_future": lambda size: sample_k_future(
        PYParams(0.5, 1.0), SampleSummary(10, 3), 5, RngStream(1), size=size),
    "sample_from_pmf": lambda size: sample_from_pmf(
        Pmf(np.array([0.25, 0.75])), RngStream(1), size=size),
    "sample_prior_kstar": lambda size: sample_prior_kstar(0.5, 2.0, 5, RngStream(1), size=size),
    "sample_mittag_leffler": lambda size: sample_mittag_leffler(0.5, 3.0, RngStream(1),
                                                                size=size),
    "sample_ml_limit": lambda size: sample_ml_limit(
        PYParams(0.5, 1.0), SampleSummary(10, 3), 5, RngStream(1), size=size),
}


@pytest.mark.parametrize("name", sorted(SIZED_SAMPLERS))
@pytest.mark.parametrize("size", [2.5, 3.0, "3", -0.5, -3, None])
def test_bad_size_rejected(name, size):
    """A size that is not an integer >= 0 is a DomainError, not a count
    truncated by int() or numpy's ValueError; there is no scalar mode."""
    with pytest.raises(DomainError, match="size"):
        SIZED_SAMPLERS[name](size)


@pytest.mark.parametrize("name", sorted(SIZED_SAMPLERS))
def test_integer_sizes_accepted(name):
    assert SIZED_SAMPLERS[name](np.int64(3)).shape == (3,)
    assert SIZED_SAMPLERS[name](0).shape == (0,)
