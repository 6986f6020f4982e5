import math

import numpy as np
import pytest

from unseen import samplers
from unseen.asymptotics import m_frak, s_frak_sq
from unseen.errors import DomainError, MethodUnavailableError
from unseen.model import PYParams, SampleSummary, posterior_mean, posterior_pmf_dp
from unseen.samplers import (
    MLLimitParams,
    RngStream,
    ml_moment,
    sample_beta,
    sample_k_future,
    sample_mittag_leffler,
    sample_ml_limit,
    sample_prior_kstar,
    sample_prior_partition,
)


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
        sample_beta(2.0, 3.0, RngStream(1), size=10)
        assert samplers.draw_count() - before == 10


class TestKFutureChain:
    def test_m_zero(self):
        assert sample_k_future(PYParams(0.5, 0.5), SampleSummary(2, 1), 0, RngStream(0)) == 0

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
        ]):
            params, sample = PYParams(alpha, theta), SampleSummary(n, j)
            draws = sample_k_future(params, sample, m, RngStream(21, idx), size=reps)
            emp = np.bincount(draws, minlength=m + 1) / reps
            dp = posterior_pmf_dp(params, sample, m).probs
            assert 0.5 * np.abs(emp - dp).sum() <= bound

    def test_waiting_time_path_small_m_matches_dp(self):
        """The event-jump implementation agrees with the DP law when invoked
        directly below its dispatch threshold."""
        from unseen.samplers import _k_future_jump

        reps = 200_000
        for idx, (alpha, theta, n, j, m) in enumerate([
            (0.5, 2.0, 400, 50, 60), (0.0, 5.0, 400, 10, 80), (0.8, 1.0, 2000, 100, 40),
        ]):
            params, sample = PYParams(alpha, theta), SampleSummary(n, j)
            gen = RngStream(23, idx).generator()
            draws = _k_future_jump(params, sample, m, gen, reps)
            emp = np.bincount(draws, minlength=m + 1) / reps
            dp = posterior_pmf_dp(params, sample, m).probs
            assert 0.5 * np.abs(emp - dp).sum() <= 4.0 / math.sqrt(reps)

    def test_waiting_time_path_large_m_matches_dp(self):
        """At m past the dispatch threshold, the empirical cdf of jump draws
        matches the exact DP cdf (KS; the support is too wide for the small-
        instance TV bound)."""
        params, sample, m = PYParams(0.5, 2.0), SampleSummary(400, 50), 20_000
        dp = posterior_pmf_dp(params, sample, m)
        reps = 100_000
        draws = sample_k_future(params, sample, m, RngStream(25), size=reps)
        emp_cdf = np.cumsum(np.bincount(draws, minlength=m + 1)) / reps
        ks = np.abs(emp_cdf - dp.cdf()).max()
        assert ks <= 2.5 / math.sqrt(reps)
        se = draws.std() / math.sqrt(reps)
        assert abs(draws.mean() - dp.mean()) <= 4.0 * se

    def test_step_and_jump_paths_same_law(self):
        """The event-jump and Bernoulli-step implementations have the same
        law at the same (params, m)."""
        from scipy.stats import ks_2samp

        from unseen.samplers import _bernoulli_chain, _k_future_jump

        (a, t), (n, j), m, reps = (0.54, 26.67), (977, 300), 20_000, 30_000
        params, sample = PYParams(a, t), SampleSummary(n, j)
        steps = _bernoulli_chain(RngStream(27, 0).generator(), reps, m, t + a * j, a, t + n)
        jumps = _k_future_jump(params, sample, m, RngStream(27, 1).generator(), reps)
        assert ks_2samp(steps, jumps).pvalue > 1e-4


class TestKFutureDispatch:
    """Both chain paths are exact; sample_k_future picks the cheaper one.
    The Bernoulli path draws exactly m uniforms per lane, the jump path one
    per founding event plus one per lane to end it."""

    @staticmethod
    def _draws(alpha, theta, n, j, m, count=50):
        before = samplers.draw_count()
        sample_k_future(PYParams(alpha, theta), SampleSummary(n, j), m, RngStream(3), size=count)
        return samplers.draw_count() - before

    @pytest.mark.parametrize("alpha,theta,n,j,m", [
        (0.54, 26.67, 977, 300, 2000),    # E[K]/m ~ 0.14
        (0.54, 26.67, 977, 300, 20_000),  # E[K]/m ~ 0.07
        (0.9, 50.0, 2000, 1500, 3000),    # margin 650, E[K]/m ~ 0.65
    ])
    def test_high_event_rate_takes_bernoulli_steps(self, alpha, theta, n, j, m):
        assert self._draws(alpha, theta, n, j, m) == m * 50

    @pytest.mark.parametrize("alpha,theta,n,j,m", [
        (0.0, 5.0, 1000, 30, 2000),       # E[K]/m ~ 0.003
        (0.5, 2.0, 400, 50, 20_000),      # E[K]/m ~ 0.017
        (0.2, 5.0, 3000, 100, 543),       # E[K]/m ~ 0.008 at small m
    ])
    def test_low_event_rate_takes_jumps(self, alpha, theta, n, j, m):
        assert 0 < self._draws(alpha, theta, n, j, m) < m * 50

    @pytest.mark.parametrize("alpha,theta,n,j,m", [
        (0.0, 5.0, 250, 30, 2000),        # margin 250, E[K]/m ~ 0.005
        (0.5, 2.0, 400, 220, 20_000),     # margin 290, E[K]/m ~ 0.07
    ])
    def test_small_margin_takes_bernoulli_steps(self, alpha, theta, n, j, m):
        assert self._draws(alpha, theta, n, j, m) == m * 50

    def test_m_zero_draws_nothing(self):
        assert self._draws(0.0, 5.0, 1000, 30, 0) == 0

    @pytest.mark.parametrize("alpha,theta,n,j,m,seed,digest", [
        (0.5, 2.0, 400, 50, 20_000, 25,
         "0642b2b29c8f0f3e7c4432b39990a9ccc4826f7916877ba76a7d90813a8b37d5"),
        (0.0, 5.0, 1000, 30, 50_000, 26,
         "4d8e6f2f02b79b65bde48677d4c6bad7eebcd3613b4b433ef8aed2a8a4d022cf"),
        (0.3, 10.0, 2000, 200, 30_000, 27,
         "e1778f7d75418b96af17c3a5a613571274960bdfde66a40adac9b85981427873"),
    ])
    def test_jump_output_pinned(self, alpha, theta, n, j, m, seed, digest):
        """Jump-path draws are byte-identical to those of the full-width
        lane loop that preceded the active-lane one."""
        import hashlib

        k = sample_k_future(PYParams(alpha, theta), SampleSummary(n, j), m, RngStream(seed),
                            size=400)
        assert hashlib.sha256(np.asarray(k, dtype="<i8").tobytes()).hexdigest() == digest


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

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_prior_kstar(0.5, -1.0, 5, RngStream(0))
        with pytest.raises(DomainError):
            sample_prior_kstar(1.2, 1.0, 5, RngStream(0))


class TestBeta:
    def test_symmetry(self):
        draws = sample_beta(3.0, 3.0, RngStream(17), size=100_000)
        assert abs(draws.mean() - 0.5) <= 4.0 * draws.std() / math.sqrt(draws.size)

    def test_uniform_special_case(self):
        from scipy.stats import kstest

        draws = sample_beta(1.0, 1.0, RngStream(19), size=100_000)
        assert kstest(draws, "uniform").statistic <= 0.01

    def test_large_parameters(self):
        draws = sample_beta(349.39, 1654.61, RngStream(23), size=100_000)
        assert np.all((draws > 0) & (draws < 1))
        mean = 349.39 / (349.39 + 1654.61)
        assert abs(draws.mean() - mean) <= 4.0 * draws.std() / math.sqrt(draws.size)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_beta(0.0, 1.0, RngStream(0))


class TestMittagLeffler:
    def test_strictly_positive(self):
        draws = sample_mittag_leffler(0.5, 3.0, RngStream(29), size=50_000)
        assert np.all(draws > 0)

    @pytest.mark.parametrize("alpha,q", [(0.3, 0.7), (0.5, 2.0), (0.54, 1858.6), (0.9, 40.0)])
    def test_exact_moments(self, alpha, q):
        """Sample mean and second moment vs the exact Gamma-ratio moments."""
        reps = 200_000
        draws = sample_mittag_leffler(alpha, q, RngStream(31), size=reps)
        for p in (1.0, 2.0):
            target = ml_moment(alpha, q, p)
            got = (draws ** p).mean()
            se = (draws ** p).std() / math.sqrt(reps)
            assert abs(got - target) <= 4.0 * se, (alpha, q, p)

    def test_stream_consistency(self):
        from scipy.stats import ks_2samp

        a = sample_mittag_leffler(0.6, 5.0, RngStream(37, 0), size=100_000)
        b = sample_mittag_leffler(0.6, 5.0, RngStream(37, 1), size=100_000)
        assert ks_2samp(a, b).statistic <= 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_mittag_leffler(0.0, 1.0, RngStream(0))
        with pytest.raises(DomainError):
            sample_mittag_leffler(0.5, -1.0, RngStream(0))


class TestMlLimit:
    def test_alpha_zero_unavailable(self):
        with pytest.raises(MethodUnavailableError, match="alpha = 0"):
            sample_ml_limit(PYParams(0.0, 1.0), SampleSummary(5, 2), 10, RngStream(0))

    def test_m_zero_degenerate(self):
        params, sample = PYParams(0.5, 0.5), SampleSummary(2, 1)
        assert sample_ml_limit(params, sample, 0, RngStream(0)) == 0.0

    def test_params_from_posterior(self):
        params, sample = PYParams(0.54, 26.67), SampleSummary(977, 300)
        ml = MLLimitParams.from_posterior(params, sample, 977)
        assert ml.beta_a == pytest.approx(300 + 26.67 / 0.54)
        assert ml.beta_b == pytest.approx(977 / 0.54 - 300)
        assert ml.stable_q == pytest.approx(1003.67 / 0.54)
        assert ml.scale_c == pytest.approx(1980.67 ** 0.54 - 1003.67 ** 0.54)
        assert ml.scale_c > 0

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
