import math

import numpy as np
import pytest

from unseen import empirical_bayes
from unseen.empirical_bayes import ep_log_likelihood, fit_empirical_bayes
from unseen.errors import DegenerateSampleError, DomainError
from unseen.model import SampleSummary
from unseen.samplers import RngStream, sample_prior_partition


def set_partitions(items):
    """All set partitions of a list (recursive; fine for n <= 8)."""
    if len(items) == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class TestLogLikelihood:
    def test_single_observation_is_certain(self):
        assert ep_log_likelihood(0.3, 1.0, SampleSummary(1, 1, (1,))) == pytest.approx(0.0)

    def test_two_in_one_block(self):
        # closed form log[(1 - alpha)/(theta + 1)]
        for alpha, theta in [(0.0, 0.5), (0.4, 2.0)]:
            got = ep_log_likelihood(alpha, theta, SampleSummary(2, 1, (2,)))
            assert got == pytest.approx(math.log((1 - alpha) / (theta + 1)), rel=1e-12)

    def test_inadmissible_is_neg_inf(self):
        s = SampleSummary(5, 3, (2, 2, 1))
        assert ep_log_likelihood(0.0, 0.0, s) == -math.inf
        assert ep_log_likelihood(0.5, -1.2, s) == -math.inf

    @pytest.mark.parametrize("alpha,theta", [(0.0, 0.5), (0.0, 2.0), (0.5, 0.5), (0.5, 2.0)])
    def test_partition_sum_normalization(self, alpha, theta):
        """Summing the partition probability over all set partitions of [n]
        gives 1 (brute-force enumeration)."""
        for n in (3, 5, 6):
            total = 0.0
            for part in set_partitions(list(range(n))):
                freqs = [len(block) for block in part]
                s = SampleSummary.from_freqs(freqs)
                total += math.exp(ep_log_likelihood(alpha, theta, s))
            assert total == pytest.approx(1.0, abs=1e-9), (alpha, theta, n)

    def test_permutation_invariance(self):
        a = SampleSummary(10, 3, (5, 3, 2))
        b = SampleSummary(10, 3, (2, 5, 3))
        assert ep_log_likelihood(0.4, 1.7, a) == ep_log_likelihood(0.4, 1.7, b)


class TestFit:
    def test_rejects_single_observation(self):
        with pytest.raises(DegenerateSampleError):
            fit_empirical_bayes(SampleSummary(1, 1, (1,)))

    @pytest.mark.parametrize("kwargs", [
        {"alpha_step": 0.0},
        {"alpha_step": -0.1},
        {"alpha_step": 1.0},
        {"alpha_step": math.nan},
        {"alpha_step": math.inf},
        {"theta_bounds": (0.0, 1e6)},
        {"theta_bounds": (1e-4, 1e-5)},
        {"theta_bounds": (1e-4, math.inf)},
        {"theta_bounds": (math.nan, 1e6)},
    ])
    def test_rejects_bad_search_settings(self, kwargs):
        with pytest.raises(DomainError):
            fit_empirical_bayes(SampleSummary(10, 4, (4, 3, 2, 1)), **kwargs)

    def test_two_obs_one_block_flags_boundary(self):
        fit = fit_empirical_bayes(SampleSummary(2, 1, (2,)))
        assert fit.alpha_hat == 0.0
        assert "alpha_zero" in fit.boundary_flags
        assert not fit.converged

    def test_all_singletons_caps_theta(self):
        fit = fit_empirical_bayes(SampleSummary(6, 6, (1,) * 6), theta_bounds=(1e-4, 1e4))
        assert "theta_capped" in fit.boundary_flags
        assert fit.theta_hat >= 0.99e4
        assert not fit.converged

    def test_result_consistency(self):
        sample = sample_prior_partition(0.5, 5.0, 2000, RngStream(101))
        fit = fit_empirical_bayes(sample)
        assert fit.log_likelihood == pytest.approx(
            ep_log_likelihood(fit.alpha_hat, fit.theta_hat, sample), rel=1e-12
        )

    def test_beats_grid_oracle(self):
        """The returned maximizer is at least as good as a 200x200 grid."""
        sample = sample_prior_partition(0.4, 8.0, 1500, RngStream(103))
        fit = fit_empirical_bayes(sample)
        alphas = np.linspace(0.0, 0.995, 200)
        thetas = np.exp(np.linspace(math.log(1e-3), math.log(1e4), 200))
        best = max(
            ep_log_likelihood(float(a), float(t), sample)
            for a in alphas
            for t in thetas
        )
        assert fit.log_likelihood >= best - 1e-6

    def test_recovers_alpha_moderate_n(self):
        sample = sample_prior_partition(0.6, 20.0, 30_000, RngStream(107))
        fit = fit_empirical_bayes(sample)
        assert abs(fit.alpha_hat - 0.6) <= 0.06

    def test_uniform_like_data_hits_alpha_zero(self):
        rng = RngStream(109).generator()
        counts = np.bincount(rng.integers(0, 501, size=2000), minlength=501)
        sample = SampleSummary.from_freqs(counts[counts > 0])
        fit = fit_empirical_bayes(sample)
        assert fit.alpha_hat == 0.0
        assert "alpha_zero" in fit.boundary_flags
        # the Dirichlet profile MLE solves j - 1 = theta * sum 1/(theta + i)
        t = fit.theta_hat
        lhs = (sample.j - 1) / t
        rhs = sum(1.0 / (t + i) for i in range(1, sample.n))
        assert lhs == pytest.approx(rhs, rel=5e-3)

    def test_negative_theta_search_optin(self):
        # a heavily concentrated two-block sample pushes theta negative
        sample = SampleSummary(40, 2, (20, 20))
        free = fit_empirical_bayes(sample, allow_negative_theta=True)
        capped = fit_empirical_bayes(sample)
        assert free.log_likelihood >= capped.log_likelihood - 1e-9


def _uniform_like_sample():
    rng = RngStream(109).generator()
    counts = np.bincount(rng.integers(0, 501, size=2000), minlength=501)
    return SampleSummary.from_freqs(counts[counts > 0])


# (alpha_hat, theta_hat, log_likelihood) as computed by the scalar
# one-grid-point-at-a-time search that the lockstep search replaced.
PINNED_FITS = [
    (_uniform_like_sample, False,
     "(0.0, 208.8162673002511, -10052.676871432548)"),
    (lambda: sample_prior_partition(0.5, 5.0, 2000, RngStream(101)), False,
     "(0.48074272048162003, 4.896031703012677, -6290.880524006419)"),
    (lambda: sample_prior_partition(0.8, -0.7, 200, RngStream(1)), True,
     "(0.8200000000000001, -0.4455884817807174, -220.49953374449206)"),
]


class TestLockstepGridSearch:
    @pytest.mark.parametrize("make,negative,expect", PINNED_FITS,
                             ids=["alpha_zero", "interior", "negative_theta"])
    def test_fit_bitwise_pinned(self, make, negative, expect):
        fit = fit_empirical_bayes(make(), allow_negative_theta=negative)
        assert repr((fit.alpha_hat, fit.theta_hat, fit.log_likelihood)) == expect

    def test_lane_blocks_do_not_change_the_fit(self, monkeypatch):
        sample = sample_prior_partition(0.5, 5.0, 2000, RngStream(101))
        whole = fit_empirical_bayes(sample, allow_negative_theta=True)
        budget = 1000
        assert budget // (sample.j - 1) == 5  # the 100-point grid runs as 20 blocks
        monkeypatch.setattr(empirical_bayes, "_LANE_BUDGET", budget)
        assert fit_empirical_bayes(sample, allow_negative_theta=True) == whole
