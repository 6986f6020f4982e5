import numpy as np
import pytest

from unseen.errors import DomainError, MethodUnavailableError, SizeLimitError
from unseen import intervals, model, samplers
from unseen.intervals import CredibleInterval, _equal_tailed, coverage, exact_interval, ml_interval
from unseen.model import DP_MAX, PYParams, SampleSummary, posterior_mean, posterior_pmf_dp
from unseen.samplers import RngStream

from conftest import TAB0


class TestCredibleInterval:
    def test_validation(self):
        CredibleInterval(1.0, 2.0, 0.95, "gaussian")
        CredibleInterval(1.0, 2.0, 0.95, "exact_mc", mc_samples=2000)
        with pytest.raises(DomainError):
            CredibleInterval(2.0, 1.0, 0.95, "gaussian")
        with pytest.raises(DomainError):
            CredibleInterval(1.0, 2.0, 0.95, "exact_mc")  # missing mc_samples
        with pytest.raises(DomainError):
            CredibleInterval(1.0, 2.0, 0.95, "gaussian", mc_samples=100)
        with pytest.raises(DomainError):
            CredibleInterval(1.0, 2.0, 0.95, "bootstrap", mc_samples=100)


@pytest.mark.parametrize("r,level,ranks", [
    (2000, 0.95, (50, 1950)),
    (1000, 0.99, (5, 995)),
    (100, 0.95, (3, 98)),
    (300, 0.9, (15, 285)),
])
def test_equal_tailed_ranks_exact_for_decimal_levels(r, level, ranks):
    """Each tail holds ceil(r * (1 - level) / 2) draws of exact decimal
    arithmetic, which 1 - level in floats can overshoot by a rank."""
    draws = np.arange(1.0, r + 1.0)
    assert _equal_tailed(draws[::-1].copy(), level) == tuple(float(k) for k in ranks)


class TestExactInterval:
    def test_m_zero(self):
        ci = exact_interval(PYParams(0.5, 0.5), SampleSummary(2, 1), 0, rng=RngStream(1))
        assert (ci.lo, ci.hi) == (0.0, 0.0)

    def test_requires_enough_samples(self):
        with pytest.raises(DomainError):
            exact_interval(PYParams(0.5, 0.5), SampleSummary(2, 1), 5, samples=50)

    @pytest.mark.parametrize("interval", [exact_interval, ml_interval])
    def test_samples_capped(self, interval):
        """One sample above the cap is rejected before anything is drawn;
        the cap itself passes the check."""
        params, sample = PYParams(0.5, 1.0), SampleSummary(10, 3)
        before = samplers.draw_count()
        for bad in (intervals._MAX_MC_SAMPLES + 1, 10 ** 12):
            with pytest.raises(DomainError, match="at most 10000000 Monte Carlo samples"):
                interval(params, sample, 5, 0.95, bad, RngStream(1))
        assert samplers.draw_count() == before
        intervals._check_mc_args(intervals._MAX_MC_SAMPLES, 0.95)

    @pytest.mark.parametrize("interval", [exact_interval, ml_interval])
    def test_samples_must_be_integral(self, interval):
        params, sample = PYParams(0.5, 1.0), SampleSummary(10, 3)
        for bad in (100.5, 200.0, "200"):
            with pytest.raises(DomainError, match="samples must be an integer"):
                interval(params, sample, 5, 0.95, bad, RngStream(1))
        ci = interval(params, sample, 5, 0.95, np.int64(100), RngStream(1))
        assert ci.mc_samples == 100

    def test_m_above_binomial_limit(self):
        """Above 2**63 - 1, the largest count numpy's binomial draws, the
        exact interval is a SizeLimitError before anything is drawn."""
        before = samplers.draw_count()
        with pytest.raises(SizeLimitError):
            exact_interval(PYParams(0.5, 1.0), SampleSummary(10, 3), 2**63, rng=RngStream(1))
        assert samplers.draw_count() == before

    def test_matches_dp_quantiles_small_instance(self):
        """Large-sample empirical quantiles equal the exact pmf quantiles."""
        params, sample, m = PYParams(0.5, 0.5), SampleSummary(2, 1), 10
        pmf = posterior_pmf_dp(params, sample, m)
        ci = exact_interval(params, sample, m, 0.95, samples=10 ** 6, rng=RngStream(2))
        assert ci.lo == float(pmf.quantile(0.025))
        assert ci.hi == float(pmf.quantile(0.975))

    def test_zipf_a_row(self):
        params, sample = PYParams(*TAB0["zipf_a"][:2]), SampleSummary(977, 300)
        ci = exact_interval(params, sample, 977, 0.95, samples=2000, rng=RngStream(3))
        assert abs(round(ci.lo) - 130) <= 3
        assert abs(round(ci.hi) - 184) <= 3

    def test_from_pmf_draws_once_per_replicate(self):
        params, sample, m = PYParams(0.5, 0.5), SampleSummary(2, 1), 10
        pmf = posterior_pmf_dp(params, sample, m)
        before = samplers.draw_count()
        ci = exact_interval(params, sample, m, 0.95, samples=10 ** 6, rng=RngStream(2), pmf=pmf)
        assert samplers.draw_count() - before == 10 ** 6
        assert ci.lo == float(pmf.quantile(0.025))
        assert ci.hi == float(pmf.quantile(0.975))

    def test_from_pmf_checks_its_support(self):
        params, sample = PYParams(0.5, 0.5), SampleSummary(2, 1)
        pmf = posterior_pmf_dp(params, sample, 10)
        with pytest.raises(DomainError, match="support_max"):
            exact_interval(params, sample, 11, pmf=pmf)
        with pytest.raises(DomainError, match="support_max"):
            exact_interval(params, sample, 0, pmf=pmf)

    @pytest.mark.parametrize("params,sample,m", [
        (PYParams(0.5, 0.5), SampleSummary(2, 1), 1),
        (PYParams(0.0, 10.0), SampleSummary(4, 2), 12),
        (PYParams(*TAB0["zipf_a"][:2]), SampleSummary(977, 300), DP_MAX),
    ])
    def test_pmf_pass_up_to_dp_max(self, params, sample, m):
        """Without a pmf, 0 < m <= DP_MAX still draws once per replicate,
        from its own pmf pass: the interval a given pmf gives."""
        before = samplers.draw_count()
        ci = exact_interval(params, sample, m, 0.95, 300, RngStream(9))
        assert samplers.draw_count() - before == 300
        pmf = posterior_pmf_dp(params, sample, m)
        assert ci == exact_interval(params, sample, m, 0.95, 300, RngStream(9), pmf=pmf)

    def test_chain_above_dp_max(self, monkeypatch):
        def no_pmf(*args, **kwargs):
            raise AssertionError("no pmf pass above DP_MAX")

        monkeypatch.setattr(model, "_chain_steps", no_pmf)
        monkeypatch.setattr(intervals, "sample_from_pmf", no_pmf)
        params, sample, m = PYParams(0.5, 0.5), SampleSummary(2, 1), DP_MAX + 1
        ci = exact_interval(params, sample, m, 0.95, 100, RngStream(10))
        chain = samplers.sample_k_future(params, sample, m, RngStream(10), size=100)
        assert (ci.lo, ci.hi) == _equal_tailed(chain.astype(float), 0.95)


class TestMlInterval:
    def test_alpha_zero_propagates(self):
        with pytest.raises(MethodUnavailableError):
            ml_interval(PYParams(0.0, 1.0), SampleSummary(5, 2), 10, rng=RngStream(4))

    def test_zipf_a_row(self):
        params, sample = PYParams(*TAB0["zipf_a"][:2]), SampleSummary(977, 300)
        ci = ml_interval(params, sample, 977, 0.95, samples=2000, rng=RngStream(5))
        assert abs(round(ci.lo) - 141) <= 3
        assert abs(round(ci.hi) - 173) <= 3

    def test_endpoints_clamped_to_support(self):
        # at tiny m the limit law spills past the support; endpoints clamp
        params, sample = PYParams(0.7, 5.0), SampleSummary(20, 10)
        for m in (1, 2, 3):
            ci = ml_interval(params, sample, m, 0.95, samples=4000, rng=RngStream(55, m))
            assert 0.0 <= ci.lo <= ci.hi <= float(m)

    def test_negative_theta_admissible(self):
        # theta in (-alpha, 0] is a legitimate prior corner for sampling
        params, sample = PYParams(0.6, -0.3), SampleSummary(12, 4)
        ci = exact_interval(params, sample, 30, samples=2000, rng=RngStream(56))
        assert 0.0 <= ci.lo <= ci.hi <= 30.0
        k_hat = posterior_mean(params, sample, 30)
        assert 0.0 < k_hat < 30.0

    def test_nested_in_level(self):
        params, sample = PYParams(0.5, 5.0), SampleSummary(50, 20)
        rng = RngStream(6)
        cis = [
            ml_interval(params, sample, 100, level, samples=4000, rng=rng)
            for level in (0.5, 0.8, 0.95, 0.99)
        ]
        widths = [ci.hi - ci.lo for ci in cis]
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_midpoint_near_k_hat(self):
        """All families center near the point estimate at m = n."""
        from unseen.asymptotics import gaussian_interval

        for name, (a, t, n, j) in TAB0.items():
            params, sample = PYParams(a, t), SampleSummary(n, j)
            k_hat = posterior_mean(params, sample, n)
            cis = [
                exact_interval(params, sample, n, samples=2000, rng=RngStream(7)),
                gaussian_interval(params, sample, n),
            ]
            if a > 0:
                cis.append(ml_interval(params, sample, n, samples=2000, rng=RngStream(8)))
            for ci in cis:
                assert abs((ci.lo + ci.hi) / 2 - k_hat) <= 0.10 * k_hat, (name, ci.method)


class TestCoverage:
    def _ci(self, lo, hi, method="gaussian", samples=None):
        return CredibleInterval(lo, hi, 0.95, method, mc_samples=samples)

    def test_identical(self):
        a = self._ci(3.0, 9.0)
        assert coverage(a, a) == 100.0

    def test_disjoint(self):
        assert coverage(self._ci(0.0, 2.0), self._ci(5.0, 9.0)) == 0.0

    def test_table_value(self):
        got = coverage(self._ci(129.0, 183.0), self._ci(130.0, 184.0))
        assert got == pytest.approx(100.0 * 53.0 / 54.0)
        assert round(got, 1) == 98.1

    def test_rounding_half_up(self):
        # 129.5 rounds to 130, 183.49 to 183
        got = coverage(self._ci(129.5, 183.49), self._ci(130.0, 184.0))
        assert got == pytest.approx(100.0 * 53.0 / 54.0)

    def test_superset_is_full(self):
        assert coverage(self._ci(0.0, 100.0), self._ci(10.0, 20.0)) == 100.0

    def test_degenerate_exact(self):
        assert coverage(self._ci(1.0, 5.0), self._ci(3.0, 3.0)) == 100.0
        assert coverage(self._ci(4.0, 5.0), self._ci(3.0, 3.0)) == 0.0

    def test_level_mismatch(self):
        a = CredibleInterval(0.0, 1.0, 0.95, "gaussian")
        b = CredibleInterval(0.0, 1.0, 0.90, "gaussian")
        with pytest.raises(DomainError):
            coverage(a, b)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts = np.sort(rng.uniform(0, 50, size=4))
            order = rng.permutation(4)
            a = self._ci(pts[min(order[0], order[1])], pts[max(order[0], order[1])])
            e = self._ci(pts[min(order[2], order[3])], pts[max(order[2], order[3])])
            assert 0.0 <= coverage(a, e) <= 100.0
