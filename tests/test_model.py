import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from unseen.asymptotics import gaussian_interval
from unseen.datasets import export_label_counts, standin_freqs
from unseen.empirical_bayes import ep_log_likelihood, fit_empirical_bayes
from unseen.errors import DomainError, NumericalIntegrityError, SizeLimitError
from unseen.model import (
    _DP_FLOOR,
    Pmf,
    PYParams,
    SampleSummary,
    _dp_steps,
    posterior_mean,
    posterior_pmf_closed,
    posterior_pmf_dp,
    predictive_new_prob,
)


class TestTypes:
    def test_params_admissible_region(self):
        PYParams(alpha=0.0, theta=0.5)
        PYParams(alpha=0.5, theta=-0.49)
        with pytest.raises(DomainError):
            PYParams(alpha=1.0, theta=1.0)
        with pytest.raises(DomainError):
            PYParams(alpha=-0.1, theta=1.0)
        with pytest.raises(DomainError):
            PYParams(alpha=0.5, theta=-0.5)

    def test_params_reject_infinite_theta(self):
        with pytest.raises(DomainError, match="finite"):
            PYParams(alpha=0.5, theta=math.inf)

    def test_sample_summary_validation(self):
        s = SampleSummary(n=3, j=2, freqs=(2, 1))
        assert s.n == 3
        with pytest.raises(DomainError):
            SampleSummary(n=3, j=2, freqs=(1, 1))
        with pytest.raises(DomainError):
            SampleSummary(n=3, j=1, freqs=(2, 1))
        with pytest.raises(DomainError):
            SampleSummary(n=2, j=2, freqs=(2, 0))

    @pytest.mark.parametrize("freqs", [(2,), (4, 2, 1), standin_freqs(977, 300).freqs])
    def test_frequencies_only_where_needed(self, tmp_path, freqs):
        """The posterior takes (n, j) alone; the fit and the export need the
        frequencies and say so."""
        full = SampleSummary.from_freqs(freqs)
        bare = SampleSummary(full.n, full.j)
        assert bare.freqs is None
        with pytest.raises(DomainError):
            fit_empirical_bayes(bare)
        with pytest.raises(DomainError):
            ep_log_likelihood(0.5, 1.0, bare)
        with pytest.raises(DomainError):
            export_label_counts(bare, str(tmp_path / "counts.tsv"))
        params, m = PYParams(0.5, 2.0), 3 * full.n
        assert repr(posterior_mean(params, bare, m)) == repr(posterior_mean(params, full, m))
        assert (posterior_pmf_dp(params, bare, m).probs.tobytes()
                == posterior_pmf_dp(params, full, m).probs.tobytes())
        assert gaussian_interval(params, bare, m) == gaussian_interval(params, full, m)

    def test_from_freqs(self):
        s = SampleSummary.from_freqs([1, 5, 2])
        assert (s.n, s.j, s.freqs) == (8, 3, (5, 2, 1))

    def test_pmf_validation(self):
        Pmf(np.array([0.25, 0.75]))
        with pytest.raises(DomainError):
            Pmf(np.array([-0.1, 1.1]))

    def test_pmf_rejects_nonfinite(self):
        with pytest.raises(NumericalIntegrityError):
            Pmf(np.array([np.nan, np.nan]))

    def test_pmf_quantile(self):
        pmf = Pmf(np.array([0.2, 0.5, 0.3]))
        assert pmf.quantile(0.1) == 0
        assert pmf.quantile(0.25) == 1
        assert pmf.quantile(0.95) == 2


class TestPredictive:
    def test_direct_substitution(self):
        assert predictive_new_prob(PYParams(0.0, 1.0), 1, 1) == pytest.approx(0.5)
        assert predictive_new_prob(PYParams(0.5, 0.5), 2, 1) == pytest.approx(0.4)

    def test_boundary_zero(self):
        # theta + alpha*k = 0 at the admissibility boundary
        p = predictive_new_prob(PYParams(0.5, -0.5 + 1e-16), 5, 1)
        assert p == pytest.approx(0.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            predictive_new_prob(PYParams(0.5, 0.5), -3, 0, offset=0)


class TestPosteriorMean:
    def test_m_zero(self):
        assert posterior_mean(PYParams(0.5, 0.5), SampleSummary(10, 5), 0) == 0.0

    def test_dirichlet_single_term(self):
        val = posterior_mean(PYParams(0.0, 1.0), SampleSummary(1, 1), 1)
        assert val == pytest.approx(0.5, rel=1e-12)

    def test_dirichlet_sum_formula(self):
        params, sample, m = PYParams(0.0, 2.0), SampleSummary(3, 2), 7
        direct = sum(2.0 / (2.0 + 3 + i - 1) for i in range(1, m + 1))
        assert posterior_mean(params, sample, m) == pytest.approx(direct, rel=1e-12)

    def test_zipf_a_table_value(self):
        val = posterior_mean(PYParams(0.54, 26.67), SampleSummary(977, 300), 977)
        assert abs(round(val) - 156) <= 2

    def test_monotone_in_m(self):
        params, sample = PYParams(0.25, 1.5), SampleSummary(20, 7)
        vals = [posterior_mean(params, sample, m) for m in range(0, 50, 5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_huge_m_finite(self):
        val = posterior_mean(PYParams(0.54, 26.67), SampleSummary(977, 300), 10 ** 7)
        assert np.isfinite(val) and val > 0


def exact_pmf_small():
    """Closed-form pmf of (alpha=1/2, theta=1/2, n=2, j=1, m=2) in exact
    rational arithmetic: (3/7, 2/5, 6/35)."""
    return [Fraction(3, 7), Fraction(2, 5), Fraction(6, 35)]


class TestPmfs:
    def test_dp_m0(self):
        pmf = posterior_pmf_dp(PYParams(0.5, 0.5), SampleSummary(2, 1), 0)
        assert pmf.probs.tolist() == [1.0]

    def test_dp_one_step(self):
        params, sample = PYParams(0.3, 0.7), SampleSummary(4, 2)
        p = (0.7 + 0.3 * 2) / (0.7 + 4)
        pmf = posterior_pmf_dp(params, sample, 1)
        assert pmf.probs == pytest.approx([1 - p, p], rel=1e-12)

    def test_dp_exact_rational_case(self):
        pmf = posterior_pmf_dp(PYParams(0.5, 0.5), SampleSummary(2, 1), 2)
        expect = [float(x) for x in exact_pmf_small()]
        assert pmf.probs == pytest.approx(expect, rel=1e-12)

    def test_closed_exact_rational_case(self):
        pmf = posterior_pmf_closed(PYParams(0.5, 0.5), SampleSummary(2, 1), 2)
        expect = [float(x) for x in exact_pmf_small()]
        assert pmf.probs == pytest.approx(expect, rel=1e-12)

    def test_closed_m0(self):
        pmf = posterior_pmf_closed(PYParams(0.5, 0.5), SampleSummary(2, 1), 0)
        assert pmf.probs.tolist() == [1.0]

    def test_closed_dirichlet_mean_matches_formula(self):
        params, sample, m = PYParams(0.0, 2.0), SampleSummary(3, 2), 3
        pmf = posterior_pmf_closed(params, sample, m)
        expect = sum(2.0 / (2.0 + 3 + i - 1) for i in range(1, m + 1))
        assert pmf.mean() == pytest.approx(expect, rel=1e-10)

    def test_dp_size_cap(self):
        with pytest.raises(SizeLimitError, match="dp_max"):
            posterior_pmf_dp(PYParams(0.5, 0.5), SampleSummary(2, 1), 20001)

    def test_closed_size_cap(self):
        with pytest.raises(SizeLimitError):
            posterior_pmf_closed(PYParams(0.5, 0.5), SampleSummary(2, 1), 61)


GRID_ALPHAS = (0.0, 0.25, 0.5, 0.75)
GRID_THETAS = (0.5, 1.0, 10.0)


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
@pytest.mark.parametrize("theta", GRID_THETAS)
def test_oracle_equivalence_spot_grid(alpha, theta):
    """DP vs closed form on a representative (n, j, m) slice; the exhaustive
    grid runs in the acceptance suite."""
    params = PYParams(alpha, theta)
    for n, j in [(1, 1), (7, 3), (30, 30), (30, 1), (18, 11)]:
        sample = SampleSummary(n, j)
        for m in (1, 5, 25):
            dp = posterior_pmf_dp(params, sample, m)
            cl = posterior_pmf_closed(params, sample, m)
            assert np.max(np.abs(dp.probs - cl.probs)) <= 1e-8, (alpha, theta, n, j, m)
            assert dp.probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert cl.probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert dp.mean() == pytest.approx(
                posterior_mean(params, sample, m), rel=1e-8, abs=1e-12
            )


# (alpha, theta, n, j, m) with a band that trims, and the SHA-256 of the pmf
# with entries below 1e-250 zeroed, its mean and its variance, as computed
# by the full (unbanded) recursion that the banded one replaced.
PINNED_DP = [
    ((0.465, 0.658, 977, 43, 4885),
     "e542812643aa889086eed7163340b849f4cfad3f037c520cc37a6446369b1b42",
     "57.75021188260696", "130.87260131637157"),
    ((0.0, 206.07, 2000, 489, 5000),
     "b5f536a283022b358027cbb598a8611ca64b4341cbe92b1896232c7e3559d041",
     "243.9597511716558", "230.5996314894653"),
    ((0.9, 29.6, 2586, 1825, 2586),
     "50d7c0bfcaefb8825bcfbdb22454b9441d8d44b02d97a139b208c4608bddad16",
     "1591.423378018907", "1122.4077096205924"),
]


@pytest.mark.parametrize("case,sha,mean,var", PINNED_DP)
def test_banded_dp_pinned(case, sha, mean, var):
    alpha, theta, n, j, m = case
    pmf = posterior_pmf_dp(PYParams(alpha, theta), SampleSummary(n, j), m)
    kept = np.where(pmf.probs >= 1e-250, pmf.probs, 0.0)
    assert hashlib.sha256(kept.tobytes()).hexdigest() == sha
    assert repr(pmf.mean()) == mean
    assert repr(pmf.variance()) == var

    for band in _dp_steps(alpha, theta, n, j, m):
        pass
    live = np.flatnonzero(band)
    lo, hi = live[0], live[-1] + 1
    assert (lo, hi) != (0, m + 1)  # the band did trim
    assert np.all(band[lo:hi] >= _DP_FLOOR)
    assert not band[:lo].any() and not band[hi:].any()
