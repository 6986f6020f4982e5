import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import unseen
from unseen.asymptotics import gaussian_interval
from unseen.datasets import export_label_counts
from unseen.empirical_bayes import ep_log_likelihood, fit_empirical_bayes
from unseen.errors import DomainError, NumericalIntegrityError, SizeLimitError
from unseen import model
from unseen.intervals import exact_interval
from unseen.model import (
    Pmf,
    PYParams,
    SampleSummary,
    _chain_steps,
    posterior_mean,
    posterior_pmf_closed,
    posterior_pmf_dp,
    posterior_pmfs,
)
from unseen.samplers import RngStream, sample_k_future, sample_ml_limit, sample_prior_kstar

from conftest import plain_recursion, standin_freqs


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

    @pytest.mark.parametrize("n,j", [(10.5, 3), (10, 3.0), (10.0, 3), ("10", 3)])
    def test_sample_summary_rejects_non_integer(self, n, j):
        with pytest.raises(DomainError, match="integer"):
            SampleSummary(n, j)

    def test_sample_summary_accepts_numpy_integers(self):
        s = SampleSummary(np.int64(10), np.int32(3))
        assert (s.n, s.j) == (10, 3)

    def test_from_freqs_keeps_python_ints(self):
        """Counts from numpy (a multinomial draw) give a summary of Python
        ints, which mpmath references and json output take."""
        s = SampleSummary.from_freqs(np.array([1, 4, 2], dtype=np.int64))
        assert (s.n, s.j, s.freqs) == (7, 3, (4, 2, 1))
        assert all(type(x) is int for x in (s.n, s.j, *s.freqs))

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

    def test_pmf_quantile_one_stays_in_support(self):
        """The float cdf can end just below 1; quantile(1.0) is then still
        the top of the support, not one past it."""
        pmf = posterior_pmf_dp(PYParams(0.465, 0.658), SampleSummary(977, 43), 15)
        assert pmf.cdf()[-1] < 1.0
        assert pmf.quantile(1.0) == pmf.support_max == 15


class TestPredictive:
    def test_direct_substitution(self):
        """One more draw founds a new species with probability
        (theta + alpha j) / (theta + n), the posterior mean at m = 1."""
        assert posterior_mean(PYParams(0.0, 1.0), SampleSummary(1, 1), 1) == pytest.approx(0.5)
        assert posterior_mean(PYParams(0.5, 0.5), SampleSummary(2, 1), 1) == pytest.approx(0.4)


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

    def test_pmfs_size_cap_and_domain(self, monkeypatch):
        """A grid straddling DP_MAX gets a pmf at each of its m up to DP_MAX
        from one prior pass and none above, where the chain serves; a bad m
        anywhere in the grid is rejected before any pass."""
        params, sample = PYParams(0.5, 0.5), SampleSummary(2, 1)
        passes = []

        def counted(*args):
            passes.append(args)
            return _chain_steps(*args)

        monkeypatch.setattr(model, "_chain_steps", counted)
        grid = [5, model.DP_MAX + 1, 0, model.DP_MAX, 5, 10**20]
        pmfs = posterior_pmfs(params, sample, reversed(grid))
        assert sorted(pmfs) == [0, 5, model.DP_MAX] and len(passes) == 1
        assert all(pmf.support_max == m for m, pmf in pmfs.items())
        for bad in ([5, -1], [5, 20001.5], reversed([2.5, model.DP_MAX + 1])):
            with pytest.raises(DomainError, match="integer"):
                posterior_pmfs(params, sample, bad)
        assert posterior_pmfs(params, sample, []) == {}
        assert posterior_pmfs(params, sample, [model.DP_MAX + 1]) == {}
        assert len(passes) == 1
        with pytest.raises(SizeLimitError, match="dp_max"):
            posterior_pmf_dp(params, sample, model.DP_MAX + 1)

    @pytest.mark.parametrize("pmf_at", [
        posterior_pmf_dp,
        posterior_pmf_closed,
        lambda params, sample, m: posterior_pmfs(params, sample, [1, m]),
        posterior_mean,
        gaussian_interval,
        pytest.param(lambda params, sample, m: exact_interval(params, sample, m, 0.95, 100,
                                                              RngStream(0)),
                     id="exact_interval"),
        pytest.param(lambda params, sample, m: sample_k_future(params, sample, m, RngStream(0),
                                                               size=1),
                     id="sample_k_future"),
        pytest.param(lambda params, sample, m: sample_ml_limit(params, sample, m, RngStream(0),
                                                               size=1),
                     id="sample_ml_limit"),
        pytest.param(lambda params, sample, m: sample_prior_kstar(params.alpha, params.theta, m,
                                                                  RngStream(0), size=1),
                     id="sample_prior_kstar"),
    ])
    @pytest.mark.parametrize("m", [2.5, 3.0, "3"])
    def test_non_integer_m_rejected(self, pmf_at, m):
        with pytest.raises(DomainError, match="integer"):
            pmf_at(PYParams(0.5, 0.5), SampleSummary(2, 1), m)

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



@pytest.mark.parametrize("alpha,theta,n,j,m", [
    (0.52, 990869.54, 2843, 1582, 55),
    (0.45, 431807.38, 1115, 314, 54),
    (0.5, 1e300, 20, 10, 30),
])
def test_closed_form_at_large_theta(alpha, theta, n, j, m):
    """The rising factorials of the closed form are products, not log-gamma
    differences, which lose about 1e-10 near theta = 1e6."""
    params, sample = PYParams(alpha, theta), SampleSummary(n, j)
    dp = posterior_pmf_dp(params, sample, m)
    cl = posterior_pmf_closed(params, sample, m)
    assert np.max(np.abs(dp.probs - cl.probs)) <= 1e-12


def _pmf_mpmath(alpha, theta, n, j, m):
    """Posterior pmf by the forward recursion over the predictive chain in
    60-digit arithmetic, from the exact binary values of alpha and theta."""
    with mpmath.workdps(60):
        a, t = mpmath.mpf(alpha), mpmath.mpf(theta)
        probs = [mpmath.mpf(1)]
        for i in range(m):
            p = [(t + a * (j + k)) / (t + n + i) for k in range(i + 1)]
            nxt = [probs[k] * (1 - p[k]) for k in range(i + 1)] + [mpmath.mpf(0)]
            for k in range(i + 1):
                nxt[k + 1] += probs[k] * p[k]
            probs = nxt
        return np.array([float(x) for x in probs])


@pytest.mark.parametrize("alpha,theta,n,j,m", [
    (alpha, theta, n, j, m)
    for alpha in (0.0, 1e-9, 0.54, 1 - 1e-9)
    for theta in (-alpha + 1e-3, 26.67, 1e300)
    for n, j, m in ((1, 1, 60), (977, 300, 60), (2586, 1825, 25))
] + [(0.0, 178.48, 2000, 447, 60), (0.999999, 0.5, 40, 3, 60)])
def test_closed_form_against_mpmath(alpha, theta, n, j, m):
    """Every entry of the closed form within 1e-13 of a 60-digit reference,
    at both ends of alpha and of theta."""
    cl = posterior_pmf_closed(PYParams(alpha, theta), SampleSummary(n, j), m)
    assert np.max(np.abs(cl.probs - _pmf_mpmath(alpha, theta, n, j, m))) <= 1e-13

@pytest.fixture
def floor_1e300(monkeypatch):
    """The band floor the older pins were computed at; the kernel and the
    plain recursion read the floor when they start."""
    monkeypatch.setattr(model, "_DP_FLOOR", 1e-300)


def _posterior_steps(alpha, theta, n, j, m):
    """The kernel's posterior pass, the one `posterior_pmf_dp` runs."""
    return _chain_steps(alpha, theta + alpha * j, theta + n, m)


def _check_banded_pmf(case, sha, mean, var):
    """The plain recursion's pmf keeps its pins, and the kernel's posterior
    pass ends on a band that trimmed."""
    for band, _, _ in plain_recursion(*case):
        pass
    pmf = Pmf(band / band.sum())
    kept = np.where(pmf.probs >= 1e-250, pmf.probs, 0.0)
    assert hashlib.sha256(kept.tobytes()).hexdigest() == sha
    assert repr(pmf.mean()) == mean
    assert repr(pmf.variance()) == var

    m = case[-1]
    for band, lo, hi in _posterior_steps(*case):
        pass
    live = np.flatnonzero(band)
    assert (lo, hi) == (live[0], live[-1] + 1)
    assert (lo, hi) != (0, m + 1)  # the band did trim
    assert np.all(band[lo:hi] >= model._DP_FLOOR)
    assert not band[:lo].any() and not band[hi:].any()


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


@pytest.mark.usefixtures("floor_1e300")
@pytest.mark.parametrize("case,sha,mean,var", PINNED_DP)
def test_banded_dp_pinned(case, sha, mean, var):
    _check_banded_pmf(case, sha, mean, var)


# The same cases at the band floor of 1e-30, as computed when the floor
# was raised to it.
PINNED_DP_FLOOR_1E30 = [
    ((0.465, 0.658, 977, 43, 4885),
     "64f66db04f96b87c2270dfb7a1ffbc554b675c8bda09176785285d6cc5e573b2",
     "57.75021188260696", "130.87260131637157"),
    ((0.0, 206.07, 2000, 489, 5000),
     "49d64bd10bd2be7233bfcf3d4ead9b826ac45e014d51492f7d463e9dcf5b2a51",
     "243.9597511716558", "230.5996314894653"),
    ((0.9, 29.6, 2586, 1825, 2586),
     "30a3edcbe6610ad96c641aaeac92206623b76101b9b2249e5b08b21e4f2fe181",
     "1591.423378018907", "1122.4077096205924"),
]


@pytest.mark.parametrize("case,sha,mean,var", PINNED_DP_FLOOR_1E30)
def test_banded_dp_pinned_at_floor(case, sha, mean, var):
    _check_banded_pmf(case, sha, mean, var)


@pytest.mark.parametrize("case", [c for c, *_ in PINNED_DP] + [(0.5, 0.5, 2, 1, 300)])
def test_one_pass_pmfs_equal_single_runs(case):
    """Every pmf of one pass over a grid is bitwise equal to the pmf of a
    call for that m alone, m = 0 and the top included."""
    alpha, theta, n, j, top = case
    params, sample = PYParams(alpha, theta), SampleSummary(n, j)
    grid = [0, 1, top // 7, top // 2, top - 1, top]
    pmfs = posterior_pmfs(params, sample, reversed(grid))
    assert sorted(pmfs) == sorted(set(grid))
    for m in grid:
        single = posterior_pmfs(params, sample, [m])[m]
        assert pmfs[m].support_max == m
        assert pmfs[m].probs.tobytes() == single.probs.tobytes(), m


def _buffers_digest(case):
    """SHA-256 of the plain recursion's raw buffer (tail bits included) at
    draws i < 130, every 61st draw and the last."""
    m = case[-1]
    digest = hashlib.sha256()
    for i, (buf, _, _) in enumerate(plain_recursion(*case)):
        assert buf.size == m + 1
        if i < 130 or i % 61 == 0 or i == m:
            digest.update(buf.tobytes())
    assert i == m
    return digest.hexdigest()


# `_buffers_digest` at the floor of 1e-300.  The first case is one where
# the plain recursion's clamp of p at 1 binds.
PINNED_DP_BUFFERS = [
    ((0.999999999, 1e17, 1, 1, 50),
     "b9fa7a41e232da6ef3713a695d1457d9109c164b0dd35b9425e137acd220d2b7"),
    ((0.0, 206.07, 2000, 489, 5000),
     "8857126deea106fdebe48adf414eea9644f1eab427820914b3fd97cd27d0c634"),
    ((0.3, -0.2, 50, 10, 3000),
     "9783ed0bc5a162c795da378cb8fb28387c6541f7df38c4383a980fe6e3e79ad4"),
    ((0.5, 1e300, 20, 10, 30),
     "a264c981b5e34f14ad8a4bbaa2c3c7ec073e425e1c77d432fc40d634e346135d"),
    ((0.5, 0.5, 2, 1, 0),
     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ((0.5, 0.5, 2, 1, 1),
     "c419aaebb9dfebcbfb65f1043f490d8c4b789967f2aa15f08b85e399ff8e2fe8"),
    ((0.9, 29.6, 2586, 1825, 12930),
     "cd247006675974ee76d0a7439539eba9a7873dd02804d5ea9efdb8e29f92728a"),
]


@pytest.mark.usefixtures("floor_1e300")
@pytest.mark.parametrize("case,sha", PINNED_DP_BUFFERS)
def test_dp_buffers_pinned(case, sha):
    assert _buffers_digest(case) == sha


# The same cases at the floor of 1e-30, as computed when it was raised.
PINNED_DP_BUFFERS_FLOOR_1E30 = [
    ((0.999999999, 1e17, 1, 1, 50),
     "b9fa7a41e232da6ef3713a695d1457d9109c164b0dd35b9425e137acd220d2b7"),
    ((0.0, 206.07, 2000, 489, 5000),
     "f9774c97e4324235fe740daf75357dda1e7cc706c5c99a705a4accf3e20fbf3a"),
    ((0.3, -0.2, 50, 10, 3000),
     "fd67b28f06c02bfc8dbc64a7ffbc9c0c3f9c59a2b7000bb4608361d0263f4130"),
    ((0.5, 1e300, 20, 10, 30),
     "a264c981b5e34f14ad8a4bbaa2c3c7ec073e425e1c77d432fc40d634e346135d"),
    ((0.5, 0.5, 2, 1, 0),
     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712"),
    ((0.5, 0.5, 2, 1, 1),
     "c419aaebb9dfebcbfb65f1043f490d8c4b789967f2aa15f08b85e399ff8e2fe8"),
    ((0.9, 29.6, 2586, 1825, 12930),
     "ccb37583365672c3100238db4adc18a45242effa9d4031ed9d17fb9889a41fe3"),
    # the widest window: the band reaches 16906 entries
    ((0.999999, 0.5, 40, 3, 20000),
     "d63b46bb890b56d24439d281a1c9d4153b0c4fe2355a978f7472d88584aa5a0c"),
]


@pytest.mark.parametrize("case,sha", PINNED_DP_BUFFERS_FLOOR_1E30)
def test_dp_buffers_pinned_at_floor(case, sha):
    assert _buffers_digest(case) == sha


@pytest.mark.parametrize("case", sorted(
    {c for c, *_ in PINNED_DP + PINNED_DP_BUFFERS_FLOOR_1E30}))
def test_dp_against_plain_recursion(case):
    """On every pinned case `posterior_pmf_dp`, the kernel's posterior
    pass, is within 1e-15 of the plain recursion."""
    alpha, theta, n, j, m = case
    for band, _, _ in plain_recursion(*case):
        pass
    got = posterior_pmf_dp(PYParams(alpha, theta), SampleSummary(n, j), m)
    assert np.max(np.abs(got.probs - band / band.sum())) <= 1e-15


def _block_edge_digest():
    """The kernel runs blocks of 64 draws; the grid has points on both
    sides of two block edges."""
    params, sample = PYParams(0.25, 3.0), SampleSummary(40, 12)
    digest = hashlib.sha256()
    for m in [0, 1, 63, 64, 65, 127, 128, 129, 200]:
        digest.update(posterior_pmf_dp(params, sample, m).probs.tobytes())
    return digest.hexdigest()


@pytest.mark.usefixtures("floor_1e300")
def test_one_pass_pmfs_pinned_across_block_edges():
    assert _block_edge_digest() == (
        "fd6dadace857b204714efd1e62f71a27c54c547425d344fa39ed937fcce73f35")


def test_one_pass_pmfs_pinned_across_block_edges_at_floor():
    assert _block_edge_digest() == (
        "1c604072ea714a720de55a82ad40a4a9d632c49dc0b8d16850eef6b14fbf3e78")


@pytest.mark.parametrize("case", sorted(
    {c for c, *_ in PINNED_DP + PINNED_DP_BUFFERS if c[-1] > 0}))
def test_raised_floor_moves_only_the_far_tail(case, monkeypatch):
    """The pmf at the floor of 1e-30 against the pmf at 1e-300: the two
    differ by no more than the mass the higher floor drops, (2m + 2) *
    1e-30, entries above 1e-14 agree to 1e-15 relative, and the means are
    equal."""
    alpha, theta, n, j, m = case
    params, sample = PYParams(alpha, theta), SampleSummary(n, j)
    new = posterior_pmf_dp(params, sample, m)
    monkeypatch.setattr(model, "_DP_FLOOR", 1e-300)
    old = posterior_pmf_dp(params, sample, m)
    assert np.max(np.abs(new.probs - old.probs)) <= (2 * m + 2) * 1e-30
    big = old.probs >= 1e-14
    assert np.all(np.abs(new.probs[big] - old.probs[big]) <= 1e-15 * old.probs[big])
    assert new.mean() == old.mean()


# The empirical-Bayes fits (alpha, theta, n, j) behind the benchmark's
# m = 20000 rows at seed 1; the four synthetic ones also fit the synthetic
# sweep at seed 1.  polya_c's is the fit of the sample the sequential urn
# drew; the Dirichlet-multinomial draw now fits to (0, 210.89, 2000, 496),
# next to uniform_d's, and these tests keep the farther case.
LARGE_M_FITS = {
    "zipf_a": (0.46531667116373665, 0.657799734431501, 977, 43),
    "zipf_b": (0.3364359984017909, 3.925268292759117, 1877, 82),
    "polya_c": (0.0, 206.07367960501995, 2000, 489),
    "uniform_d": (0.0, 210.19519369218702, 2000, 495),
    "mastigamoeba_norm": (0.8072310137103939, 22.19838130779522, 363, 248),
    "tomato_flower": (0.900182378954665, 29.603310811144823, 2586, 1825),
}
SWEEP_FITS = ("zipf_a", "zipf_b", "polya_c", "uniform_d")


def _bb_log_weight_mpmath(a, b, m, r):
    with mpmath.workdps(40):
        a, b, lg = mpmath.mpf(a), mpmath.mpf(b), mpmath.loggamma
        return float(lg(m + 1) - lg(r + 1) - lg(m - r + 1) + lg(r + a) + lg(m - r + b)
                     - lg(m + a + b) + lg(a + b) - lg(a) - lg(b))


@pytest.mark.parametrize("m", [1, 977, 20000])
@pytest.mark.parametrize("a,b", [(1.0, 1.5), (1671.0, 787.0), (0.5, 0.3), (1e6, 500.5)])
def test_beta_binomial_log_weights_against_mpmath(a, b, m):
    """Each weight of R's window (>= 1e-30) within 1e-10 relative of a
    40-digit reference; every log-weight within 1e-10 relative."""
    log_w = model._beta_binomial_log_weights(a, b, m)
    assert log_w.shape == (m + 1,)
    window = np.flatnonzero(log_w >= math.log(1e-30))
    rs = np.unique(np.concatenate([np.linspace(0, m, 401).astype(int), window[[0, -1]],
                                   [int(np.argmax(log_w))]]))
    ref = np.array([_bb_log_weight_mpmath(a, b, m, int(r)) for r in rs])
    err = np.abs(log_w[rs] - ref)
    inside = ref >= math.log(1e-30)
    assert inside.any()
    assert np.all(err[inside] <= 1e-10), err[inside].max()
    assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(ref))), err.max()


def _r_window(alpha, theta, n, j, m):
    """[r_lo, r_hi]: the draws R ~ BetaBinomial(m; theta + alpha j, n -
    alpha j) whose weight is at least 1e-30, the mixture's window."""
    w = np.exp(model._beta_binomial_log_weights(theta + alpha * j, n - alpha * j, m))
    r_lo, r_hi = np.flatnonzero(w >= 1e-30)[[0, -1]]
    return int(r_lo), int(r_hi)


def test_mixture_matches_recursion_at_large_m():
    """At m = 20000 every fit of the benchmark's rows is within 1e-12 of the
    posterior recursion."""
    for alpha, theta, n, j in LARGE_M_FITS.values():
        params, sample = PYParams(alpha, theta), SampleSummary(n, j)
        got = posterior_pmfs(params, sample, [20000])[20000]
        assert np.max(np.abs(got.probs - posterior_pmf_dp(params, sample, 20000).probs)) <= 1e-12


@pytest.mark.parametrize("case", [
    pytest.param(LARGE_M_FITS["mastigamoeba_norm"] + (20000,), id="mastigamoeba_norm-20000"),
    pytest.param((0.5, 0.5, 2, 1, 300), id="small-300"),
    pytest.param((0.5, 0.5, 2, 1, 20000), id="small-20000"),
    pytest.param((0.999999, 0.5, 40, 3, 20000), id="alpha_near_1-20000"),
])
def test_mixture_matches_recursion_on_wide_windows(case):
    """Fits whose R window covers most of [0, m], where the prior pass runs
    almost as far as the posterior one, within 1e-12 of the recursion."""
    alpha, theta, n, j, m = case
    params, sample = PYParams(alpha, theta), SampleSummary(n, j)
    r_lo, r_hi = _r_window(alpha, theta, n, j, m)
    assert r_hi - r_lo > m // 2
    got = posterior_pmfs(params, sample, [m])[m]
    assert np.max(np.abs(got.probs - posterior_pmf_dp(params, sample, m).probs)) <= 1e-12


@pytest.mark.parametrize("name", ["tomato_flower", "zipf_a"])
def test_mixture_matches_recursion_on_narrow_windows(name):
    """Fits whose R window is short against m (r_hi + (r_hi - r_lo) < m),
    where the prior pass stops far below m, within 1e-12 of the recursion."""
    alpha, theta, n, j = LARGE_M_FITS[name]
    m = 20000
    params, sample = PYParams(alpha, theta), SampleSummary(n, j)
    r_lo, r_hi = _r_window(alpha, theta, n, j, m)
    assert r_hi + (r_hi - r_lo) < m
    got = posterior_pmfs(params, sample, [m])[m]
    assert np.max(np.abs(got.probs - posterior_pmf_dp(params, sample, m).probs)) <= 1e-12


def _recursion_grid(params, sample, grid):
    """Pmfs of one pass of the plain recursion to max(grid), kept at every
    m of the grid."""
    out = {}
    for i, (probs, _, _) in enumerate(plain_recursion(params.alpha, params.theta, sample.n,
                                                      sample.j, max(grid))):
        if i in grid:
            # entries past i are still 0
            head = probs[: i + 1]
            out[i] = head / head.sum()
    return out


@pytest.mark.parametrize("name", SWEEP_FITS)
def test_mixture_matches_recursion_on_sweep_grid(name):
    """The README sweep's grid 0..5n, every point within 1e-12 of one
    recursion pass over the same grid."""
    from unseen.cli import _parse_m_grid

    alpha, theta, n, j = LARGE_M_FITS[name]
    params, sample = PYParams(alpha, theta), SampleSummary(n, j)
    grid = _parse_m_grid("0..5n", n)
    got = posterior_pmfs(params, sample, grid)
    want = _recursion_grid(params, sample, set(grid))
    for m in grid:
        assert np.max(np.abs(got[m].probs - want[m])) <= 1e-12, m


def test_mixture_matches_recursion_on_pinned_cases():
    for alpha, theta, n, j, m in [c for c, *_ in PINNED_DP] + [PINNED_DP_BUFFERS[-1][0]]:
        params, sample = PYParams(alpha, theta), SampleSummary(n, j)
        got = posterior_pmfs(params, sample, [m])[m]
        assert np.max(np.abs(got.probs - posterior_pmf_dp(params, sample, m).probs)) <= 1e-12


def _prior_pass_to_r_hi(name):
    alpha, theta, n, j = LARGE_M_FITS[name]
    return alpha, theta + alpha * j, _r_window(alpha, theta, n, j, 20000)[1]


@pytest.mark.parametrize("alpha,theta_total,r_max", [
    pytest.param(*_prior_pass_to_r_hi(name), id=name) for name in LARGE_M_FITS
] + [
    pytest.param(0.54, 1e-3, 2000, id="theta_1e-3"),
    pytest.param(0.0, 1e-3, 2000, id="alpha_0-theta_1e-3"),
    pytest.param(0.54, 1e300, 2000, id="theta_1e300"),
    pytest.param(1 - 1e-9, 0.5, 2000, id="alpha_1-1e-9"),
])
def test_prior_steps_against_recursion(alpha, theta_total, r_max):
    """The kernel's prior pass against the plain recursion's, state by
    state, over the benchmark fits' passes to r_hi at m = 20000 and at the
    edges of theta' and alpha."""
    _check_pass(alpha, theta_total, 0, 0, r_max)


@pytest.mark.parametrize("case", [
    pytest.param((0.999999999, 1e17, 1, 1, 50), id="alpha_1-1e-9-theta_1e17"),
    pytest.param((0.5, 1e300, 20, 10, 30), id="theta_1e300"),
    pytest.param((0.54, -0.54 + 1e-3, 977, 300, 2000), id="theta_-alpha+1e-3"),
    pytest.param((0.999999, -0.999999 + 1e-3, 40, 3, 2000), id="alpha_1-1e-6-theta_-alpha+1e-3"),
    pytest.param((0.0, 1e-3, 2000, 447, 2000), id="alpha_0-theta_1e-3"),
])
def test_posterior_steps_against_recursion(case):
    """The kernel's posterior pass, where p of a new species can round
    above 1 and the plain recursion clamps it, against that recursion
    state by state."""
    _check_pass(*case)


def _check_pass(alpha, theta, n, j, m):
    """The kernel's pass against the plain recursion, state by state: every
    buffer within 1e-14, no negative entry, every band entry at or above
    the floor and every entry outside the band 0; with n = 0, the prior
    chain, nothing left at count 0 once a draw is made."""
    steps = zip(_posterior_steps(alpha, theta, n, j, m), plain_recursion(alpha, theta, n, j, m))
    for r, ((got, lo, hi), (want, _, _)) in enumerate(steps):
        assert np.max(np.abs(got - want)) <= 1e-14, r
        assert n or r == 0 or got[0] == 0.0, r
        assert got.min() >= 0.0, r
        assert np.all(got[lo:hi] >= model._DP_FLOOR), r
        assert not got[:lo].any() and not got[hi:].any(), r
    assert r == m


@pytest.mark.parametrize("alpha,theta,n,j,m", [
    (0.5, 1.0, 100000, 10, 20),
    (0.5, 1.0, 100000, 10, 60),
    (0.0, 2.0, 5000, 3, 60),
    (0.9, 0.5, 20000, 100, 60),
    (0.0, 20.0, 3000, 100, 60),
] + [
    (alpha, theta, n, j, m)
    for alpha in (0.0, 1e-9, 0.54, 1 - 1e-9)
    for theta in (-alpha + 1e-3, 26.67, 1e300)
    for n, j, m in ((1, 1, 60), (977, 300, 60), (2586, 1825, 25))
])
def test_mixture_against_mpmath(alpha, theta, n, j, m):
    got = posterior_pmfs(PYParams(alpha, theta), SampleSummary(n, j), [m])[m]
    assert np.max(np.abs(got.probs - _pmf_mpmath(alpha, theta, n, j, m))) <= 1e-13


@pytest.mark.parametrize("n", [1, 9999, 10000, 10001, 20000, 25017])
def test_dot_in_pieces(n):
    """`_dot` is bitwise x @ y up to 10 000 entries, and above that the
    in-order sum of the dots of consecutive 10 000-entry pieces, with
    Pmf.mean's integer left operand as with floats."""
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.random(n)
    k = np.arange(n)
    if n <= 10000:
        assert model._dot(x, y) == x @ y
        assert model._dot(k, y) == k @ y
        return
    for left in (x, k):
        total = 0.0
        for s in range(0, n, 10000):
            total += left[s : s + 10000] @ y[s : s + 10000]
        assert repr(model._dot(left, y)) == repr(total)


@pytest.fixture
def daxpy_sizes(monkeypatch):
    """The n of every `model.daxpy` call from here on."""
    daxpy, sizes = model.daxpy, []

    def recorded(x, y, n, *args):
        sizes.append(n)
        return daxpy(x, y, n, *args)

    monkeypatch.setattr(model, "daxpy", recorded)
    return sizes


@pytest.mark.parametrize("n,off", [(10000, 0), (10001, 3), (16906, 1), (30017, 0)])
def test_axpy_in_pieces(n, off, daxpy_sizes):
    """`_axpy` gives y the bytes of one daxpy call, at the offsets the
    mixture passes, in calls of at most 10 000 entries."""
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n + off), rng.standard_normal(n + off)
    a = float(rng.standard_normal())
    one = y.copy()
    model.daxpy(x, one, n, a, off, 1, off)
    daxpy_sizes.clear()
    model._axpy(x, y, n, a, off, 1, off)
    assert y.tobytes() == one.tobytes()
    assert max(daxpy_sizes) <= 10000 and sum(daxpy_sizes) == n


def test_wide_window_kernels_make_no_call_above_10000(daxpy_sizes, monkeypatch):
    """At alpha near 1 the band reaches 16906 entries.  Every daxpy call of
    the posterior pass and of the mixture covers at most 10 000 entries, and
    the pmfs have the bytes of one call per step (the chunk patched above
    m + 1)."""
    params, sample, m = PYParams(0.999999, 0.5), SampleSummary(40, 3), 20000
    dp = posterior_pmf_dp(params, sample, m)
    assert max(daxpy_sizes) == 10000
    daxpy_sizes.clear()
    mixed = posterior_pmfs(params, sample, [m])[m]
    assert max(daxpy_sizes) == 10000

    monkeypatch.setattr(model, "_BLAS_CHUNK", m + 2)
    daxpy_sizes.clear()
    assert posterior_pmf_dp(params, sample, m).probs.tobytes() == dp.probs.tobytes()
    assert max(daxpy_sizes) > 10000
    daxpy_sizes.clear()
    assert posterior_pmfs(params, sample, [m])[m].probs.tobytes() == mixed.probs.tobytes()
    assert max(daxpy_sizes) > 10000


# Moments of a pmf over 12 931 entries and the fit of a sample with j =
# 12000 species, all of whose dots pass 10 000 entries.
_THREAD_SCRIPT = """
from unseen import PYParams, SampleSummary, fit_empirical_bayes, posterior_pmfs
pmf = posterior_pmfs(PYParams(0.9, 29.6), SampleSummary(2586, 1825), [12930])[12930]
print(repr(pmf.mean()), repr(pmf.variance()))
freqs = [max(1, round(30000 / (i + 1) ** 1.1)) for i in range(12000)]
print(fit_empirical_bayes(SampleSummary.from_freqs(freqs)))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: OpenBLAS runs every call on one thread")
def test_results_do_not_depend_on_blas_threads():
    """The same moments and fit under one BLAS thread and under two, where
    OpenBLAS would split any call over 10 000 entries and sum its parts in
    another order."""
    src = str(Path(unseen.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    assert "converged=True" in outputs[0]
    assert outputs[0] == outputs[1]
