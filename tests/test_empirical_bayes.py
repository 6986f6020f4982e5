import math
import tracemalloc

import numpy as np
import pytest

from unseen import empirical_bayes
from unseen.cli import SYNTHETIC_SUITE, _est_samples
from unseen.datasets import DatasetSpec, generate
from unseen.empirical_bayes import ep_log_likelihood, fit_empirical_bayes
from unseen.errors import DegenerateSampleError
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

    @pytest.mark.parametrize("alpha,theta", [(0.0, 0.5), (0.0, 2.0), (0.5, 0.5), (0.5, 2.0),
                                             (0.5, -0.3), (0.8, -0.7)])
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

    def test_negative_theta_pinned(self):
        # theta in (-alpha, 0] stays in the likelihood's domain, though the
        # fit searches theta >= 1e-4 only; the value is bitwise pinned
        sample = sample_prior_partition(0.8, -0.7, 200, RngStream(1))
        got = ep_log_likelihood(0.8200000000000001, -0.4455884817807174, sample)
        assert got == -220.49953374449206

    @pytest.mark.parametrize("blocks", [1, 3], ids=["one_block", "three_blocks"])
    def test_point_equals_its_lane(self, monkeypatch, blocks):
        """A one-point evaluation has the bits of the same lane of a
        many-lane `_loglik` call, at alpha = 0, at interior alpha and at
        theta in (-alpha, 0], below the fit's search floor.  Many species
        and a small |log-likelihood| let a last-bit change of the
        new-species term show in the total."""
        sample = SampleSummary.from_freqs([1] * 400 + [2] * 50 + [5] * 10 + [40])
        points = [(0.0, 0.5), (0.48074272048162003, 4.896031703012677), (0.8, -0.7),
                  (0.0, 208.8162673002511), (0.5, 0.0), (0.99, 1e5), (0.1, -0.05)]
        alphas, thetas = (np.array(v) for v in zip(*points))
        lanes_per_block = -(-len(points) // blocks)
        monkeypatch.setattr(empirical_bayes, "_LANE_BUDGET", lanes_per_block * (sample.j - 1))
        fv, fm = empirical_bayes._freq_multiset(sample)
        lanes = empirical_bayes._loglik(alphas, thetas, sample.n, sample.j, fv, fm)
        got = [ep_log_likelihood(a, t, sample) for a, t in points]
        assert np.isfinite(lanes).all()
        assert got == lanes.tolist()


class TestFit:
    def test_rejects_single_observation(self):
        with pytest.raises(DegenerateSampleError):
            fit_empirical_bayes(SampleSummary(1, 1, (1,)))

    def test_two_obs_one_block_flags_boundary(self):
        fit = fit_empirical_bayes(SampleSummary(2, 1, (2,)))
        assert fit.alpha_hat == 0.0
        assert "alpha_zero" in fit.boundary_flags
        assert not fit.converged

    def test_all_singletons_caps_theta(self, monkeypatch):
        """Both scores stay positive on the whole box, so the fit ends at
        its corner.  One step from the mesh's best point reaches it, and
        both coordinates are held there, so the likelihood is evaluated at
        those two points only.  At n = 3 the likelihood's rounding error
        near theta = 1e6 is larger than its rise toward the corner."""
        points = []
        real = empirical_bayes._loglik_at

        def loglik_at(alpha, theta, *args):
            points.append((alpha, theta))
            return real(alpha, theta, *args)

        monkeypatch.setattr(empirical_bayes, "_loglik_at", loglik_at)
        for n in (6, 3):
            points.clear()
            fit = fit_empirical_bayes(SampleSummary(n, n, (1,) * n))
            assert "theta_capped" in fit.boundary_flags
            assert (fit.alpha_hat, fit.theta_hat) == (1.0 - 1e-12, 1e6)
            assert not fit.converged
            assert len(points) == 2 and points[-1] == (1.0 - 1e-12, 1e6)

    def test_large_count_fits_in_bounded_memory(self):
        """The score, like the likelihood, costs O(j + distinct f): a
        species seen 1e9 times allocates nothing of that size."""
        tracemalloc.start()
        try:
            fit = fit_empirical_bayes(SampleSummary.from_freqs([10**9, 3, 1, 1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert fit.boundary_flags == {"theta_at_min"} and not fit.converged

    def test_mesh_fits_in_bounded_memory(self):
        """The mesh is scored in closed form, a few arrays of 100 lanes by
        24 columns, and `_loglik` re-scores only its near-ties: one lane at
        tomato_flower, a term matrix of j - 1 = 1824 entries.  One `_loglik`
        call over the whole mesh would take about 32 MB."""
        sample = _est_sample("tomato_flower")
        tracemalloc.start()
        try:
            fit_empirical_bayes(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_result_consistency(self):
        sample = sample_prior_partition(0.5, 5.0, 2000, RngStream(101))
        fit = fit_empirical_bayes(sample)
        # the fit and ep_log_likelihood share one formula, so they agree exactly
        assert fit.log_likelihood == ep_log_likelihood(fit.alpha_hat, fit.theta_hat, sample)

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

    @pytest.mark.parametrize("make", [
        lambda: sample_prior_partition(0.8, -0.7, 200, RngStream(1)),
        lambda: SampleSummary(2, 1, (2,)),
    ], ids=["negative_theta_truth", "one_block"])
    def test_theta_floor_flagged(self, make):
        """A likelihood that still rises as theta falls to 1e-4 stops the fit
        at the floor; the fit says so rather than claiming convergence."""
        fit = fit_empirical_bayes(make())
        assert fit.theta_hat == 1e-4
        assert "theta_at_min" in fit.boundary_flags
        assert not fit.converged

    def test_refinement_stays_in_alpha_range(self, monkeypatch):
        """The refinement of a fit at alpha = 0 evaluates no point with
        alpha < 0, where the likelihood is -inf."""
        alphas = []

        def loglik_at(alpha, *args):
            alphas.append(alpha)
            return real(alpha, *args)

        real = empirical_bayes._loglik_at
        monkeypatch.setattr(empirical_bayes, "_loglik_at", loglik_at)
        fit = fit_empirical_bayes(_uniform_like_sample())
        assert fit.alpha_hat == 0.0
        assert alphas and min(alphas) >= 0.0


def _uniform_like_sample():
    rng = RngStream(109).generator()
    counts = np.bincount(rng.integers(0, 501, size=2000), minlength=501)
    return SampleSummary.from_freqs(counts[counts > 0])


def _synthetic_sample(name):
    """The dataset `unseen benchmark --suite synthetic --seed 1` fits."""
    index = sorted(SYNTHETIC_SUITE).index(name)
    return generate(SYNTHETIC_SUITE[name], RngStream(1).split(1000 + index))


def _est_sample(name):
    """The packaged stand-in that `unseen benchmark --suite est` fits."""
    return dict(_est_samples(None))[name]


# (alpha_hat, theta_hat, log_likelihood) as the mesh and its Newton ascent
# compute them.  polya_c's sample is the Dirichlet-multinomial draw.
PINNED_FITS = {
    "alpha_zero": (_uniform_like_sample,
                   "(0.0, 208.8162576687606, -10052.67687143255)"),
    "interior": (lambda: sample_prior_partition(0.5, 5.0, 2000, RngStream(101)),
                 "(0.4807427162490828, 4.896028835849318, -6290.880524006425)"),
    "polya_c": (lambda: _synthetic_sample("polya_c"),
                "(0.0, 210.88659748172955, -10041.467556830123)"),
    "uniform_d": (lambda: _synthetic_sample("uniform_d"),
                  "(0.0, 210.19520237289686, -10056.473863263587)"),
    "zipf_a": (lambda: _synthetic_sample("zipf_a"),
               "(0.4653166585491231, 0.6578001274863243, -1419.7838476677425)"),
    "zipf_b": (lambda: _synthetic_sample("zipf_b"),
               "(0.33643596389352026, 3.925270623022477, -4277.797020493854)"),
    "tomato_flower": (lambda: _est_sample("tomato_flower"),
                      "(0.9001823874331512, 29.60331407989266, -4715.480177855083)"),
    "mastigamoeba": (lambda: _est_sample("mastigamoeba"),
                     "(0.824058563311367, 23.391066510567285, -1417.681480074834)"),
    "mastigamoeba_norm": (lambda: _est_sample("mastigamoeba_norm"),
                          "(0.8072310028580899, 22.19838668825312, -634.3689803159276)"),
    "naegleria_aerobic": (lambda: _est_sample("naegleria_aerobic"),
                          "(0.7540133110041015, 20.116678895626517, -2445.862982962242)"),
    "naegleria_anaerobic": (lambda: _est_sample("naegleria_anaerobic"),
                            "(0.8441830151985755, 24.174454491812668, -1922.4806377075765)"),
}

# (alpha_hat, theta_hat, log_likelihood) as the fit gave them when a
# simplex search refined the grid's best point.  Each refit reaches the
# log-likelihood here less 1e-9.
FLOOR_FITS = {
    "alpha_zero": (0.0, 208.8162673002511, -10052.676871432548),
    "interior": (0.48074272048162003, 4.896031703012677, -6290.880524006419),
    "polya_c": (0.0, 210.8865769103242, -10041.467556830123),
    "uniform_d": (0.0, 210.19519369218702, -10056.473863263584),
    "zipf_a": (0.46531667116373665, 0.657799734431501, -1419.7838476677416),
    "zipf_b": (0.3364359984017909, 3.925268292759117, -4277.797020493852),
    "tomato_flower": (0.900182378954665, 29.603310811144823, -4715.480177855079),
    "mastigamoeba": (0.8240585708203249, 23.391058768650176, -1417.6814800748339),
    "mastigamoeba_norm": (0.8072310137103939, 22.19838130779522, -634.3689803159275),
    "naegleria_aerobic": (0.7540133066881398, 20.11668233707224, -2445.86298296224),
    "naegleria_anaerobic": (0.8441830246055927, 24.174430222290443, -1922.4806377075756),
}


class TestLockstepGridSearch:
    @pytest.mark.parametrize("make,expect", PINNED_FITS.values(), ids=PINNED_FITS.keys())
    def test_fit_bitwise_pinned(self, make, expect):
        fit = fit_empirical_bayes(make())
        assert repr((fit.alpha_hat, fit.theta_hat, fit.log_likelihood)) == expect

    def test_lane_blocks_do_not_change_the_fit(self, monkeypatch):
        """Six singletons leave four near-ties on the mesh, which one
        `_loglik` call re-scores; run one lane a block, they keep the fit's
        bits."""
        sample = SampleSummary(6, 6, (1,) * 6)
        whole = fit_empirical_bayes(sample)
        calls = _spy_loglik(monkeypatch)
        monkeypatch.setattr(empirical_bayes, "_LANE_BUDGET", sample.j - 1)
        assert fit_empirical_bayes(sample) == whole
        assert calls[0] == 4  # the re-score runs as four blocks


FIT_SAMPLES = {
    **{name: make for name, (make, _) in PINNED_FITS.items()},
    "two_in_one_block": lambda: SampleSummary(2, 1, (2,)),
    "six_singletons": lambda: SampleSummary(6, 6, (1,) * 6),
    "one_block_of_10": lambda: SampleSummary(10, 1, (10,)),
    "prior_alpha_0.99": lambda: sample_prior_partition(0.99, 5.0, 1000, RngStream(113)),
    "prior_theta_1e5": lambda: sample_prior_partition(0.5, 1e5, 1000, RngStream(127)),
    "zipf_j25": lambda: generate(DatasetSpec("zipf", 561, 1831, shape=2.55), RngStream(7090)),
    "prior_j1898": lambda: sample_prior_partition(0.9347809615165383, -0.11910309534747054,
                                                  3433, RngStream(5200)),
    # the Newton step at the mesh's best point meets an indefinite Hessian
    "zipf_n41": lambda: generate(DatasetSpec("zipf", 620, 41, shape=2.3874482128744443),
                                 RngStream(544383)),
    # the mesh's best point lies on a flat stretch at theta = 1e-4
    "prior_n23": lambda: sample_prior_partition(0.346003505548958, 0.307348068658784, 23,
                                                RngStream(403898)),
    # the ascent runs down the alpha-theta ridge to alpha = 0
    "prior_ridge": lambda: sample_prior_partition(0.6276128709091582, 254056.78139089444, 1556,
                                                  RngStream(404333)),
    # the ascent from the golden-section start zigzagged to a stop at
    # theta = 1e-4, 2.9e-6 below the interior maximum
    "prior_n2807": lambda: sample_prior_partition(0.9763788408922225, 0.6002310810018847, 2807,
                                                  RngStream(380575)),
}


# (sorted boundary flags, converged) of each FIT_SAMPLES fit as the
# simplex refinement, or for the next five the golden-section start of the
# Newton ascent, gave them; the ascent from the mesh keeps them.  The last
# is the interior maximum that start missed.
BOUNDARY_STATES = {
    "alpha_zero": (["alpha_zero"], True),
    "interior": ([], True),
    "polya_c": (["alpha_zero"], True),
    "uniform_d": (["alpha_zero"], True),
    "zipf_a": ([], True),
    "zipf_b": ([], True),
    "tomato_flower": ([], True),
    "mastigamoeba": ([], True),
    "mastigamoeba_norm": ([], True),
    "naegleria_aerobic": ([], True),
    "naegleria_anaerobic": ([], True),
    "two_in_one_block": (["alpha_zero", "theta_at_min"], False),
    "six_singletons": (["alpha_near_one", "theta_capped"], False),
    "one_block_of_10": (["alpha_zero", "theta_at_min"], False),
    "prior_alpha_0.99": ([], True),
    "prior_theta_1e5": (["alpha_zero"], True),
    "zipf_j25": ([], True),
    "prior_j1898": ([], True),
    "zipf_n41": ([], True),
    "prior_n23": ([], True),
    "prior_ridge": (["alpha_zero"], True),
    "prior_n2807": ([], True),
}


def _exact_mesh(sample):
    """The fit's mesh scored by brute force, one `_loglik` call of all the
    alpha lanes per theta column: the reference for the closed-form mesh."""
    fv, fm = empirical_bayes._freq_multiset(sample)
    alphas = empirical_bayes._MESH_ALPHAS
    blocks = empirical_bayes._block_term(alphas, fv, fm)
    return np.column_stack([
        empirical_bayes._loglik(alphas, np.full(alphas.size, theta), sample.n, sample.j,
                                fv, fm, blocks)
        for theta in empirical_bayes._MESH_THETAS])


def _mesh_point(mesh):
    """(alpha, theta) of the first maximum of a mesh, in alpha-major order."""
    lane, column = np.unravel_index(np.argmax(mesh), mesh.shape)
    return empirical_bayes._MESH_ALPHAS[lane], empirical_bayes._MESH_THETAS[column]


def _spy_loglik(monkeypatch):
    """Record the lane count of each `_loglik` call."""
    calls = []
    real = empirical_bayes._loglik

    def spy(alphas, *args):
        calls.append(alphas.size)
        return real(alphas, *args)

    monkeypatch.setattr(empirical_bayes, "_loglik", spy)
    return calls


def _fit_start(monkeypatch, sample):
    """The (alpha, theta) the fit's Newton ascent starts from."""
    starts = []
    real = empirical_bayes._newton

    def spy(x, *args):
        starts.append(tuple(x.tolist()))
        return real(x, *args)

    with monkeypatch.context() as patch:
        patch.setattr(empirical_bayes, "_newton", spy)
        fit_empirical_bayes(sample)
    return starts[0]


def _random_samples(seed, count):
    """Prior partitions, Zipf and uniform samples of random size and shape."""
    draw = RngStream(seed).generator()
    for index in range(count):
        rng = RngStream(seed).split(index)
        n = int(math.exp(draw.uniform(math.log(3), math.log(6000))))
        kind = index % 3
        if kind == 0:
            alpha = draw.uniform(0.0, 0.999)
            theta = (draw.uniform(-alpha, 1.0) if draw.random() < 0.2
                     else math.exp(draw.uniform(math.log(1e-3), math.log(1e6))))
            yield sample_prior_partition(alpha, max(theta, -alpha / 2), n, rng)
        elif kind == 1:
            spec = DatasetSpec("zipf", int(draw.integers(1, 5000)), n,
                               shape=draw.uniform(-1.0, 3.0))
            yield generate(spec, rng)
        else:
            yield generate(DatasetSpec("uniform", int(draw.integers(1, 5000)), n), rng)


def _projected_score(alpha, theta, sample):
    """The fit's projected score at (alpha, theta) in (alpha, log theta)."""
    fv, fm = empirical_bayes._freq_multiset(sample)
    score, _ = empirical_bayes._score(alpha, theta, sample.n, sample.j, fv, fm)
    return empirical_bayes._projected(np.array([alpha, theta]), score)[0]


class TestNewtonAscent:
    @pytest.mark.parametrize("name", FLOOR_FITS)
    def test_reaches_the_floor(self, name):
        fit = fit_empirical_bayes(PINNED_FITS[name][0]())
        assert fit.log_likelihood >= FLOOR_FITS[name][2] - 1e-9

    @pytest.mark.parametrize("name", FIT_SAMPLES)
    def test_boundary_state_and_score(self, monkeypatch, name):
        """The ascent starts at the exact mesh's best point.  The flags and
        converged are as pinned, the fit is never below the mesh's best
        value, the ascent takes at most 40 evaluations (at most 37 on 11244
        random fits), and a converged fit has a projected score of at most
        1e-6 n in each coordinate."""
        values = []
        real_at = empirical_bayes._loglik_at

        def spy_at(*args):
            values.append(real_at(*args))
            return values[-1]

        sample = FIT_SAMPLES[name]()
        mesh = _exact_mesh(sample)
        monkeypatch.setattr(empirical_bayes, "_loglik_at", spy_at)
        fit = fit_empirical_bayes(sample)
        assert values[0] == mesh.max()
        assert (sorted(fit.boundary_flags), fit.converged) == BOUNDARY_STATES[name]
        # a step is taken only where the value rises, so the fit keeps the
        # largest value the ascent saw
        assert fit.log_likelihood == max(values) >= values[0]
        assert len(values) <= 40
        assert type(fit.alpha_hat) is float and type(fit.theta_hat) is float
        if fit.converged:
            score = _projected_score(fit.alpha_hat, fit.theta_hat, sample)
            assert np.abs(score).max() <= 1e-6 * sample.n, score

    def test_converged_is_the_score_rule(self, monkeypatch):
        """converged compares the final projected score with the stated
        tolerance: below the float noise of the score, no fit converges."""
        sample = PINNED_FITS["interior"][0]()
        assert fit_empirical_bayes(sample).converged
        monkeypatch.setattr(empirical_bayes, "_SCORE_TOL", 1e-20)
        assert not fit_empirical_bayes(sample).converged

    def test_capped_theta_holds_while_alpha_moves(self, monkeypatch):
        """Where the likelihood still rises at theta = 1e6, theta is held at
        the cap and alpha is fitted given it: its score is 0 there.  Newton
        steps in alpha alone get there in a few evaluations; following the
        score instead takes about ten times as many."""
        evaluations = []
        real = empirical_bayes._loglik_at

        def loglik_at(*args):
            evaluations.append(args[:2])
            return real(*args)

        monkeypatch.setattr(empirical_bayes, "_loglik_at", loglik_at)
        sample = sample_prior_partition(0.6, 5e5, 3000, RngStream(210))
        fit = fit_empirical_bayes(sample)
        assert len(evaluations) <= 10
        assert fit.theta_hat == 1e6 and 0.0 < fit.alpha_hat < 0.99
        assert fit.boundary_flags == {"theta_capped"} and not fit.converged
        score = _projected_score(fit.alpha_hat, fit.theta_hat, sample)
        assert score[1] == 0.0 and abs(score[0]) <= 1e-6 * sample.n

    @pytest.mark.parametrize("alpha,theta", [(1e-3, 208.8), (0.48, 4.9), (0.3, 1e-3),
                                             (0.9, 1e5), (0.99, 1e6)])
    def test_score_is_the_likelihood_gradient(self, alpha, theta):
        """The closed-form score and Hessian match central differences of
        the likelihood and of the score, in alpha and in log theta."""
        sample = sample_prior_partition(0.5, 5.0, 2000, RngStream(101))
        fv, fm = empirical_bayes._freq_multiset(sample)
        n, j = sample.n, sample.j
        score, hessian = empirical_bayes._score(alpha, theta, n, j, fv, fm)
        h = 1e-5
        for axis, (da, dlt) in enumerate([(h, 0.0), (0.0, h)]):
            hi = (alpha + da, theta * math.exp(dlt))
            lo = (alpha - da, theta * math.exp(-dlt))
            diff = (ep_log_likelihood(*hi, sample) - ep_log_likelihood(*lo, sample)) / (2 * h)
            assert diff == pytest.approx(score[axis], rel=1e-4, abs=1e-6 * n)
            column = (empirical_bayes._score(*hi, n, j, fv, fm)[0]
                      - empirical_bayes._score(*lo, n, j, fv, fm)[0]) / (2 * h)
            assert column == pytest.approx(hessian[:, axis], rel=1e-4, abs=1e-6 * n)


def _check_start(monkeypatch, sample, label):
    """The closed form lies within its bound of `_loglik` on every mesh
    cell, and the fit starts at the brute-force mesh's first maximum."""
    fv, fm = empirical_bayes._freq_multiset(sample)
    blocks = empirical_bayes._block_term(empirical_bayes._MESH_ALPHAS, fv, fm)
    closed, bound = empirical_bayes._closed_mesh(sample.n, sample.j, blocks)
    mesh = _exact_mesh(sample)
    assert (np.abs(closed - mesh) <= bound).all(), label
    start = _fit_start(monkeypatch, sample)
    assert start == _mesh_point(mesh), label
    assert ep_log_likelihood(*start, sample) == mesh.max(), label


class TestClosedFormMesh:
    """The closed-form mesh with its rounding bound picks the start a
    brute-force `_loglik` mesh picks, so the fit keeps its bits."""

    @pytest.mark.parametrize("name", FIT_SAMPLES)
    def test_start_is_the_exact_mesh_maximum(self, monkeypatch, name):
        _check_start(monkeypatch, FIT_SAMPLES[name](), name)

    def test_start_on_random_samples(self, monkeypatch):
        for index, sample in enumerate(_random_samples(2028, 300)):
            if sample.n >= 2:
                _check_start(monkeypatch, sample, index)

    def test_near_tie_is_settled_exactly(self, monkeypatch):
        """Raise one lane's alpha term until its best cell meets the mesh's
        maximum to within a few ulps, far inside the closed form's bound
        (about 1e-8 there, at theta near 1e6).  Both cells are re-scored,
        and the start is the one `_loglik` ranks first, whichever way the
        nudge tips the tie."""
        sample = FIT_SAMPLES["prior_theta_1e5"]()
        top = _exact_mesh(sample)
        lane = 10
        lift = top.max() - top[lane].max()
        ulp = np.spacing(abs(top.max()))
        real = empirical_bayes._block_term
        starts = set()
        for ulps in (-4, 4):
            bump = lift + ulps * ulp

            def block_term(alphas, *args, bump=bump):
                alpha = empirical_bayes._MESH_ALPHAS[lane]
                return real(alphas, *args) + np.where(alphas == alpha, bump, 0.0)

            monkeypatch.setattr(empirical_bayes, "_block_term", block_term)
            mesh = _exact_mesh(sample)
            first, second = np.sort(mesh.ravel())[-2:][::-1]
            assert 0.0 <= first - second <= 8 * ulp
            calls = _spy_loglik(monkeypatch)
            _check_start(monkeypatch, sample, ulps)
            assert calls[0] >= 2
            starts.add(_mesh_point(mesh))
        assert len(starts) == 2
