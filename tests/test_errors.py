"""The two argument rules of `unseen.errors` at the public entry points.

A count is an integer (bool is not) of at least its least value, and a
rate or weight is finite and positive.  Every row hands one entry point
one argument that breaks its rule: 2.5, True or -1 for a count; nan, inf
or 0 for a positive number; a Zipf shape that is not finite; an (alpha,
theta) outside `PYParams`' domain for the prior samplers.  Each must
raise `DomainError`, not a numpy `TypeError` or `ValueError`, a
truncated count or a wrong answer.
"""

import math

import numpy as np
import pytest

from unseen import (
    DatasetSpec,
    DomainError,
    GfcTable,
    PYParams,
    RngStream,
    SampleSummary,
    exact_interval,
    gaussian_approx,
    gaussian_interval,
    generate,
    ml_interval,
    posterior_mean,
    posterior_pmf_closed,
    posterior_pmf_dp,
    posterior_pmfs,
    sample_from_pmf,
    sample_k_future,
    sample_mittag_leffler,
    sample_ml_limit,
    sample_prior_kstar,
    sample_prior_partition,
)
from unseen.errors import check_count, check_positive

PARAMS, SAMPLE, RNG = PYParams(0.5, 1.0), SampleSummary(10, 3), RngStream(1)
NAN, INF = math.nan, math.inf


def _pmf():
    return posterior_pmf_dp(PARAMS, SAMPLE, 3)


BAD_CALLS = {
    # a bool m: numpy reads True as a boolean index in the closed form
    "posterior_mean-m_true": lambda: posterior_mean(PARAMS, SAMPLE, True),
    "posterior_pmfs-m_true": lambda: posterior_pmfs(PARAMS, SAMPLE, [3, True]),
    "posterior_pmf_dp-m_true": lambda: posterior_pmf_dp(PARAMS, SAMPLE, True),
    "posterior_pmf_closed-m_true": lambda: posterior_pmf_closed(PARAMS, SAMPLE, True),
    "gaussian_approx-m_true": lambda: gaussian_approx(PARAMS, SAMPLE, True),
    "gaussian_interval-m_true": lambda: gaussian_interval(PARAMS, SAMPLE, True),
    "exact_interval-m_true": lambda: exact_interval(PARAMS, SAMPLE, True, 0.95, 100, RNG),
    "ml_interval-m_true": lambda: ml_interval(PARAMS, SAMPLE, True, 0.95, 100, RNG),
    "sample_k_future-m_true": lambda: sample_k_future(PARAMS, SAMPLE, True, RNG, 3),
    "sample_ml_limit-m_true": lambda: sample_ml_limit(PARAMS, SAMPLE, True, RNG, 3),
    "sample_prior_kstar-m_true": lambda: sample_prior_kstar(0.5, 1.0, True, RNG, 3),
    # a bool size
    "sample_k_future-size_true": lambda: sample_k_future(PARAMS, SAMPLE, 5, RNG, True),
    "sample_from_pmf-size_true": lambda: sample_from_pmf(_pmf(), RNG, True),
    "sample_prior_kstar-size_true": lambda: sample_prior_kstar(0.5, 1.0, 5, RNG, True),
    "sample_mittag_leffler-size_true": lambda: sample_mittag_leffler(0.5, 2.0, RNG, True),
    "sample_ml_limit-size_true": lambda: sample_ml_limit(PARAMS, SAMPLE, 5, RNG, True),
    # stream indices
    "RngStream-seed_true": lambda: RngStream(True),
    "RngStream-stream_id_true": lambda: RngStream(1, True),
    "RngStream.split-index_true": lambda: RngStream(1).split(True),
    # sample sizes and frequencies, which were truncated by int()
    "SampleSummary-n_j_true": lambda: SampleSummary(True, True),
    "SampleSummary-j_true": lambda: SampleSummary(3, True),
    "SampleSummary-freqs_2.5": lambda: SampleSummary(n=3, j=2, freqs=(2.9, 1.2)),
    "SampleSummary-freqs_true": lambda: SampleSummary(n=3, j=2, freqs=(2, True)),
    "SampleSummary.from_freqs-2.5": lambda: SampleSummary.from_freqs([2.9, 1.2]),
    # the closed form's triangle
    "GfcTable-u_max_2.5": lambda: GfcTable(2.5, 0.5, -1.0),
    "GfcTable-u_max_true": lambda: GfcTable(True, 0.5, -1.0),
    "GfcTable-b_-inf": lambda: GfcTable(3, 0.5, -INF),
    "GfcTable.log_row-u_2.5": lambda: GfcTable(3, 0.5, -1.0).log_row(2.5),
    "GfcTable.log_row-u_true": lambda: GfcTable(3, 0.5, -1.0).log_row(True),
    # the prior samplers take (alpha, theta) through PYParams
    "sample_prior_partition-n_2.5": lambda: sample_prior_partition(0.5, 1.0, 2.5, RNG),
    "sample_prior_partition-n_true": lambda: sample_prior_partition(0.5, 1.0, True, RNG),
    "sample_prior_partition-theta_nan": lambda: sample_prior_partition(0.5, NAN, 5, RNG),
    "sample_prior_partition-theta_inf": lambda: sample_prior_partition(0.5, INF, 5, RNG),
    "sample_prior_kstar-theta_nan": lambda: sample_prior_kstar(0.5, NAN, 5, RNG, 3),
    "sample_prior_kstar-theta_inf": lambda: sample_prior_kstar(0.5, INF, 5, RNG, 3),
    "sample_prior_kstar-alpha_nan": lambda: sample_prior_kstar(NAN, 1.0, 5, RNG, 3),
    "sample_prior_kstar-theta_0": lambda: sample_prior_kstar(0.5, 0.0, 5, RNG, 3),
    "sample_prior_kstar-m_0": lambda: sample_prior_kstar(0.5, 1.0, 0, RNG, 3),
    "sample_prior_partition-n_0": lambda: sample_prior_partition(0.5, 1.0, 0, RNG),
    "sample_prior_partition-alpha_-1": lambda: sample_prior_partition(-1.0, 1.0, 5, RNG),
    # the Mittag-Leffler law's q
    "sample_mittag_leffler-q_nan": lambda: sample_mittag_leffler(0.5, NAN, RNG, 3),
    "sample_mittag_leffler-q_inf": lambda: sample_mittag_leffler(0.5, INF, RNG, 3),
    "sample_mittag_leffler-q_0": lambda: sample_mittag_leffler(0.5, 0.0, RNG, 3),
    # synthetic datasets: counts, the Zipf shape and the Polya weights
    "DatasetSpec-n_2.5": lambda: generate(DatasetSpec("uniform", 5, n=2.5), RNG),
    "DatasetSpec-n_true": lambda: DatasetSpec("uniform", 5, n=True),
    "DatasetSpec-support_size_2.5": lambda: DatasetSpec("uniform", 2.5, n=5),
    "DatasetSpec-support_size_true": lambda: DatasetSpec("uniform", True, n=5),
    "DatasetSpec-n_-1": lambda: DatasetSpec("uniform", 5, n=-1),
    "DatasetSpec-support_size_0": lambda: DatasetSpec("uniform", 0, n=5),
    "DatasetSpec-shape_nan": lambda: generate(DatasetSpec("zipf", 5, 10, shape=NAN), RNG),
    "DatasetSpec-shape_inf": lambda: DatasetSpec("zipf", 5, 10, shape=INF),
    "DatasetSpec-shape_-inf": lambda: generate(DatasetSpec("zipf", 5, 10, shape=-INF), RNG),
    "DatasetSpec-weight_nan": lambda: generate(DatasetSpec("polya", 2, 10, weights=(1.0, NAN)),
                                               RNG),
    "DatasetSpec-weight_inf": lambda: generate(DatasetSpec("polya", 2, 10, weights=(1.0, INF)),
                                               RNG),
    "DatasetSpec-weight_0": lambda: DatasetSpec("polya", 2, 10, weights=(1.0, 0.0)),
}


@pytest.mark.parametrize("name", list(BAD_CALLS))
def test_bad_argument_is_a_domain_error(name):
    with pytest.raises(DomainError):
        BAD_CALLS[name]()


@pytest.mark.parametrize("value", [0, 7, 2**70, np.int64(7), np.uint8(7)])
def test_check_count_admits_integers(value):
    check_count(value)
    check_count(value, 0, "size")


@pytest.mark.parametrize("value,least", [
    (2.5, 0), (3.0, 0), (True, 0), (False, 0), (np.bool_(True), 0), ("3", 0), (None, 0),
    (-1, 0), (0, 1), (np.int64(-1), 0),
])
def test_check_count_rejects(value, least):
    with pytest.raises(DomainError, match=rf"^size must be an integer >= {least}, got "):
        check_count(value, least, "size")


@pytest.mark.parametrize("value", [1e-300, 0.5, 3, 1e308, np.float64(2.0)])
def test_check_positive_admits_finite_positive_numbers(value):
    check_positive(value, "q")


@pytest.mark.parametrize("value", [NAN, INF, -INF, 0.0, -0.0, -1.0, np.float64(NAN)])
def test_check_positive_rejects(value):
    with pytest.raises(DomainError, match="^q must be finite and positive, got "):
        check_positive(value, "q")
