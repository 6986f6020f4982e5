"""Bayesian nonparametric estimation of the number of unseen species under
the Pitman-Yor prior: point estimates, exact Monte Carlo / Mittag-Leffler /
Gaussian credible intervals, empirical-Bayes parameter fitting, synthetic
data generation, and a benchmark harness."""

from .asymptotics import (
    GaussianApprox,
    RegimeRatios,
    gaussian_approx,
    gaussian_interval,
    m_frak,
    norm_quantile,
    s_frak_sq,
    script_M,
    script_S_sq,
)
from .combinatorics import GfcTable, log_rising_factorial
from .datasets import DatasetSpec, export_label_counts, generate, ingest
from .empirical_bayes import FitResult, ep_log_likelihood, fit_empirical_bayes
from .errors import (
    DegenerateSampleError,
    DomainError,
    MethodUnavailableError,
    NumericalIntegrityError,
    ParseError,
    SizeLimitError,
    UnseenError,
)
from .intervals import CredibleInterval, coverage, exact_interval, ml_interval
from .model import (
    Pmf,
    PYParams,
    SampleSummary,
    posterior_mean,
    posterior_pmf_closed,
    posterior_pmf_dp,
    posterior_pmfs,
    predictive_new_prob,
)
from .samplers import (
    MLLimitParams,
    RngStream,
    sample_beta,
    sample_from_pmf,
    sample_k_future,
    sample_mittag_leffler,
    sample_ml_limit,
    sample_prior_kstar,
    sample_prior_partition,
)

__version__ = "0.1.0"

__all__ = [
    "CredibleInterval", "DatasetSpec", "DegenerateSampleError", "DomainError",
    "FitResult", "GaussianApprox", "GfcTable", "MethodUnavailableError",
    "MLLimitParams", "NumericalIntegrityError", "ParseError", "Pmf",
    "PYParams", "RegimeRatios", "RngStream", "SampleSummary", "SizeLimitError",
    "UnseenError", "coverage", "ep_log_likelihood", "exact_interval",
    "export_label_counts", "fit_empirical_bayes", "gaussian_approx",
    "gaussian_interval", "generate", "ingest", "log_rising_factorial",
    "m_frak", "ml_interval", "norm_quantile", "posterior_mean",
    "posterior_pmf_closed", "posterior_pmf_dp", "posterior_pmfs",
    "predictive_new_prob", "s_frak_sq", "sample_beta", "sample_from_pmf",
    "sample_k_future", "sample_mittag_leffler", "sample_ml_limit",
    "sample_prior_kstar", "sample_prior_partition", "script_M", "script_S_sq",
]
