"""Bayesian nonparametric estimation of the number of unseen species under
the Pitman-Yor prior: point estimates, exact Monte Carlo / Mittag-Leffler /
Gaussian credible intervals, empirical-Bayes parameter fitting, synthetic
data generation, and a benchmark harness."""

from .asymptotics import GaussianApprox, gaussian_approx, gaussian_interval
from .combinatorics import GfcTable
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
)
from .samplers import (
    RngStream,
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
    "NumericalIntegrityError", "ParseError", "Pmf", "PYParams", "RngStream",
    "SampleSummary", "SizeLimitError", "UnseenError", "coverage",
    "ep_log_likelihood", "exact_interval", "export_label_counts",
    "fit_empirical_bayes", "gaussian_approx", "gaussian_interval", "generate",
    "ingest", "ml_interval", "posterior_mean", "posterior_pmf_closed",
    "posterior_pmf_dp", "posterior_pmfs", "sample_from_pmf", "sample_k_future",
    "sample_mittag_leffler", "sample_ml_limit", "sample_prior_kstar",
    "sample_prior_partition",
]
