import unseen

PUBLIC = [
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

# Names that are internal to their module or that no caller needs.
NOT_EXPORTED = [
    "MLLimitParams", "RegimeRatios", "log_rising_factorial", "m_frak",
    "norm_quantile", "predictive_new_prob", "s_frak_sq", "sample_beta",
    "script_M", "script_S_sq", "standin_freqs",
]


def test_public_names():
    assert unseen.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(unseen, name).__name__ == name
    for name in NOT_EXPORTED:
        assert not hasattr(unseen, name), name
