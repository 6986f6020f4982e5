"""Fitting (alpha, theta) from data by empirical Bayes.

Generates a synthetic partition from a known Pitman-Yor prior, fits the
parameters back by maximizing the Ewens-Pitman marginal likelihood, and
then does the same for an iid-uniform sample, which the fit correctly
pushes to the Dirichlet boundary alpha = 0.
"""

from unseen import (
    DatasetSpec,
    RngStream,
    ep_log_likelihood,
    fit_empirical_bayes,
    generate,
    sample_prior_partition,
)

truth = (0.6, 20.0)
sample = sample_prior_partition(*truth, n=50_000, rng=RngStream(11))
print(f"partition drawn from truth (alpha, theta) = {truth}: "
      f"n = {sample.n}, j = {sample.j}")
fit = fit_empirical_bayes(sample)
print(f"fit: alpha = {fit.alpha_hat:.3f}, theta = {fit.theta_hat:.2f}, "
      f"loglik = {fit.log_likelihood:.1f}, flags = {sorted(fit.boundary_flags) or 'none'}")

# the reported optimum beats nearby parameter values
for da, dt in ((0.02, 0.0), (-0.02, 0.0), (0.0, 5.0), (0.0, -5.0)):
    ll = ep_log_likelihood(fit.alpha_hat + da, fit.theta_hat + dt, sample)
    assert ll <= fit.log_likelihood + 1e-9
print("local optimality spot-check passed")

uniform = generate(DatasetSpec(kind="uniform", support_size=501, n=2000), RngStream(3))
fit_u = fit_empirical_bayes(uniform)
print(f"\niid-uniform sample (n = {uniform.n}, j = {uniform.j}) fits to "
      f"alpha = {fit_u.alpha_hat:.2f}, theta = {fit_u.theta_hat:.1f} "
      f"(flags: {sorted(fit_u.boundary_flags)})")
print("a finite-support uniform population has no power-law tail, so the "
      "Dirichlet boundary is the right answer")
