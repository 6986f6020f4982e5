"""How many new species would another survey find?

Walks through the core posterior quantities for a sample with n = 977
observations spread over j = 300 species, under a Pitman-Yor prior with
(alpha, theta) = (0.54, 26.67): the predictive new-species probability,
the posterior mean of the unseen-species count, and the full posterior
pmf computed by two independent methods.
"""

import numpy as np

from unseen import (
    PYParams,
    SampleSummary,
    posterior_mean,
    posterior_pmf_closed,
    posterior_pmf_dp,
    predictive_new_prob,
)

params = PYParams(alpha=0.54, theta=26.67)
sample = SampleSummary(n=977, j=300)

# The chance that observation n+1 founds a brand-new species.
p_new = predictive_new_prob(params, sample.n, sample.j)
print(f"P(next draw is a new species) = {p_new:.4f}")

# Posterior expectation of the number of new species in m more draws.
print("\nexpected new species:")
for mult in (1, 2, 5, 10, 100):
    m = mult * sample.n
    print(f"  m = {mult:>3}n: K_hat = {posterior_mean(params, sample, m):6.1f}")

# The full posterior law for a small additional sample, evaluated both by
# the exact forward recursion and by the closed combinatorial form; the
# two must agree to high accuracy.
small = PYParams(alpha=0.5, theta=0.5)
tiny = SampleSummary(n=2, j=1)
dp = posterior_pmf_dp(small, tiny, 6)
cl = posterior_pmf_closed(small, tiny, 6)
print("\nposterior pmf of the new-species count (n=2, j=1, m=6):")
print("   k   recursion   closed form")
for k in range(7):
    print(f"   {k}   {dp.probs[k]:.6f}    {cl.probs[k]:.6f}")
print(f"max |difference| = {np.max(np.abs(dp.probs - cl.probs)):.2e}")
print(f"pmf mean = {dp.mean():.6f}, matching posterior_mean = "
      f"{posterior_mean(small, tiny, 6):.6f}")
