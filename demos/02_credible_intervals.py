"""Three credible-interval families side by side.

For one dataset, builds the exact Monte Carlo interval (posterior chain),
the Mittag-Leffler interval (large-m limit law, alpha > 0 only) and the
fully analytic Gaussian interval, at several additional sample sizes, and
reports how much of the exact interval each approximation covers.
"""

from unseen import (
    PYParams,
    RngStream,
    SampleSummary,
    coverage,
    exact_interval,
    gaussian_interval,
    ml_interval,
    posterior_mean,
)

params = PYParams(alpha=0.612, theta=741.0)
sample = SampleSummary(n=2586, j=1825)
rng = RngStream(seed=7)

print(f"n = {sample.n}, j = {sample.j}, alpha = {params.alpha}, theta = {params.theta}")
print(f"{'m':>6} {'K_hat':>7}  {'exact 95%':>16} {'Mittag-Leffler':>16} {'Gaussian':>16} "
      f"{'ML cov':>7} {'G cov':>6}")
for i, mult in enumerate((1, 2, 5, 10)):
    m = mult * sample.n
    k_hat = posterior_mean(params, sample, m)
    ex = exact_interval(params, sample, m, level=0.95, samples=2000, rng=rng.split(2 * i))
    ml = ml_interval(params, sample, m, level=0.95, samples=2000, rng=rng.split(2 * i + 1))
    ga = gaussian_interval(params, sample, m, level=0.95)
    fmt = lambda ci: f"({ci.lo:7.0f},{ci.hi:7.0f})"
    print(f"{m:>6} {k_hat:7.0f}  {fmt(ex)} {fmt(ml)} {fmt(ga)} "
          f"{coverage(ml, ex):6.1f}% {coverage(ga, ex):5.1f}%")

print("\nThe Gaussian interval needs no Monte Carlo at all, and at alpha = 0")
print("(the Dirichlet prior) it is the only available asymptotic method:")
dir_params = PYParams(alpha=0.0, theta=178.48)
dir_sample = SampleSummary(n=2000, j=447)
ci = gaussian_interval(dir_params, dir_sample, 2000, level=0.95)
print(f"  alpha=0 dataset, m=n: K_hat = {posterior_mean(dir_params, dir_sample, 2000):.0f}, "
      f"Gaussian 95% C.I. = ({ci.lo:.0f}, {ci.hi:.0f})")
