"""Large-m central limit constants and the analytic Gaussian credible
interval for the unseen-species posterior.

In the regime theta = tau*m, n = nu*m, j = rho*m (lambda = tau + nu), the
posterior of the new-species count is asymptotically Gaussian with mean
m*M and variance m*S^2 for explicit constants M, S^2.  One formula for
each serves every alpha, the Dirichlet prior alpha = 0 included: both are
written with exprel(x) = expm1(x) / x, which is 1 at x = 0.  The scalar
exprel of `scipy.special.cython_special` returns a Python float as fast as
a `math` call; the ufunc's numpy scalar would slow the rest of the
interval.  `script_M` and `script_S_sq` are plain functions of (alpha,
tau, nu, rho); they need tau > 0, 0 < rho <= nu and alpha in [0, 1), which
`gaussian_approx` has from theta > 0, m >= 1 and 1 <= j <= n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtri
from scipy.special.cython_special import exprel

from .errors import DomainError, check_count
from .intervals import CredibleInterval
from .model import PYParams, SampleSummary


@dataclass(frozen=True)
class GaussianApprox:
    """Gaussian approximation N(mean, variance) of the posterior count."""

    mean: float
    variance: float


def script_M(alpha: float, tau: float, nu: float, rho: float) -> float:
    """Leading-order posterior mean constant at the ratios (tau, nu, rho),
    (tau + rho alpha) expm1(alpha c) / alpha with c = log(1 + 1/lambda),
    written with exprel(x) = expm1(x) / x, which is 1 at alpha = 0."""
    c = math.log1p(1.0 / (tau + nu))
    return (tau + rho * alpha) * c * exprel(alpha * c)


def script_S_sq(alpha: float, tau: float, nu: float, rho: float) -> float:
    """Leading-order posterior variance constant at the ratios (tau, nu, rho)."""
    lam = tau + nu
    c = math.log1p(1.0 / lam)
    g = tau + rho * alpha
    big_a = math.exp(alpha * c)
    # as two ratios: lam * (lam + 1) overflows at large theta
    return (g / lam) * big_a * (lam * c * exprel(alpha * c) - g * big_a / (lam + 1.0))


def gaussian_approx(params: PYParams, sample: SampleSummary, m: int) -> GaussianApprox:
    """Gaussian approximation of the posterior count at additional sample
    m; the variance is clamped at 0."""
    check_count(m, 1)
    if params.theta <= 0:
        raise DomainError(
            "the Gaussian approximation requires theta > 0; "
            "use the exact Monte Carlo method for theta <= 0"
        )
    ratios = (params.theta / m, sample.n / m, sample.j / m)
    # S^2 is a difference that cancels at large theta: rounding can leave it
    # a few ulps below 0
    return GaussianApprox(
        mean=m * script_M(params.alpha, *ratios),
        variance=max(m * script_S_sq(params.alpha, *ratios), 0.0),
    )


def gaussian_interval(
    params: PYParams, sample: SampleSummary, m: int, level: float = 0.95
) -> CredibleInterval:
    """Fully analytic equal-tailed credible interval [mM - z*sqrt(mS^2),
    mM + z*sqrt(mS^2)], clamped to the support [0, m]; (0, 0) at m = 0."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    check_count(m)
    if m == 0:
        return CredibleInterval(0.0, 0.0, level, "gaussian")
    approx = gaussian_approx(params, sample, m)
    z = float(ndtri(0.5 + level / 2.0))
    half = z * math.sqrt(approx.variance)
    return CredibleInterval(
        lo=max(0.0, approx.mean - half),
        hi=min(float(m), approx.mean + half),
        level=level,
        method="gaussian",
    )
