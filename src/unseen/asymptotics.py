"""Large-m central limit constants and the analytic Gaussian credible
interval for the unseen-species posterior.

In the regime theta = tau*m, n = nu*m, j = rho*m (lambda = tau + nu), the
posterior of the new-species count is asymptotically Gaussian with mean
m*M and variance m*S^2 for explicit constants M, S^2; the prior-chain
species count has analogous constants m_frak, s_frak^2.  All four are
continuous at alpha = 0, where they reduce to the Dirichlet forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .intervals import CredibleInterval
from .model import PYParams, SampleSummary


@dataclass(frozen=True)
class RegimeRatios:
    """Scaling ratios (tau, nu, rho) = (theta, n, j) / m, lam = tau + nu."""

    tau: float
    nu: float
    rho: float

    def __post_init__(self):
        if self.tau <= 0 or self.nu <= 0 or self.rho <= 0:
            raise DomainError("tau, nu, rho must all be positive")
        if self.rho > self.nu:
            raise DomainError(f"rho={self.rho} cannot exceed nu={self.nu}")

    @property
    def lam(self) -> float:
        return self.tau + self.nu

    @classmethod
    def from_sample(cls, params: PYParams, sample: SampleSummary, m: int) -> "RegimeRatios":
        if m < 1:
            raise DomainError("m must be >= 1 to form scaling ratios")
        return cls(tau=params.theta / m, nu=sample.n / m, rho=sample.j / m)


@dataclass(frozen=True)
class GaussianApprox:
    """Gaussian approximation N(mean, variance) of the posterior count."""

    mean: float
    variance: float


def m_frak(alpha: float, lam: float) -> float:
    """Leading-order mean constant of the prior-chain species count."""
    if lam <= 0:
        raise DomainError("lam must be positive")
    c = math.log1p(1.0 / lam)
    if alpha == 0.0:
        return lam * c
    return (lam / alpha) * math.expm1(alpha * c)


def s_frak_sq(alpha: float, lam: float) -> float:
    """Leading-order variance constant of the prior-chain species count."""
    if lam <= 0:
        raise DomainError("lam must be positive")
    c = math.log1p(1.0 / lam)
    if alpha == 0.0:
        return lam * c - lam / (lam + 1.0)
    big_a = math.exp(alpha * c)
    return (lam / alpha) * big_a * math.expm1(alpha * c) - lam * big_a * big_a / (lam + 1.0)


def script_M(alpha: float, ratios: RegimeRatios) -> float:
    """Leading-order posterior mean constant."""
    lam = ratios.lam
    c = math.log1p(1.0 / lam)
    if alpha == 0.0:
        return ratios.tau * c
    return (ratios.tau + ratios.rho * alpha) / alpha * math.expm1(alpha * c)


def script_S_sq(alpha: float, ratios: RegimeRatios) -> float:
    """Leading-order posterior variance constant."""
    tau, nu, lam = ratios.tau, ratios.nu, ratios.lam
    c = math.log1p(1.0 / lam)
    if alpha == 0.0:
        return tau * c - tau * tau / (lam * (lam + 1.0))
    g = tau + ratios.rho * alpha
    if g <= 0:
        raise DomainError("tau + rho*alpha must be positive")
    if nu - ratios.rho * alpha <= 0:
        raise DomainError("nu - rho*alpha must be positive")
    big_a = math.exp(alpha * c)
    return (g / lam) * big_a * ((lam / alpha) * math.expm1(alpha * c) - g * big_a / (lam + 1.0))


def mu_z(z: float, alpha: float, ratios: RegimeRatios) -> float:
    """Mean function of the binomial-mixing stage (test support)."""
    if z <= 0:
        raise DomainError("z must be positive")
    return z * (ratios.tau + ratios.rho * alpha) / ratios.lam


def mu_z_prime(alpha: float, ratios: RegimeRatios) -> float:
    """d/dz of mu_z (constant in z)."""
    return (ratios.tau + ratios.rho * alpha) / ratios.lam


def sigma_sq_z(z: float, alpha: float, ratios: RegimeRatios) -> float:
    """Variance function of the binomial-mixing stage (test support)."""
    if z <= 0:
        raise DomainError("z must be positive")
    g = ratios.tau + ratios.rho * alpha
    h = ratios.nu - ratios.rho * alpha
    lam = ratios.lam
    return z * g * h / (lam * lam) * (1.0 + alpha * z / lam)


# Acklam's rational approximation to the standard normal quantile,
# polished by one Halley step through math.erfc (stdlib only).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_SQRT2PI = math.sqrt(2.0 * math.pi)


def norm_quantile(p: float) -> float:
    """Inverse standard normal cdf, accurate to ~1e-15."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile level must lie strictly inside (0, 1)")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    # one Halley refinement: e = Phi(x) - p
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * _SQRT2PI * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def gaussian_approx(params: PYParams, sample: SampleSummary, m: int) -> GaussianApprox:
    """Gaussian approximation of the posterior count at additional sample m."""
    if m < 1:
        raise DomainError("m must be >= 1")
    if params.theta <= 0:
        raise DomainError(
            "the Gaussian approximation requires theta > 0; "
            "use the exact Monte Carlo method for theta <= 0"
        )
    ratios = RegimeRatios.from_sample(params, sample, m)
    return GaussianApprox(
        mean=m * script_M(params.alpha, ratios),
        variance=m * script_S_sq(params.alpha, ratios),
    )


def gaussian_interval(
    params: PYParams, sample: SampleSummary, m: int, level: float = 0.95
) -> CredibleInterval:
    """Fully analytic equal-tailed credible interval [mM - z*sqrt(mS^2),
    mM + z*sqrt(mS^2)], clamped to the support [0, m]; (0, 0) at m = 0."""
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie in (0, 1)")
    if m == 0:
        return CredibleInterval(0.0, 0.0, level, "gaussian")
    approx = gaussian_approx(params, sample, m)
    z = norm_quantile(0.5 + level / 2.0)
    half = z * math.sqrt(approx.variance)
    return CredibleInterval(
        lo=max(0.0, approx.mean - half),
        hi=min(float(m), approx.mean + half),
        level=level,
        method="gaussian",
    )
