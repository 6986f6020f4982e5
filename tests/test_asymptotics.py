import math

import numpy as np
import pytest
from scipy.stats import norm

from unseen.asymptotics import (
    RegimeRatios,
    gaussian_approx,
    gaussian_interval,
    m_frak,
    mu_z,
    mu_z_prime,
    norm_quantile,
    s_frak_sq,
    script_M,
    script_S_sq,
    sigma_sq_z,
)
from unseen.errors import DomainError
from unseen.model import PYParams, SampleSummary, posterior_mean

IDENTITY_GRID = [
    (alpha, tau, nu, rho_frac * nu)
    for alpha in [0.0] + [round(0.1 * i, 1) for i in range(1, 10)]
    for tau in (0.1, 1.0, 10.0)
    for nu in (0.1, 1.0, 10.0)
    for rho_frac in (0.1, 0.5, 0.9)
]


class TestCltConstants:
    def test_m_frak_values(self):
        assert m_frak(0.0, 1.0) == pytest.approx(math.log(2.0), rel=1e-14)
        assert m_frak(0.5, 1.0) == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-14)

    def test_s_frak_values(self):
        assert s_frak_sq(0.0, 1.0) == pytest.approx(math.log(2.0) - 0.5, rel=1e-14)

    def test_script_values_at_alpha_zero(self):
        r = RegimeRatios(tau=1.0, nu=1.0, rho=0.5)
        assert script_M(0.0, r) == pytest.approx(math.log(1.5), rel=1e-14)
        assert script_S_sq(0.0, r) == pytest.approx(math.log(1.5) - 1.0 / 6.0, rel=1e-14)

    def test_positivity(self):
        for alpha in np.linspace(0.0, 0.99, 12):
            for lam in (0.01, 0.1, 1.0, 10.0, 100.0):
                assert m_frak(alpha, lam) > 0
                assert s_frak_sq(alpha, lam) > 0

    @pytest.mark.parametrize("alpha,tau,nu,rho", IDENTITY_GRID)
    def test_proposition_identities(self, alpha, tau, nu, rho):
        """mu(m_frak) = M and sigma^2(m_frak) + s^2 * mu'(m_frak)^2 = S^2."""
        r = RegimeRatios(tau=tau, nu=nu, rho=rho)
        lam = r.lam
        mf = m_frak(alpha, lam)
        big_m = script_M(alpha, r)
        assert mu_z(mf, alpha, r) == pytest.approx(big_m, rel=1e-12, abs=1e-12)
        lhs = sigma_sq_z(mf, alpha, r) + s_frak_sq(alpha, lam) * mu_z_prime(alpha, r) ** 2
        assert lhs == pytest.approx(script_S_sq(alpha, r), rel=1e-12, abs=1e-12)

    def test_continuity_at_alpha_zero(self):
        for tau in (0.1, 1.0, 10.0):
            for nu in (0.1, 1.0, 10.0):
                r = RegimeRatios(tau=tau, nu=nu, rho=0.5 * nu)
                lam = r.lam
                assert abs(m_frak(1e-8, lam) - m_frak(0.0, lam)) <= 1e-6
                assert abs(s_frak_sq(1e-8, lam) - s_frak_sq(0.0, lam)) <= 1e-6
                assert abs(script_M(1e-8, r) - script_M(0.0, r)) <= 1e-6
                assert abs(script_S_sq(1e-8, r) - script_S_sq(0.0, r)) <= 1e-6

    def test_mu_z_linear_at_origin(self):
        r = RegimeRatios(tau=1.0, nu=2.0, rho=0.3)
        assert mu_z(1e-12, 0.4, r) == pytest.approx(0.0, abs=1e-12)

    def test_sigma_sq_at_alpha_zero(self):
        r = RegimeRatios(tau=1.0, nu=2.0, rho=0.3)
        z = 0.7
        expect = z * 1.0 * 2.0 / 9.0
        assert sigma_sq_z(z, 0.0, r) == pytest.approx(expect, rel=1e-14)


class TestNormQuantile:
    def test_key_value(self):
        assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_against_scipy_sweep(self):
        ps = np.concatenate([
            np.array([1e-12, 1e-8, 0.02425, 0.5, 0.9, 0.999999]),
            np.linspace(0.001, 0.999, 101),
        ])
        for p in ps:
            assert norm_quantile(float(p)) == pytest.approx(
                float(norm.ppf(p)), rel=1e-9, abs=1e-9
            )

    def test_symmetry(self):
        assert norm_quantile(0.3) == pytest.approx(-norm_quantile(0.7), rel=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                norm_quantile(bad)


class TestGaussianInterval:
    def test_zipf_a_row(self):
        params, sample = PYParams(0.54, 26.67), SampleSummary(977, 300)
        ci = gaussian_interval(params, sample, 977, level=0.95)
        assert abs(round(ci.lo) - 129) <= 2
        assert abs(round(ci.hi) - 183) <= 2

    def test_tomato_row(self):
        params, sample = PYParams(0.612, 741.0), SampleSummary(2586, 1825)
        ci = gaussian_interval(params, sample, 2586, level=0.95)
        assert abs(round(ci.lo) - 1222) <= 2
        assert abs(round(ci.hi) - 1340) <= 2

    def test_width_shrinks_with_level(self):
        params, sample = PYParams(0.5, 10.0), SampleSummary(100, 40)
        w = [gaussian_interval(params, sample, 200, level).width
             for level in (0.999, 0.95, 0.5, 0.05, 1e-6)]
        assert all(b < a for a, b in zip(w, w[1:]))
        tiny = gaussian_interval(params, sample, 200, 1e-9)
        mid = gaussian_approx(params, sample, 200).mean
        assert tiny.midpoint == pytest.approx(mid, rel=1e-6)

    def test_refuses_nonpositive_theta(self):
        params = PYParams(0.5, 0.0)
        with pytest.raises(DomainError, match="exact"):
            gaussian_interval(params, SampleSummary(10, 3), 20)

    def test_m_zero_before_theta_check(self):
        ci = gaussian_interval(PYParams(0.5, 0.0), SampleSummary(10, 3), 0)
        assert (ci.lo, ci.hi, ci.method) == (0.0, 0.0, "gaussian")

    def test_clamped_to_support(self):
        params, sample = PYParams(0.0, 100.0, ), SampleSummary(2, 1)
        ci = gaussian_interval(params, sample, 3, level=0.999999)
        assert ci.lo >= 0.0 and ci.hi <= 3.0

    def test_centering_against_posterior_mean(self):
        """With the ratios (theta/m, n/m, j/m) held fixed, |mM - K_hat| stays
        O(1), so the deviation divided by sqrt(m) is non-increasing."""
        for alpha, tau, nu, rho in [(0.5, 0.5, 1.0, 0.3), (0.0, 0.2, 1.0, 0.4),
                                    (0.8, 0.05, 2.0, 0.6)]:
            devs = []
            for m in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                params = PYParams(alpha, tau * m)
                sample = SampleSummary(int(nu * m), int(rho * m))
                mm = gaussian_approx(params, sample, m).mean
                devs.append(abs(mm - posterior_mean(params, sample, m)) / math.sqrt(m))
            assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:])), (alpha, devs)

    def test_ratio_validation(self):
        with pytest.raises(DomainError):
            RegimeRatios(tau=1.0, nu=1.0, rho=1.5)
        with pytest.raises(DomainError):
            RegimeRatios(tau=0.0, nu=1.0, rho=0.5)
