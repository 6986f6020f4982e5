import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from unseen.combinatorics import (
    GfcTable,
    SignedLog,
    gfc_noncentral,
    gfc_noncentral_sum,
    log_rising_factorial,
    signed_log_rising,
    stirling_central_exact,
    stirling_noncentral,
)
from unseen.errors import DomainError, SizeLimitError


def rising_fraction(x: Fraction, u: int) -> Fraction:
    out = Fraction(1)
    for i in range(u):
        out *= x + i
    return out


def gfc_fraction(u: int, v: int, a: Fraction, b: Fraction) -> Fraction:
    """Exact rational evaluation of the explicit alternating sum."""
    total = Fraction(0)
    for i in range(v + 1):
        total += (-1) ** i * math.comb(v, i) * rising_fraction(-i * a - b, u)
    return total / math.factorial(v)


class TestSignedLog:
    def test_zero_and_sign_rules(self):
        z = SignedLog.ZERO
        x = SignedLog.from_value(2.5)
        assert (z * x).sign == 0
        assert (z + x).value() == pytest.approx(2.5)
        assert (x + (-x)).sign == 0

    def test_add_opposite_signs(self):
        x = SignedLog.from_value(5.0)
        y = SignedLog.from_value(-3.0)
        assert (x + y).value() == pytest.approx(2.0)
        assert (y + x).value() == pytest.approx(2.0)
        assert ((-x) + y).value() == pytest.approx(-8.0)

    def test_mul(self):
        x = SignedLog.from_value(-4.0) * SignedLog.from_value(0.5)
        assert x.value() == pytest.approx(-2.0)

    def test_big_int_roundtrip(self):
        n = 10 ** 400
        s = SignedLog.from_value(n)
        assert s.log_abs == pytest.approx(400 * math.log(10), rel=1e-14)

    def test_add_cancels_below_rounding(self):
        # exp(-1e-17) rounds to 1, so the difference is an exact zero
        assert SignedLog(1, 0.0) + SignedLog(-1, -1e-17) == SignedLog.ZERO


class TestLogRisingFactorial:
    def test_small_exact(self):
        assert log_rising_factorial(3.0, 2) == pytest.approx(math.log(12.0), rel=1e-14)

    def test_empty_product(self):
        assert log_rising_factorial(1234.5, 0) == 0.0

    def test_against_direct_summation(self):
        a, u = 1003.67, 977
        direct = np.log(a + np.arange(u)).sum()
        assert log_rising_factorial(a, u) == pytest.approx(direct, rel=1e-10)

    def test_large_order(self):
        a, u = 27.67, 10 ** 6
        direct = np.log(a + np.arange(u, dtype=float)).sum()
        assert log_rising_factorial(a, u) == pytest.approx(direct, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_rising_factorial(0.0, 3)
        with pytest.raises(DomainError):
            log_rising_factorial(-1.0, 3)
        with pytest.raises(DomainError):
            log_rising_factorial(2.0, -1)

    def test_signed_log_rising_handles_negatives(self):
        # (-1.5)_(3) = (-1.5)(-0.5)(0.5) = 0.375
        assert signed_log_rising(-1.5, 3).value() == pytest.approx(0.375)
        # zero factor
        assert signed_log_rising(-2.0, 3).sign == 0


class TestGfc:
    def test_boundary_conditions(self):
        assert gfc_noncentral(0, 0, 0.7, 1.3).value() == pytest.approx(1.0)
        assert gfc_noncentral(2, 3, 0.7, 1.3).sign == 0
        # C(u, 0) = (-b)_(u)
        got = gfc_noncentral(4, 0, 0.3, -2.0)
        assert got.value() == pytest.approx(2.0 * 3.0 * 4.0 * 5.0, rel=1e-12)

    def test_against_exact_rational(self):
        for (u, v, a, b) in [
            (3, 2, Fraction(1, 2), Fraction(1, 4)),
            (5, 3, Fraction(3, 10), Fraction(-7, 5)),
            (6, 1, Fraction(9, 10), Fraction(2)),
            (7, 7, Fraction(1, 3), Fraction(5, 2)),
        ]:
            expect = gfc_fraction(u, v, a, b)
            got = gfc_noncentral(u, v, float(a), float(b))
            assert got.value() == pytest.approx(float(expect), rel=1e-10), (u, v, a, b)

    def test_cross_check_path_agrees(self):
        val = gfc_noncentral(12, 5, 0.45, -3.2)
        ref = gfc_noncentral_sum(12, 5, 0.45, -3.2)
        assert val.sign == ref.sign
        assert val.log_abs == pytest.approx(ref.log_abs, abs=1e-8)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            gfc_noncentral(61, 2, 0.5, 0.0)
        GfcTable(61, 0.5, 0.0)  # the table itself is uncapped

    @pytest.mark.parametrize("u_max,a,b,sha", [
        (60, 0.54, -977 + 0.54 * 300,
         "40a9d732c30f8f86a97630172d6c0a8d7889742bd5722495cd51794a2b1f2af9"),
        # column 0, (-2.7)_(u), changes sign at u = 1, 2, 3
        (60, 0.3, 2.7, "e0a326c725fce4f3a8b88baf450cc3b3f6d7c22cb7ef0323bf3c0d105fadacf5"),
        # column 0, (-3)_(u), is an exact zero from u = 4 on
        (20, 0.01, 3.0, "f646931092fa887fcb058b25a7a30c480c9b7ea2195a2b84e74ce7a92e32dc88"),
    ])
    def test_table_pinned(self, u_max, a, b, sha):
        """Signs and logs are bitwise those of the per-entry SignedLog
        products that built column 0 before the prefix helper."""
        table = GfcTable(u_max, a, b)
        got = hashlib.sha256(table._signs.tobytes() + table._logs.tobytes()).hexdigest()
        assert got == sha

    def test_against_exact_rational_negative_a(self):
        # negative a flips signs through the recurrence; keep u small since
        # the regime is outside the cancellation-free domain
        for (u, v, a, b) in [(4, 2, Fraction(-1, 2), Fraction(1, 3)),
                             (5, 4, Fraction(-3, 4), Fraction(-2))]:
            expect = gfc_fraction(u, v, a, b)
            got = gfc_noncentral(u, v, float(a), float(b))
            assert got.value() == pytest.approx(float(expect), rel=1e-9), (u, v, a, b)

    def test_path_agreement_sweep(self):
        """Recurrence vs extended-precision sum over the model's domain:
        a in (0, 1), b <= 2n below and slightly above zero.  (For a < 0 with
        large |b| both fixed-precision paths cancel catastrophically; that
        corner is outside every posterior-model use.)"""
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = int(rng.integers(1, 41))
            v = int(rng.integers(0, u + 1))
            a = float(rng.uniform(0.01, 1.0))
            b = float(rng.uniform(-200.0, 3.0))
            got = gfc_noncentral(u, v, a, b)
            ref = gfc_noncentral_sum(u, v, a, b)
            if ref.sign == 0:
                # recurrence may carry a rounding-level residue
                assert got.sign == 0 or got.log_abs < -30
            else:
                assert got.sign == ref.sign, (u, v, a, b)
                assert got.log_abs == pytest.approx(ref.log_abs, abs=1e-8), (u, v, a, b)

    def test_expansion_identity(self):
        """sum_v C(u, v; a, b) (t)_(v) = (a t - b)_(u)."""
        rng = np.random.default_rng(5)
        for _ in range(12):
            u = int(rng.integers(1, 21))
            t = float(rng.uniform(0.05, 5.0))
            a = float(rng.uniform(0.01, 1.0))
            b = float(rng.uniform(0.0, 3.0))
            table = GfcTable(u, a, b)
            acc = SignedLog.ZERO
            for v in range(u + 1):
                acc = acc + table.entry(u, v) * signed_log_rising(t, v)
            expect = signed_log_rising(a * t - b, u)
            assert acc.sign == expect.sign
            assert acc.log_abs == pytest.approx(expect.log_abs, abs=1e-9)

    def test_limit_relation_to_stirling(self):
        """C(u, v; a, b)/a^v -> |s(u, v; -b)| as a -> 0 (b < 0 here)."""
        u, v, b = 9, 4, -2.5
        target = stirling_noncentral(u, v, -b).value()
        errs = []
        for a in (1e-4, 1e-5, 1e-6):
            val = gfc_noncentral(u, v, a, b).value() / a ** v
            errs.append(abs(val / target - 1.0))
        assert errs[0] < 1e-2
        assert errs[0] > errs[1] > errs[2]


class TestStirling:
    def test_central_exact_values(self):
        rows = stirling_central_exact(5)
        # |s(3, .)| = (1, 2, 3, 1) from (t)_(3) = t^3 + 3t^2 + 2t
        assert rows[3] == [0, 2, 3, 1]
        assert rows[5] == [0, 24, 50, 35, 10, 1]

    def test_boundaries(self):
        assert stirling_noncentral(0, 0, 1.7).value() == pytest.approx(1.0)
        assert stirling_noncentral(4, 0, 1.5).value() == pytest.approx(
            1.5 * 2.5 * 3.5 * 4.5, rel=1e-12
        )
        assert stirling_noncentral(2, 3, 1.0).sign == 0

    def test_central_special_case(self):
        assert stirling_noncentral(3, 2, 0.0).value() == pytest.approx(3.0, rel=1e-12)

    def test_expansion_identity(self):
        """sum_v |s(u, v; b)| t^v = (t + b)_(u)."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = int(rng.integers(1, 21))
            t = float(rng.uniform(0.05, 5.0))
            b = float(rng.uniform(0.0, 3.0))
            total = math.fsum(
                stirling_noncentral(u, v, b).value() * t ** v for v in range(u + 1)
            )
            expect = signed_log_rising(t + b, u).value()
            assert total == pytest.approx(expect, rel=1e-9)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            stirling_noncentral(61, 2, 1.0)

    def test_negative_b_rejected(self):
        with pytest.raises(DomainError):
            stirling_noncentral(3, 2, -1.0)

    def test_log_space_extension_consistent(self):
        # u = 25 exercises the beyond-exact-table recurrence
        from unseen.combinatorics import _stirling_central_log

        logs = _stirling_central_log(25)
        exact = stirling_central_exact(25)
        for v in (1, 10, 25):
            assert logs[25, v] == pytest.approx(
                math.log(exact[25][v]), rel=1e-12
            )
