import hashlib
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from unseen.combinatorics import GfcTable, log_rising_factorial
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


def gfc_noncentral_sum(u: int, v: int, a: float, b: float):
    """C(u, v; a, b) by the explicit alternating binomial sum, in extended
    precision, as an mpmath number.

    The sum cancels by a factor bounded by its largest term, so the working
    precision adapts to the term magnitudes (never below 200 bits).
    """
    if v > u:
        return mpmath.mpf(0)
    log2_term = 0.0
    for i in range(v + 1):
        base = -i * a - b
        mags = np.abs(base + np.arange(u, dtype=float))
        if np.all(mags > 0):
            log2_term = max(log2_term, float(np.log2(mags).sum()) + v)
    with mpmath.workprec(max(200, int(log2_term) + 160)):
        a_mp, b_mp = mpmath.mpf(a), mpmath.mpf(b)
        total = mpmath.mpf(0)
        for i in range(v + 1):
            # the base must be formed in working precision: a double-rounded
            # -i*a - b perturbs the huge terms above the cancellation floor
            term = mpmath.binomial(v, i) * mpmath.rf(-i * a_mp - b_mp, u)
            total += term if i % 2 == 0 else -term
        return total / mpmath.factorial(v)


def log_d_sum(u: int, v: int, a: float, b: float) -> float:
    """log D(u, v) = log C(u, v; a, b) - v log a from the alternating sum."""
    return float(mpmath.log(gfc_noncentral_sum(u, v, a, b))) - v * math.log(a)


@lru_cache(maxsize=8)
def stirling_central_exact(u_max: int):
    """Exact integer triangle of central signless Stirling numbers |s(u, v)|."""
    rows = [[1]]
    for u in range(u_max):
        prev = rows[-1]
        row = [0] * (u + 2)
        for v in range(u + 2):
            left = prev[v - 1] if 1 <= v <= u + 1 else 0
            up = prev[v] if v <= u else 0
            row[v] = left + u * up
        rows.append(row)
    return rows


def stirling_noncentral_exact(u: int, n: int) -> list[int]:
    """Exact |s(u, v; n)|, v = 0..u, for integer n >= 0, via
    |s(u, v; n)| = sum_i C(u, i) (n)_(u-i) |s(i, v)|."""
    central = stirling_central_exact(u)
    return [
        sum(math.comb(u, i) * math.prod(range(n, n + u - i)) * central[i][v]
            for i in range(v, u + 1))
        for v in range(u + 1)
    ]


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


class TestGfc:
    """The triangle D(u, v) = C(u, v; a, b) / a^v on 0 <= a < 1, b < 0."""

    def test_boundary_conditions(self):
        assert GfcTable(0, 0.7, -1.3).log_row(0).tolist() == [0.0]
        assert GfcTable(3, 0.7, -1.3).log_row(2).size == 3
        # D(u, 0) = (-b)_(u), D(u, u) = 1
        row = GfcTable(4, 0.3, -2.0).log_row(4)
        assert math.exp(row[0]) == pytest.approx(2.0 * 3.0 * 4.0 * 5.0, rel=1e-12)
        assert row[4] == 0.0

    def test_against_exact_rational(self):
        for (u, v, a, b) in [
            (3, 2, Fraction(1, 2), Fraction(-1, 4)),
            (5, 3, Fraction(3, 10), Fraction(-7, 5)),
            (6, 1, Fraction(9, 10), Fraction(-2)),
            (7, 7, Fraction(1, 3), Fraction(-5, 2)),
            (12, 5, Fraction(1, 1000), Fraction(-30)),
        ]:
            expect = gfc_fraction(u, v, a, b)
            log_d = GfcTable(u, float(a), float(b)).log_row(u)[v]
            got = math.exp(log_d) * float(a) ** v
            assert got == pytest.approx(float(expect), rel=1e-12), (u, v, a, b)

    def test_cross_check_path_agrees(self):
        got = GfcTable(12, 0.45, -3.2).log_row(12)[5]
        assert got == pytest.approx(log_d_sum(12, 5, 0.45, -3.2), abs=1e-12)

    def test_size_cap(self):
        table = GfcTable(61, 0.5, -1.0)  # the table itself is uncapped
        assert table.log_row(61).size == 62
        with pytest.raises(SizeLimitError):
            table.log_row(62)
        with pytest.raises(SizeLimitError):
            table.log_row(-1)

    @pytest.mark.parametrize("a,b", [
        (-0.1, -1.0), (1.0, -1.0), (1.5, -1.0), (math.nan, -1.0),
        (0.5, 0.0), (0.5, 2.7), (0.0, 0.0), (0.5, math.nan),
    ])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            GfcTable(5, a, b)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            GfcTable(-1, 0.5, -1.0)

    @pytest.mark.parametrize("u_max,a,b,sha", [
        (60, 0.54, -977 + 0.54 * 300,
         "b082e9f9247bf4f62d126e3c5944411c82e6d1af56ec945b0d1f9659af040796"),
    ])
    def test_table_pinned(self, u_max, a, b, sha):
        """The positive triangle, bitwise."""
        table = GfcTable(u_max, a, b)
        got = hashlib.sha256(table._logs.tobytes()).hexdigest()
        assert got == sha

    def test_path_agreement_sweep(self):
        """Recurrence vs extended-precision sum over the model's domain,
        a in (0, 1) and b < 0, for u <= 40."""
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = int(rng.integers(1, 41))
            v = int(rng.integers(0, u + 1))
            a = float(rng.uniform(0.01, 1.0))
            b = float(rng.uniform(-200.0, -0.01))
            got = GfcTable(u, a, b).log_row(u)[v]
            assert got == pytest.approx(log_d_sum(u, v, a, b), abs=1e-11), (u, v, a, b)

    def test_expansion_identity(self):
        """sum_v D(u, v) prod_{i<v} (theta + alpha (j + i)) = (theta + n)_(u)
        at b = -n + j alpha, every alpha in [0, 1) and theta > -alpha."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = int(rng.integers(1, 61))
            n = int(rng.integers(1, 3000))
            j = int(rng.integers(1, n + 1))
            alpha = float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))
            theta = -alpha + float(10.0 ** rng.uniform(-3.0, 6.0))
            log_d = GfcTable(u, alpha, -n + j * alpha).log_row(u)
            log_prefix = np.concatenate(
                [[0.0], np.cumsum(np.log(theta + alpha * (j + np.arange(u))))]
            )
            got = float(np.logaddexp.reduce(log_d + log_prefix))
            expect = float(np.log(theta + n + np.arange(u)).sum())
            assert got == pytest.approx(expect, abs=1e-10), (u, n, j, alpha, theta)

    def test_limit_relation_to_stirling(self):
        """D(u, v; a, b) -> |s(u, v; -b)| as a -> 0, linearly in a, and
        equals it at a = 0."""
        u, b = 30, -7.0
        exact = np.log([float(x) for x in stirling_noncentral_exact(u, 7)])
        at_zero = GfcTable(u, 0.0, b).log_row(u)
        assert np.max(np.abs(at_zero - exact)) <= 1e-12
        errs = [np.max(np.abs(GfcTable(u, a, b).log_row(u) - at_zero))
                for a in (1e-3, 1e-5, 1e-7, 1e-9)]
        assert errs[0] < 1.0
        for coarse, fine in zip(errs, errs[1:]):
            assert fine < coarse / 50


class TestStirling:
    """The triangle at a = 0: non-central Stirling numbers |s(u, v; -b)|."""

    def test_central_exact_values(self):
        rows = stirling_central_exact(5)
        # |s(3, .)| = (1, 2, 3, 1) from (t)_(3) = t^3 + 3t^2 + 2t
        assert rows[3] == [0, 2, 3, 1]
        assert rows[5] == [0, 24, 50, 35, 10, 1]

    def test_boundaries(self):
        assert GfcTable(0, 0.0, -1.7).log_row(0).tolist() == [0.0]
        row = GfcTable(4, 0.0, -1.5).log_row(4)
        assert math.exp(row[0]) == pytest.approx(1.5 * 2.5 * 3.5 * 4.5, rel=1e-12)
        assert GfcTable(3, 0.0, -1.0).log_row(2).size == 3

    def test_central_special_case(self):
        # |s(u, v; 1)| = |s(u + 1, v + 1)|, since t (t + 1)_(u) = (t)_(u+1)
        assert math.exp(GfcTable(2, 0.0, -1.0).log_row(2)[1]) == pytest.approx(3.0, rel=1e-14)

    def test_expansion_identity(self):
        """sum_v |s(u, v; b)| t^v = (t + b)_(u)."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = int(rng.integers(1, 21))
            t = float(rng.uniform(0.05, 5.0))
            b = float(rng.uniform(0.01, 3.0))
            row = GfcTable(u, 0.0, -b).log_row(u)
            total = math.fsum(math.exp(row[v]) * t ** v for v in range(u + 1))
            expect = math.prod(t + b + i for i in range(u))
            assert total == pytest.approx(expect, rel=1e-12)

    def test_against_exact_integers(self):
        for u, n in [(20, 1), (40, 13), (60, 2000)]:
            exact = stirling_noncentral_exact(u, n)
            got = GfcTable(u, 0.0, -float(n)).log_row(u)
            for v in range(u + 1):
                assert got[v] == pytest.approx(math.log(exact[v]), abs=1e-12), (u, n, v)

    def test_size_cap(self):
        from unseen.model import PYParams, SampleSummary, posterior_pmf_closed

        with pytest.raises(SizeLimitError, match="u_max=60"):
            posterior_pmf_closed(PYParams(0.0, 1.0), SampleSummary(3, 2), 61)

    def test_negative_b_rejected(self):
        # a negative shift -b of the Stirling numbers lies outside the triangle
        with pytest.raises(DomainError):
            GfcTable(3, 0.0, 1.0)

    def test_log_space_extension_consistent(self):
        # |s(u, v; 1)| = |s(u + 1, v + 1)|: exact integers far past float range
        exact = stirling_central_exact(61)
        logs = GfcTable(60, 0.0, -1.0).log_row(60)
        for v in (0, 1, 10, 30, 60):
            assert logs[v] == pytest.approx(math.log(exact[61][v + 1]), rel=1e-13)
