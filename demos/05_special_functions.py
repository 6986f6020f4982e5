"""The combinatorial machinery under the hood.

The closed-form posterior pmf rests on generalized factorial coefficients
C(u, v; a, b).  Rescaled as D(u, v) = C(u, v; a, b) / a^v, they obey a
recurrence whose every term is positive on the model's domain
(0 <= a < 1, b = -n + j*a < 0), so one triangle of log D covers every
alpha, and at alpha = 0 it gives the non-central Stirling numbers.  This
script shows the expansion identity behind the pmf, the alpha -> 0 limit,
and the cancellation that makes the textbook alternating sum hopeless in
double precision.
"""

import math
from fractions import Fraction

import numpy as np

from unseen import GfcTable

# sum_v D(u, v) prod_{i<v} (theta + alpha (j + i)) = (theta + n)_(u): the
# weights of the closed-form pmf sum to its normaliser
alpha, theta, n, j, u = 0.54, 26.67, 977, 300, 60
log_d = GfcTable(u, alpha, -n + j * alpha).log_row(u)
log_prefix = np.concatenate([[0.0], np.cumsum(np.log(theta + alpha * (j + np.arange(u))))])
lhs = np.logaddexp.reduce(log_d + log_prefix)
rhs = np.log(theta + n + np.arange(u)).sum()
print(f"expansion identity at u = {u}: log lhs = {lhs:.12f}, log rhs = {rhs:.12f}")

# alpha -> 0: the triangle tends to the non-central Stirling numbers
# |s(u, v; n)|, which it gives exactly at alpha = 0
u, n, j = 12, 5, 3
exact = [1]
for w in range(u):  # |s(w+1, v; n)| = |s(w, v-1; n)| + (w + n) |s(w, v; n)|
    exact = [(exact[v - 1] if v else 0) + (w + n) * (exact[v] if v <= w else 0)
             for v in range(w + 2)]
at_zero = GfcTable(u, 0.0, -n).log_row(u)
print(f"\nalpha = 0 vs exact integer Stirling numbers (u = {u}, n = {n}): "
      f"max |log diff| = {max(abs(at_zero[v] - math.log(exact[v])) for v in range(u + 1)):.1e}")
for a in (1e-2, 1e-4, 1e-6):
    row = GfcTable(u, a, -n + j * a).log_row(u)
    print(f"  alpha = {a:.0e}: max |log D - log |s|| = {np.max(np.abs(row - at_zero)):.2e}")

# the textbook alternating sum
#   C(u, v; a, b) = (1/v!) sum_i (-1)^i binom(v, i) (-i a - b)_(u)
# in float64, in exact rationals, and from the positive triangle
u, v, a, b = 40, 25, Fraction(3, 8), Fraction(-481, 5)


def rising(x, k):
    out = x ** 0
    for i in range(k):
        out *= x + i
    return out


def alternating_sum(a, b):
    total = 0 * a
    for i in range(v + 1):
        term = math.comb(v, i) * rising(-i * a - b, u)
        total += term if i % 2 == 0 else -term
    return total / math.factorial(v)


exact_c = alternating_sum(a, b)
naive = alternating_sum(float(a), float(b))
tri = GfcTable(u, float(a), float(b)).log_row(u)[v] + v * math.log(float(a))
print(f"\nC({u},{v}; {float(a)}, {float(b)}):")
print(f"  exact rational sum     log = {math.log(exact_c):.12f}")
print(f"  positive triangle      log = {tri:.12f}")
print(f"  float64 sum            value = {naive:.3e}   <- cancellation garbage "
      f"(exact value {float(exact_c):.3e})")
print(f"  (the terms reach about 10^{math.log10(rising(-float(b), u)) + v * math.log10(2):.0f})")
