"""Coverage of the asymptotic intervals as the extrapolation grows.

For one synthetic dataset, sweeps the additional sample size m and writes
a CSV of the coverage of the Mittag-Leffler and Gaussian intervals with
respect to the exact Monte Carlo interval.  The Gaussian coverage stays
in the high nineties across the whole sweep, while the Mittag-Leffler
coverage starts low and climbs: its regime of validity is very large m.
"""

import csv
import sys

from unseen import (
    PYParams,
    RngStream,
    SampleSummary,
    coverage,
    exact_interval,
    gaussian_interval,
    ml_interval,
)

params = PYParams(alpha=0.54, theta=26.67)
sample = SampleSummary(n=977, j=300)
rng = RngStream(seed=2)

writer = csv.writer(sys.stdout, lineterminator="\n")
writer.writerow(["m", "ml_coverage", "gauss_coverage"])
for i, mult in enumerate((1, 2, 3, 5, 10, 50, 100)):
    m = mult * sample.n
    ex = exact_interval(params, sample, m, samples=2000, rng=rng.split(2 * i))
    ml = ml_interval(params, sample, m, samples=2000, rng=rng.split(2 * i + 1))
    ga = gaussian_interval(params, sample, m)
    writer.writerow([m, f"{coverage(ml, ex):.1f}", f"{coverage(ga, ex):.1f}"])

print("\n(the same sweep over all bundled datasets: "
      "`unseen benchmark --suite synthetic --out sweep.csv`)", file=sys.stderr)
