"""Command-line interface: empirical-Bayes fitting, interval estimation,
posterior pmf inspection, and the benchmark harness that regenerates
table/coverage sweeps as CSV.

Exit codes: 0 success, 2 unusable input (parse errors, inadmissible
parameters, size caps), 3 degenerate samples.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources

from .asymptotics import gaussian_interval
from .datasets import DatasetSpec, generate, ingest
from .empirical_bayes import fit_empirical_bayes
from .errors import (
    DegenerateSampleError,
    DomainError,
    MethodUnavailableError,
    NumericalIntegrityError,
    ParseError,
    SizeLimitError,
)
from .intervals import _check_mc_args, coverage, exact_interval, ml_interval
from .model import PYParams, SampleSummary, posterior_mean, posterior_pmf_closed, posterior_pmf_dp
from .samplers import RngStream

CSV_HEADER = [
    "dataset", "n", "j", "alpha", "theta", "m", "k_hat",
    "exact_lo", "exact_hi", "ml_lo", "ml_hi", "gauss_lo", "gauss_hi",
    "ml_cov", "gauss_cov",
]

# Synthetic suite recipes; (n, j) of the published runs are kept alongside so
# the posterior columns can be reproduced exactly even though each fresh
# generation realizes its own sample.
SYNTHETIC_SUITE = {
    "zipf_a": DatasetSpec(kind="zipf", support_size=301, shape=2.0, n=977),
    "zipf_b": DatasetSpec(kind="zipf", support_size=101, shape=1.5, n=1877),
    "polya_c": DatasetSpec(
        kind="polya", support_size=501,
        weights=(2.0, 2.0) + (500.0,) * 499, n=2000,
    ),
    "uniform_d": DatasetSpec(kind="uniform", support_size=501, n=2000),
}

EST_FIXTURES = {
    "tomato_flower": (2586, 1825),
    "mastigamoeba": (715, 460),
    "mastigamoeba_norm": (363, 248),
    "naegleria_aerobic": (959, 473),
    "naegleria_anaerobic": (969, 631),
}


@dataclass
class BenchmarkRow:
    dataset_id: str
    n: int
    j: int
    alpha_hat: float
    theta_hat: float
    m: int
    k_hat: float
    exact_lo: float | None = None
    exact_hi: float | None = None
    ml_lo: float | None = None
    ml_hi: float | None = None
    gauss_lo: float | None = None
    gauss_hi: float | None = None
    ml_coverage: float | None = None
    gauss_coverage: float | None = None

    def as_csv_row(self) -> list[str]:
        def fmt(x):
            return "" if x is None else f"{x:.10g}"

        return [
            self.dataset_id, str(self.n), str(self.j),
            f"{self.alpha_hat:.10g}", f"{self.theta_hat:.10g}", str(self.m),
            fmt(self.k_hat),
            fmt(self.exact_lo), fmt(self.exact_hi),
            fmt(self.ml_lo), fmt(self.ml_hi),
            fmt(self.gauss_lo), fmt(self.gauss_hi),
            fmt(self.ml_coverage), fmt(self.gauss_coverage),
        ]


def compute_row(
    dataset_id: str,
    params: PYParams,
    sample: SampleSummary,
    m: int,
    level: float,
    samples: int,
    methods: tuple[str, ...],
    stream: RngStream,
) -> BenchmarkRow:
    """One benchmark row: point estimate plus the requested interval
    families and, when the exact interval is present, their coverages.
    The Mittag-Leffler family is skipped at alpha = 0."""
    row = BenchmarkRow(
        dataset_id=dataset_id, n=sample.n, j=sample.j,
        alpha_hat=params.alpha, theta_hat=params.theta,
        m=m, k_hat=posterior_mean(params, sample, m),
    )
    exact = None
    if "exact" in methods:
        exact = exact_interval(params, sample, m, level, samples, stream.split(0))
        row.exact_lo, row.exact_hi = exact.lo, exact.hi
    if "ml" in methods and params.alpha > 0:
        mlci = ml_interval(params, sample, m, level, samples, stream.split(1))
        row.ml_lo, row.ml_hi = mlci.lo, mlci.hi
        if exact is not None:
            row.ml_coverage = coverage(mlci, exact)
    if "gaussian" in methods:
        gci = gaussian_interval(params, sample, m, level)
        row.gauss_lo, row.gauss_hi = gci.lo, gci.hi
        if exact is not None:
            row.gauss_coverage = coverage(gci, exact)
    return row


def _m_grid_spec(spec: str, default_points: int = 50):
    """Split 'LO..HI[:POINTS]' into its bounds and point count.  Each bound
    is (value, per_n): an 'n' suffix makes it a multiple of the dataset
    sample size, e.g. '0..5n' or 'n..1000n:4'."""

    def side(tok: str):
        tok = tok.strip()
        if tok.endswith("n"):
            mult = float(tok[:-1]) if tok[:-1] else 1.0
            if not math.isfinite(mult):
                raise ValueError
            return mult, True
        return int(tok), False

    body, points = spec, default_points
    try:
        if ":" in body:
            body, pts = body.rsplit(":", 1)
            points = int(pts)
        if ".." not in body or points < 1:
            raise ValueError
        lo_tok, hi_tok = body.split("..", 1)
        return side(lo_tok), side(hi_tok), points
    except ValueError:
        raise DomainError(f"m-grid must look like 'LO..HI[:POINTS]', got {spec!r}") from None


def _parse_m_grid(spec: str, n: int, default_points: int = 50) -> list[int]:
    """The m values of an m-grid spec (see `_m_grid_spec`) for sample size n."""
    lo, hi, points = _m_grid_spec(spec, default_points)
    lo, hi = (int(round(v * n)) if per_n else v for v, per_n in (lo, hi))
    if not 0 <= lo <= hi:
        raise DomainError(f"bad m-grid bounds ({lo}, {hi})")
    if points == 1:
        return [hi]
    step = (hi - lo) / (points - 1)
    grid = sorted({int(round(lo + i * step)) for i in range(points)})
    return grid


def _worker_count() -> int:
    env = os.environ.get("UNSEEN_THREADS", "")
    cap = int(env) if env else 4
    return max(1, min(cap, os.cpu_count() or 1))


def _emit_rows(rows, out_fh) -> None:
    writer = csv.writer(out_fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_csv_row())


def cmd_fit(args) -> int:
    try:
        sample = ingest(args.input, args.mode)
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        fit = fit_empirical_bayes(
            sample, alpha_step=args.alpha_step, theta_bounds=(1e-4, args.theta_max)
        )
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSampleError as exc:
        print(f"error: degenerate sample: {exc}", file=sys.stderr)
        return 3
    flags = sorted(fit.boundary_flags)
    if args.format == "json":
        print(json.dumps({
            "alpha": fit.alpha_hat, "theta": fit.theta_hat,
            "loglik": fit.log_likelihood, "flags": flags,
        }))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["alpha", "theta", "loglik", "flags"])
        writer.writerow([
            f"{fit.alpha_hat:.10g}", f"{fit.theta_hat:.10g}",
            f"{fit.log_likelihood:.10g}", ";".join(flags),
        ])
    return 0


def cmd_estimate(args) -> int:
    try:
        params = PYParams(alpha=args.alpha, theta=args.theta)
        sample = SampleSummary(n=args.n, j=args.j)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    bad = set(methods) - {"exact", "ml", "gaussian"}
    if bad:
        print(f"error: unknown methods {sorted(bad)}", file=sys.stderr)
        return 2
    if "ml" in methods and params.alpha == 0.0:
        if not set(methods) - {"ml"}:
            print("error: the Mittag-Leffler method is unavailable at alpha = 0",
                  file=sys.stderr)
            return 2
        print("note: Mittag-Leffler columns left empty (method unavailable at alpha = 0)",
              file=sys.stderr)
    try:
        m_values = [int(tok) for tok in args.m.split(",")]
    except ValueError:
        print(f"error: bad m list {args.m!r}", file=sys.stderr)
        return 2
    base = RngStream(args.seed)
    rows = []
    try:
        for idx, m in enumerate(m_values):
            rows.append(compute_row(
                "cli", params, sample, m, args.level, args.samples,
                methods, base.split(idx),
            ))
    except (DomainError, MethodUnavailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_rows(rows, sys.stdout)
    return 0


def _est_samples(est_dir: str | None):
    """(dataset_id, SampleSummary) pairs for the EST suite, from user files
    or the packaged synthetic stand-ins."""
    if est_dir is not None:
        entries = sorted(os.listdir(est_dir))
        files = [f for f in entries if f.endswith(".tsv")]
        if not files:
            raise ParseError(f"no .tsv files found in {est_dir}", line=None)
        return [
            (os.path.splitext(f)[0], ingest(os.path.join(est_dir, f), "label_count"))
            for f in files
        ]
    out = []
    pkg = resources.files("unseen").joinpath("data/est")
    for name in sorted(EST_FIXTURES):
        path = pkg.joinpath(f"standin_{name}.tsv")
        with resources.as_file(path) as p:
            out.append((name, ingest(str(p), "label_count")))
    return out


def cmd_benchmark(args) -> int:
    base = RngStream(args.seed)
    jobs = []
    try:
        # reject bad arguments before the (slow) generation and fits
        _check_mc_args(args.samples, args.level)
        _m_grid_spec(args.m_grid)
        if args.suite == "synthetic":
            datasets = [
                (name, generate(spec, base.split(1000 + d_idx)))
                for d_idx, (name, spec) in enumerate(sorted(SYNTHETIC_SUITE.items()))
            ]
        else:
            datasets = _est_samples(args.est_dir)
        # a grid mixing absolute and n-relative bounds is checked per dataset
        grids = [_parse_m_grid(args.m_grid, sample.n) for _, sample in datasets]
        for (name, sample), grid in zip(datasets, grids):
            fit = fit_empirical_bayes(sample)
            params = PYParams(alpha=fit.alpha_hat, theta=fit.theta_hat)
            jobs.append((name, params, sample, grid))
    except (ParseError, FileNotFoundError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateSampleError as exc:
        print(f"error: degenerate sample: {exc}", file=sys.stderr)
        return 3

    tasks = []
    for name, params, sample, grid in jobs:
        for m in grid:
            tasks.append((len(tasks), name, params, sample, m))

    def run(task):
        idx, name, params, sample, m = task
        return idx, compute_row(
            name, params, sample, m, args.level, args.samples,
            ("exact", "ml", "gaussian"), base.split(idx),
        )

    results: list[BenchmarkRow | None] = [None] * len(tasks)
    workers = _worker_count()
    if workers == 1:
        for task in tasks:
            idx, row = run(task)
            results[idx] = row
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for idx, row in pool.map(run, tasks):
                results[idx] = row
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        _emit_rows(results, fh)
    return 0


def cmd_pmf(args) -> int:
    try:
        params = PYParams(alpha=args.alpha, theta=args.theta)
        sample = SampleSummary(n=args.n, j=args.j)
        if args.method == "dp":
            pmf = posterior_pmf_dp(params, sample, args.m)
        else:
            pmf = posterior_pmf_closed(params, sample, args.m)
    except (SizeLimitError, NumericalIntegrityError) as exc:
        print(f"error: {exc} for method {args.method!r}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["k", "prob"])
    for k, p in enumerate(pmf.probs):
        writer.writerow([k, f"{p:.12g}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unseen",
        description="Unseen-species estimation under the Pitman-Yor prior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="empirical-Bayes fit of (alpha, theta)")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--mode", choices=["labels", "label_count"], default="labels")
    p_fit.add_argument("--alpha-step", type=float, default=0.01)
    p_fit.add_argument("--theta-max", type=float, default=1e6)
    p_fit.add_argument("--format", choices=["json", "csv"], default="json")
    p_fit.set_defaults(func=cmd_fit)

    p_est = sub.add_parser("estimate", help="point estimate and credible intervals")
    p_est.add_argument("--n", type=int, required=True)
    p_est.add_argument("--j", type=int, required=True)
    p_est.add_argument("--alpha", type=float, required=True)
    p_est.add_argument("--theta", type=float, required=True)
    p_est.add_argument("--m", required=True, help="comma-separated additional sample sizes")
    p_est.add_argument("--level", type=float, default=0.95)
    p_est.add_argument("--methods", default="exact,ml,gaussian")
    p_est.add_argument("--samples", type=int, default=2000)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("benchmark", help="regenerate table/coverage sweeps as CSV")
    p_bench.add_argument("--suite", choices=["synthetic", "est"], required=True)
    p_bench.add_argument("--m-grid", default="0..5n", help="LO..HI[:POINTS], 'n' suffix allowed")
    p_bench.add_argument("--samples", type=int, default=2000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--level", type=float, default=0.95)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--est-dir", default=None,
                         help="directory of label_count .tsv files for the est suite")
    p_bench.set_defaults(func=cmd_benchmark)

    p_pmf = sub.add_parser("pmf", help="posterior pmf of the unseen-species count")
    p_pmf.add_argument("--n", type=int, required=True)
    p_pmf.add_argument("--j", type=int, required=True)
    p_pmf.add_argument("--alpha", type=float, required=True)
    p_pmf.add_argument("--theta", type=float, required=True)
    p_pmf.add_argument("--m", type=int, required=True)
    p_pmf.add_argument("--method", choices=["dp", "closed"], default="dp")
    p_pmf.set_defaults(func=cmd_pmf)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
