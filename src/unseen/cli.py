"""Command-line interface: empirical-Bayes fitting, interval estimation,
posterior pmf inspection, and the benchmark harness that regenerates
table/coverage sweeps as CSV.

Exit codes: 0 success, 2 unusable input (parse errors, inadmissible
parameters, size caps, numerical failures, unreadable or unwritable
files), 3 degenerate samples.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from importlib import resources

from .asymptotics import gaussian_interval
from .datasets import DatasetSpec, generate, ingest
from .empirical_bayes import fit_empirical_bayes
from .errors import (
    DegenerateSampleError,
    DomainError,
    MethodUnavailableError,
    ParseError,
    SizeLimitError,
    UnseenError,
)
from .intervals import (
    _MAX_MC_SAMPLES,
    _MIN_MC_SAMPLES,
    _check_mc_args,
    coverage,
    exact_interval,
    ml_interval,
)
from .model import (
    DP_MAX,
    Pmf,
    PYParams,
    SampleSummary,
    posterior_mean,
    posterior_pmf_closed,
    posterior_pmf_dp,
    posterior_pmfs,
)
from .samplers import RngStream

# Synthetic suite recipes.  Each run generates its own sample, and these
# recipes do not reproduce the paper's synthetic datasets: at seed 1 they
# realise j = 43, 82, 496 and 495, where the published (n, j) are (977, 300),
# (1877, 100), (2000, 215) and (2000, 447).
SYNTHETIC_SUITE = {
    "zipf_a": DatasetSpec(kind="zipf", support_size=301, shape=2.0, n=977),
    "zipf_b": DatasetSpec(kind="zipf", support_size=101, shape=1.5, n=1877),
    "polya_c": DatasetSpec(
        kind="polya", support_size=501,
        weights=(2.0, 2.0) + (500.0,) * 499, n=2000,
    ),
    "uniform_d": DatasetSpec(kind="uniform", support_size=501, n=2000),
}

# The EST suite's packaged stand-ins, data/est/standin_<name>.tsv; each
# file holds the (n, j) of the library it stands in for.
EST_FIXTURES = ("tomato_flower", "mastigamoeba", "mastigamoeba_norm",
                "naegleria_aerobic", "naegleria_anaerobic")


@dataclass
class BenchmarkRow:
    """One CSV row; the field names are the column names."""

    dataset: str
    n: int
    j: int
    alpha: float
    theta: float
    m: int
    k_hat: float
    exact_lo: float | None = None
    exact_hi: float | None = None
    ml_lo: float | None = None
    ml_hi: float | None = None
    gauss_lo: float | None = None
    gauss_hi: float | None = None
    ml_cov: float | None = None
    gauss_cov: float | None = None

    def as_csv_row(self) -> list[str]:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, (str, numbers.Integral)):
                return str(x)
            return f"{x:.10g}"

        return [fmt(getattr(self, name)) for name in CSV_HEADER]


CSV_HEADER = [f.name for f in fields(BenchmarkRow)]


def compute_row(
    dataset_id: str,
    params: PYParams,
    sample: SampleSummary,
    m: int,
    level: float,
    samples: int,
    methods: tuple[str, ...],
    stream: RngStream,
    pmf: Pmf | None = None,
) -> BenchmarkRow:
    """One benchmark row: point estimate plus the requested interval
    families and, when the exact interval is present, their coverages.
    The Mittag-Leffler family is skipped at alpha = 0.  The exact interval
    draws from `pmf`, the exact posterior pmf at m, when given, and
    otherwise takes the route `posterior_pmfs` picks: its own pmf pass or
    the chain; see `exact_interval`."""
    row = BenchmarkRow(
        dataset=dataset_id, n=sample.n, j=sample.j,
        alpha=params.alpha, theta=params.theta,
        m=m, k_hat=posterior_mean(params, sample, m),
    )
    exact = None
    if "exact" in methods:
        exact = exact_interval(params, sample, m, level, samples, stream.split(0), pmf)
        row.exact_lo, row.exact_hi = exact.lo, exact.hi
    if "ml" in methods and params.alpha > 0:
        mlci = ml_interval(params, sample, m, level, samples, stream.split(1))
        row.ml_lo, row.ml_hi = mlci.lo, mlci.hi
        if exact is not None:
            row.ml_cov = coverage(mlci, exact)
    if "gaussian" in methods:
        gci = gaussian_interval(params, sample, m, level)
        row.gauss_lo, row.gauss_hi = gci.lo, gci.hi
        if exact is not None:
            row.gauss_cov = coverage(gci, exact)
    return row


def _grid_rows(
    dataset_id: str,
    params: PYParams,
    sample: SampleSummary,
    grid: list[int],
    level: float,
    samples: int,
    methods: tuple[str, ...],
    base: RngStream,
    first: int,
) -> list[BenchmarkRow]:
    """`compute_row` at every m of `grid`, row i on stream
    base.split(first + i).  When the exact interval is asked for, the
    whole grid goes to `posterior_pmfs`, which picks each row's route: one
    pmf pass serves every m it returns a pmf for, instead of one pass per
    row, and the other rows run the chain."""
    pmfs = posterior_pmfs(params, sample, grid if "exact" in methods else [])
    return [
        compute_row(dataset_id, params, sample, m, level, samples, methods,
                    base.split(first + i), pmfs.get(m))
        for i, m in enumerate(grid)
    ]


# Point count of an m-grid spec that gives none.
_M_GRID_POINTS = 50


def _m_grid_spec(spec: str):
    """Split 'LO..HI[:POINTS]' into its bounds and point count (default
    `_M_GRID_POINTS`).  Each bound is (value, per_n): an 'n' suffix makes it
    a multiple of the dataset sample size, e.g. '0..5n' or 'n..1000n:4'."""

    def side(tok: str):
        tok = tok.strip()
        if tok.endswith("n"):
            mult = float(tok[:-1]) if tok[:-1] else 1.0
            if not math.isfinite(mult):
                raise ValueError
            return mult, True
        return int(tok), False

    body, points = spec, _M_GRID_POINTS
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


def _parse_m_grid(spec: str, n: int) -> list[int]:
    """The m values of an m-grid spec (see `_m_grid_spec`) for sample size n."""
    lo, hi, points = _m_grid_spec(spec)
    lo, hi = (int(round(v * n)) if per_n else v for v, per_n in (lo, hi))
    if not 0 <= lo <= hi:
        raise DomainError(f"bad m-grid bounds ({lo}, {hi})")
    # every count at or above hi - lo + 1 gives each integer in [lo, hi]
    points = min(points, hi - lo + 1)
    if points == 1:
        return [hi]
    step = (hi - lo) / (points - 1)
    grid = sorted({int(round(lo + i * step)) for i in range(points)})
    return grid


def _emit_rows(rows, out_fh) -> None:
    writer = csv.writer(out_fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_csv_row())


def cmd_fit(args) -> int:
    sample = ingest(args.input, args.mode)
    fit = fit_empirical_bayes(sample)
    flags = sorted(fit.boundary_flags)
    if args.format == "json":
        print(json.dumps({
            "alpha": fit.alpha_hat, "theta": fit.theta_hat,
            "loglik": fit.log_likelihood, "flags": flags,
            "converged": fit.converged,
        }))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["alpha", "theta", "loglik", "flags", "converged"])
        writer.writerow([
            f"{fit.alpha_hat:.10g}", f"{fit.theta_hat:.10g}",
            f"{fit.log_likelihood:.10g}", ";".join(flags), str(fit.converged).lower(),
        ])
    return 0


def cmd_estimate(args) -> int:
    params = PYParams(alpha=args.alpha, theta=args.theta)
    sample = SampleSummary(n=args.n, j=args.j)
    methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    bad = set(methods) - {"exact", "ml", "gaussian"}
    if bad:
        raise DomainError(f"unknown methods {sorted(bad)}")
    if {"exact", "ml"} & set(methods):
        # reject bad Monte Carlo arguments before the pmf pass
        _check_mc_args(args.samples, args.level)
    if "ml" in methods and params.alpha == 0.0:
        if not set(methods) - {"ml"}:
            raise MethodUnavailableError("the Mittag-Leffler method is unavailable at alpha = 0")
        print("note: Mittag-Leffler columns left empty (method unavailable at alpha = 0)",
              file=sys.stderr)
    m_tokens = args.m.split(",")
    if not all(tok.strip().isdecimal() for tok in m_tokens):
        raise DomainError(f"m must be a comma-separated list of integers >= 0, got {args.m!r}")
    rows = _grid_rows("cli", params, sample, [int(m) for m in m_tokens], args.level,
                      args.samples, methods, RngStream(args.seed), 0)
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
    # reject bad arguments before the (slow) generation and fits
    _check_mc_args(args.samples, args.level)
    _m_grid_spec(args.m_grid)
    base = RngStream(args.seed)
    if args.suite == "synthetic":
        # drawn only once --out is open; each draw has exactly spec.n observations
        specs = sorted(SYNTHETIC_SUITE.items())
        sizes = [spec.n for _, spec in specs]
    else:
        datasets = _est_samples(args.est_dir)
        sizes = [sample.n for _, sample in datasets]
    # a grid mixing absolute and n-relative bounds is checked per dataset
    grids = [_parse_m_grid(args.m_grid, n) for n in sizes]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if args.suite == "synthetic":
            datasets = [
                (name, generate(spec, base.split(1000 + d_idx)))
                for d_idx, (name, spec) in enumerate(specs)
            ]
        rows = []
        for (name, sample), grid in zip(datasets, grids):
            fit = fit_empirical_bayes(sample)
            params = PYParams(alpha=fit.alpha_hat, theta=fit.theta_hat)
            rows += _grid_rows(name, params, sample, grid, args.level, args.samples,
                               ("exact", "ml", "gaussian"), base, len(rows))
        _emit_rows(rows, fh)
    return 0


def _mixture_pmf(params: PYParams, sample: SampleSummary, m: int) -> Pmf:
    """The production pmf at one m, the one the exact intervals draw from:
    `posterior_pmfs`' mixture, or its Bernoulli product at alpha = 0,
    which serve m up to DP_MAX only."""
    pmf = posterior_pmfs(params, sample, [m]).get(m)
    if pmf is None:
        raise SizeLimitError(f"m={m} exceeds dp_max={DP_MAX}")
    return pmf


_PMF_METHODS = {"mixture": _mixture_pmf, "dp": posterior_pmf_dp, "closed": posterior_pmf_closed}


def cmd_pmf(args) -> int:
    params = PYParams(alpha=args.alpha, theta=args.theta)
    sample = SampleSummary(n=args.n, j=args.j)
    pmf = _PMF_METHODS[args.method](params, sample, args.m)
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
    samples_help = (f"Monte Carlo replicates per interval, in [{_MIN_MC_SAMPLES}, "
                    f"{_MAX_MC_SAMPLES}] (default 2000)")

    p_fit = sub.add_parser("fit", help="empirical-Bayes fit of (alpha, theta)")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--mode", choices=["labels", "label_count"], default="labels")
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
    p_est.add_argument("--samples", type=int, default=2000, help=samples_help)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("benchmark", help="regenerate table/coverage sweeps as CSV")
    p_bench.add_argument("--suite", choices=["synthetic", "est"], required=True)
    p_bench.add_argument(
        "--m-grid", default="0..5n",
        help=f"LO..HI[:POINTS], 'n' suffix allowed, {_M_GRID_POINTS} points unless given",
    )
    p_bench.add_argument("--samples", type=int, default=2000, help=samples_help)
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
    p_pmf.add_argument("--method", choices=list(_PMF_METHODS), default="mixture",
                       help="mixture: the pmf the exact intervals draw from (the default; "
                            "at alpha = 0 the product of the draws' Bernoulli pmfs); "
                            "dp and closed: the two independent references")
    p_pmf.set_defaults(func=cmd_pmf)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  The exit-code policy lives here alone: package
    errors and I/O errors print one `error:` line and exit 2, or 3 for a
    degenerate sample; any other exception is a bug and keeps its traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateSampleError as exc:
        print(f"error: degenerate sample: {exc}", file=sys.stderr)
        return 3
    except (UnseenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
