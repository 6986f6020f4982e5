import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import binom

from unseen import cli, intervals, model, samplers
from unseen.cli import CSV_HEADER, _parse_m_grid, main
from unseen.datasets import export_label_counts
from unseen.errors import (
    DegenerateSampleError,
    DomainError,
    MethodUnavailableError,
    NumericalIntegrityError,
    ParseError,
    SizeLimitError,
)
from unseen.intervals import CredibleInterval, coverage
from unseen.model import DP_MAX, PYParams, SampleSummary, posterior_pmfs

from conftest import TABLE_FAV, standin_freqs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [dict(zip(CSV_HEADER, r)) for r in list(csv.reader(lines))[1:]]


def order_stat_band(pmf, draws, rank, false_alarm=1e-6):
    """[a, b] holding the rank-th order statistic of `draws` iid draws from
    the pmf except with probability <= false_alarm, split between the two
    sides: P(X_(r) <= x) = P(Binomial(draws, F(x)) >= r)."""
    below = binom.sf(rank - 1, draws, np.clip(pmf.cdf(), 0.0, 1.0))
    a = int(np.argmax(below > false_alarm / 2.0))
    hits = np.flatnonzero(below >= 1.0 - false_alarm / 2.0)
    return a, int(hits[0]) if hits.size else pmf.support_max


class TestMGrid:
    def test_n_relative(self):
        grid = _parse_m_grid("0..5n", 100)
        assert grid[0] == 0 and grid[-1] == 500 and len(grid) == 50

    def test_absolute_with_points(self):
        assert _parse_m_grid("10..20:3", 7) == [10, 15, 20]

    def test_bare_n(self):
        assert _parse_m_grid("n..2n:2", 40) == [40, 80]

    def test_bad_spec(self):
        with pytest.raises(DomainError):
            _parse_m_grid("5", 10)

    def test_huge_point_count_capped(self):
        # a count above hi - lo + 1 gives every integer once, without a loop
        # over the count
        assert _parse_m_grid("0..10:1000000000", 7) == list(range(11))
        assert _parse_m_grid("3..3:1000000000", 7) == [3]
        assert _parse_m_grid("n..2n:1000000000", 4) == [4, 5, 6, 7, 8]


class TestFitCommand:
    def test_json_schema(self, capsys, tmp_path):
        p = tmp_path / "counts.tsv"
        export_label_counts(standin_freqs(400, 180), str(p))
        code, out, _ = run_cli(capsys, "fit", "--input", str(p), "--mode", "label_count",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"alpha", "theta", "loglik", "flags", "converged"}

    def test_csv_format(self, capsys, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("a\nb\na\nc\nd\nd\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "fit", "--input", str(p), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alpha", "theta", "loglik", "flags", "converged"]

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("oops\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--input", str(p), "--mode", "label_count")
        assert code == 2 and "line 1" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "fit", "--input", "/nonexistent.txt")
        assert code == 2

    def test_non_utf8_exit_2(self, capsys, tmp_path):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"a\xff\xfe")
        code, _, err = run_cli(capsys, "fit", "--input", str(p))
        assert code == 2 and "not UTF-8" in err

    def test_single_line_exit_3(self, capsys, tmp_path):
        p = tmp_path / "one.txt"
        p.write_text("only\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--input", str(p))
        assert code == 3 and "degenerate" in err

    @pytest.mark.parametrize("option,value", [("--theta-max", "10"), ("--alpha-step", "0.1")])
    def test_search_options_are_gone(self, capsys, tmp_path, option, value):
        """The fit's search settings are fixed; argparse rejects the options."""
        p = tmp_path / "labels.txt"
        p.write_text("a\nb\na\nc\nd\nd\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(p), option, value])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_uniform_data_fits_dirichlet_boundary(self, capsys, tmp_path):
        import numpy as np

        rng = np.random.default_rng(8)
        p = tmp_path / "uniform.txt"
        p.write_text(
            "".join(f"s{v}\n" for v in rng.integers(0, 501, size=2000)),
            encoding="utf-8",
        )
        code, out, _ = run_cli(capsys, "fit", "--input", str(p), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.0
        assert "alpha_zero" in payload["flags"]
        assert payload["theta"] > 0


class TestEstimateCommand:
    def test_row_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "977", "--j", "300", "--alpha", "0.54",
            "--theta", "26.67", "--m", "0,977", "--samples", "500", "--seed", "1",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3
        m0 = dict(zip(CSV_HEADER, rows[1]))
        assert float(m0["k_hat"]) == 0.0
        assert float(m0["exact_lo"]) == 0.0 and float(m0["exact_hi"]) == 0.0

    def test_gaussian_only_draws_nothing(self, capsys):
        before = samplers.draw_count()
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5",
            "--theta", "5", "--m", "100,200", "--methods", "gaussian",
        )
        assert code == 0
        assert samplers.draw_count() == before
        row = dict(zip(CSV_HEADER, list(csv.reader(io.StringIO(out)))[1]))
        assert row["exact_lo"] == "" and row["ml_lo"] == ""
        assert row["gauss_lo"] != ""

    def test_ml_skipped_at_alpha_zero(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0",
            "--theta", "5", "--m", "50", "--samples", "200",
        )
        assert code == 0
        row = dict(zip(CSV_HEADER, list(csv.reader(io.StringIO(out)))[1]))
        assert row["ml_lo"] == "" and row["exact_lo"] != ""
        assert "alpha = 0" in err

    def test_ml_only_at_alpha_zero_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0",
            "--theta", "5", "--m", "50", "--methods", "ml",
        )
        assert code == 2 and "unavailable" in err

    def test_inadmissible_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--n", "10", "--j", "3", "--alpha", "1.2",
            "--theta", "1", "--m", "5",
        )
        assert code == 2 and "alpha" in err

    def test_m_zero_checks_samples(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--n", "10", "--j", "3", "--alpha", "0.5",
            "--theta", "1", "--m", "0", "--samples", "50",
        )
        assert code == 2 and "100 Monte Carlo samples" in err

    @pytest.mark.parametrize("theta", ["1e16", "1e17", "1e18", "1e19", "1e20"])
    def test_ml_interval_at_huge_theta(self, capsys, theta):
        """At theta this large nearly every draw founds a species, so the
        Mittag-Leffler interval sits at m, where its scale c used to cancel
        to a wrong value or to 0, and its angle envelope used to overflow."""
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", theta,
            "--m", "10", "--samples", "100", "--methods", "ml,gaussian",
        )
        assert code == 0
        row = dict(zip(CSV_HEADER, list(csv.reader(io.StringIO(out)))[1]))
        assert 9.999 <= float(row["ml_lo"]) <= float(row["ml_hi"]) == 10.0

    @pytest.mark.parametrize("theta", ["1e30", "1e40", "1e100"])
    def test_ml_endpoints_clamped_to_m(self, capsys, theta):
        """Rounding puts every c*B*S draw a few ulps above m here; both
        endpoints are clamped into [0, m], so the interval is (m, m) rather
        than out of order."""
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", theta,
            "--m", "10", "--samples", "100", "--methods", "ml,gaussian",
        )
        assert code == 0
        row = dict(zip(CSV_HEADER, list(csv.reader(io.StringIO(out)))[1]))
        assert float(row["ml_lo"]) == float(row["ml_hi"]) == 10.0

    @pytest.mark.parametrize("theta", ["1e9", "1e12", "1e20", "1e40"])
    def test_all_methods_at_huge_theta(self, capsys, theta):
        """Past q ~ 2e9, where the angle rejection under a flat envelope no
        longer converged, every method gives a row, and the Mittag-Leffler
        endpoints lie in [exact_lo - 1, m]."""
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", theta,
            "--m", "10", "--samples", "100",
        )
        assert code == 0
        row = dict(zip(CSV_HEADER, list(csv.reader(io.StringIO(out)))[1]))
        lo, hi = float(row["ml_lo"]), float(row["ml_hi"])
        assert float(row["exact_lo"]) - 1.0 <= lo <= hi <= 10.0

    def test_one_pmf_pass_for_all_m(self, capsys, monkeypatch):
        """The whole grid goes to `posterior_pmfs` in one call, and one prior
        pass serves it; m above DP_MAX runs the chain with no pass of its
        own."""
        grids, passes = [], []
        chain_steps = model._chain_steps

        def counted(params, sample, ms):
            grids.append(list(ms))
            return posterior_pmfs(params, sample, grids[-1])

        def counted_pass(*args):
            passes.append(args)
            return chain_steps(*args)

        monkeypatch.setattr(cli, "posterior_pmfs", counted)
        monkeypatch.setattr(model, "_chain_steps", counted_pass)
        code, out, _ = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", "10",
            "--m", f"0,12,5,12,{DP_MAX + 1}", "--samples", "100", "--methods", "exact",
        )
        assert code == 0 and len(out.splitlines()) == 6
        assert grids == [[0, 12, 5, 12, DP_MAX + 1]] and len(passes) == 1

    def test_reproducible(self, capsys):
        argv = ["estimate", "--n", "50", "--j", "20", "--alpha", "0.4",
                "--theta", "2", "--m", "75", "--samples", "300", "--seed", "9"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", "inf",
     "--m", "10", "--samples", "100"],
    ["pmf", "--n", "20", "--j", "10", "--alpha", "0.5", "--theta", "inf", "--m", "3"],
])
def test_infinite_theta_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error:") and "theta" in err and out == ""


class TestPmfCommand:
    def test_dp_vs_closed(self, capsys):
        args = ["pmf", "--n", "2", "--j", "1", "--alpha", "0.5", "--theta", "0.5", "--m", "2"]
        _, out_dp, _ = run_cli(capsys, *args, "--method", "dp")
        _, out_cl, _ = run_cli(capsys, *args, "--method", "closed")
        rows_dp = [float(r[1]) for r in list(csv.reader(io.StringIO(out_dp)))[1:]]
        rows_cl = [float(r[1]) for r in list(csv.reader(io.StringIO(out_cl)))[1:]]
        assert rows_dp == pytest.approx(rows_cl, abs=1e-8)
        assert sum(rows_dp) == pytest.approx(1.0, abs=1e-10)

    def test_cap_exceeded_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "pmf", "--n", "2", "--j", "1", "--alpha", "0.5", "--theta", "0.5",
            "--m", "100", "--method", "closed",
        )
        assert code == 2 and "u_max" in err

    @pytest.mark.parametrize("alpha,theta", [("0", "1e200"), ("0.5", "1e300")])
    def test_closed_form_at_huge_theta(self, capsys, alpha, theta):
        # every further draw founds a new species, as the dp recursion says
        args = ["pmf", "--n", "20", "--j", "10", "--alpha", alpha, "--theta", theta, "--m", "30"]
        for method in ("closed", "dp"):
            code, out, _ = run_cli(capsys, *args, "--method", method)
            probs = [float(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]]
            assert code == 0 and len(probs) == 31
            assert probs[30] == 1.0 and sum(probs[:30]) < 1e-12, method

    @pytest.mark.parametrize("n,j,alpha,theta,m,digest", [
        ("2", "1", "0.5", "0.5", "2",
         "a6dea08c5bde118e61cd56b8274fdd4471957f7120fb768fd399a0199e7a2915"),
        ("977", "300", "0.54", "26.67", "4885",
         "ad717dd7fce3ac9ce074531afbb07fd1e0b1d3b8e1f5061e0bdcff95e22ddf08"),
        # the posterior pass's widest window
        ("40", "3", "0.999999", "0.5", "20000",
         "2270ee7a791f6f2899a5e6f724f26c65438a4e9697e56f69fd7af3435cbc55bf"),
    ])
    def test_dp_output_pinned(self, capsys, n, j, alpha, theta, m, digest):
        """`unseen pmf --method dp` keeps its bytes, one line per k."""
        code, out, _ = run_cli(capsys, "pmf", "--n", n, "--j", j, "--alpha", alpha,
                               "--theta", theta, "--m", m, "--method", "dp")
        assert code == 0 and out.count("\n") == int(m) + 2
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,j,alpha,theta,m", [
        ("2", "1", "0.5", "0.5", "2"),
        ("977", "300", "0.54", "26.67", "4885"),
        ("2000", "447", "0", "178.48", "0"),
    ])
    def test_default_is_the_mixture(self, capsys, n, j, alpha, theta, m):
        """Without --method, `unseen pmf` prints the pmf of `posterior_pmfs`,
        the one the exact intervals draw from."""
        code, out, _ = run_cli(capsys, "pmf", "--n", n, "--j", j, "--alpha", alpha,
                               "--theta", theta, "--m", m)
        pmf = posterior_pmfs(PYParams(float(alpha), float(theta)),
                             SampleSummary(int(n), int(j)), [int(m)])[int(m)]
        expect = "k,prob\n" + "".join(f"{k},{p:.12g}\n" for k, p in enumerate(pmf.probs))
        assert code == 0 and out == expect

    def test_default_above_dp_max_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "pmf", "--n", "977", "--j", "300", "--alpha", "0.54",
                                 "--theta", "26.67", "--m", str(DP_MAX + 1))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "dp_max" in err


class TestBenchmarkCommand:
    def test_synthetic_suite_shape_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        for out in (out1, out2):
            code = main([
                "benchmark", "--suite", "synthetic", "--m-grid", "n..2n:2",
                "--samples", "200", "--seed", "5", "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.reader(out1.read_text(encoding="utf-8").splitlines()))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4 * 2  # four datasets, two mesh points

    def test_est_suite_runs_on_fixtures(self, capsys, tmp_path):
        out = tmp_path / "est.csv"
        code = main(["benchmark", "--suite", "est", "--m-grid", "n..n:1",
                     "--samples", "200", "--seed", "5", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 1 + 5
        names = {r[0] for r in rows[1:]}
        assert "tomato_flower" in names

    def test_est_stand_ins_hold_the_published_sizes(self):
        """The packaged stand-ins are the one copy of the EST sizes: each
        ingests to the (n, j) of its library in the published table."""
        got = {name: (s.n, s.j) for name, s in cli._est_samples(None)}
        assert got == {name: (n, j) for name, (_, _, n, j) in TABLE_FAV.items()}
        assert sorted(got) == sorted(cli.EST_FIXTURES)

    def test_est_dir_missing_files_exit_2(self, capsys, tmp_path):
        code = main(["benchmark", "--suite", "est", "--est-dir", str(tmp_path),
                     "--m-grid", "n..n:1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_est_dir_non_utf8_exit_2(self, capsys, tmp_path):
        (tmp_path / "binary.tsv").write_bytes(b"a\xff\xfe")
        code, _, err = run_cli(capsys, "benchmark", "--suite", "est", "--est-dir", str(tmp_path),
                               "--m-grid", "n..n:1", "--out", str(tmp_path / "x.csv"))
        assert code == 2 and "not UTF-8" in err

    @pytest.mark.parametrize("args,message", [
        (["--samples", "50"], "100 Monte Carlo samples"),
        (["--level", "1.5"], "level"),
        (["--m-grid", "n..x"], "m-grid"),
    ])
    def test_bad_arguments_exit_2_before_any_fit(self, capsys, tmp_path, args, message):
        before = samplers.draw_count()
        code, _, err = run_cli(capsys, "benchmark", "--suite", "synthetic",
                               "--out", str(tmp_path / "x.csv"), *args)
        assert code == 2 and err.startswith("error:") and message in err
        assert samplers.draw_count() == before
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("suite", ["synthetic", "est"])
    def test_mixed_bound_grid_exit_2_before_any_fit(self, capsys, tmp_path, monkeypatch, suite):
        # 2000..1n is ordered only for datasets with n >= 2000
        def no_fit(sample):
            raise AssertionError("fit ran before the m-grid was checked")

        monkeypatch.setattr(cli, "fit_empirical_bayes", no_fit)
        code, _, err = run_cli(capsys, "benchmark", "--suite", suite, "--m-grid", "2000..1n",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 2 and err.startswith("error:") and "m-grid" in err
        assert not (tmp_path / "x.csv").exists()

    def test_gaussian_coverage_claim(self, capsys, tmp_path):
        """Rows with m >= n: the Gaussian interval covers at least 93% of
        the exact posterior's equal-tailed interval on every row, and each
        printed exact-MC endpoint lies in the order-statistic band of its
        pmf at false-alarm 1e-6.  The printed gauss_cov is taken against
        the MC interval instead, whose noise can put a row either side of
        93."""
        samples, level = 2000, 0.95
        out = tmp_path / "cov.csv"
        code = main(["benchmark", "--suite", "synthetic", "--m-grid", "n..5n:3",
                     "--samples", str(samples), "--seed", "11", "--out", str(out)])
        assert code == 0
        rows = [r for r in read_rows(out) if int(r["m"]) >= int(r["n"])]
        assert len(rows) == 12
        delta = 1.0 - level
        half_delta = (1 - Fraction(str(level))) / 2
        ranks = (max(math.ceil(samples * half_delta), 1),
                 min(math.ceil(samples * (1 - half_delta)), samples))
        by_dataset = {}
        for r in rows:
            by_dataset.setdefault((r["alpha"], r["theta"], r["n"], r["j"]), []).append(r)
        for (alpha, theta, n, j), group in by_dataset.items():
            pmfs = posterior_pmfs(PYParams(float(alpha), float(theta)),
                                  SampleSummary(int(n), int(j)), [int(r["m"]) for r in group])
            for r in group:
                pmf, where = pmfs[int(r["m"])], (r["dataset"], r["m"])
                exact = CredibleInterval(pmf.quantile(delta / 2.0), pmf.quantile(1.0 - delta / 2.0),
                                         level, "exact_mc", mc_samples=samples)
                gauss = CredibleInterval(float(r["gauss_lo"]), float(r["gauss_hi"]),
                                         level, "gaussian")
                assert coverage(gauss, exact) >= 93.0, where
                for col, rank in zip(("exact_lo", "exact_hi"), ranks):
                    lo, hi = order_stat_band(pmf, samples, rank)
                    assert lo <= float(r[col]) <= hi, (where, col, r[col], (lo, hi))

    def test_only_mc_columns_moved(self, capsys, tmp_path):
        """Drawing the exact-MC replicates from the one pmf pass per dataset
        moves only the columns built from those draws: every other column
        keeps the bytes it had when each row ran the chain, at the fits of
        the mesh's Newton ascent.  ml_lo and ml_hi are pinned as the
        Gaussian-envelope angle sampler draws them, and the polya_c rows as
        the Dirichlet-multinomial draw generates their sample."""
        drop = {"exact_lo", "exact_hi", "ml_cov", "gauss_cov"}
        out = tmp_path / "s3.csv"
        code = main(["benchmark", "--suite", "synthetic", "--m-grid", "0..5n:4",
                     "--samples", "300", "--seed", "3", "--out", str(out)])
        assert code == 0
        table = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        keep = [i for i, name in enumerate(table[0]) if name not in drop]
        text = "\n".join(",".join(r[i] for i in keep) for r in table)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "1afd6a24638d533eddaa8923d3ec1c664a7ed8518ec24310cd8c13f40dbbf6f9"

    def test_est_suite_pinned(self, capsys, tmp_path):
        """Every column of an EST sweep, exact-MC cells included, keeps its
        bytes: a change to the pmf pass or a sampler that moves any cell
        fails here."""
        out = tmp_path / "est3.csv"
        code = main(["benchmark", "--suite", "est", "--m-grid", "0..2n:3",
                     "--samples", "300", "--seed", "3", "--out", str(out)])
        assert code == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "58646a41b4edba0be7e0573f9ca44871c8fcb140e93ad1a5053f4274f0fa9044"

    def test_chain_runs_above_dp_max(self, capsys, tmp_path, monkeypatch):
        """Rows up to DP_MAX draw from the shared pmf pass; rows above it
        run the predictive chain."""
        export_label_counts(standin_freqs(60, 25), str(tmp_path / "small.tsv"))
        chain_ms, pmf_ms = [], []

        def chain(params, sample, m, rng, size):
            chain_ms.append(m)
            return real_chain(params, sample, m, rng, size)

        def from_pmf(pmf, rng, size, ranks):
            pmf_ms.append(pmf.support_max)
            return real_from_pmf(pmf, rng, size, ranks)

        real_chain, real_from_pmf = intervals.sample_k_future, intervals._pmf_order_statistics
        monkeypatch.setattr(intervals, "sample_k_future", chain)
        monkeypatch.setattr(intervals, "_pmf_order_statistics", from_pmf)
        out = tmp_path / "x.csv"
        grid = f"{DP_MAX - 1}..{DP_MAX + 1}:3"
        code = main(["benchmark", "--suite", "est", "--est-dir", str(tmp_path), "--m-grid", grid,
                     "--samples", "100", "--seed", "5", "--out", str(out)])
        assert code == 0
        assert [int(r["m"]) for r in read_rows(out)] == [DP_MAX - 1, DP_MAX, DP_MAX + 1]
        assert sorted(pmf_ms) == [DP_MAX - 1, DP_MAX] and chain_ms == [DP_MAX + 1]


def _no_data_work(monkeypatch):
    """Make generating or fitting a dataset fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("a dataset was generated or fitted before the check")

    monkeypatch.setattr(cli, "generate", fail)
    monkeypatch.setattr(cli, "fit_empirical_bayes", fail)


def _no_pmf_pass(*args, **kwargs):
    raise AssertionError("a pmf pass ran before the check")


class TestExitCodePolicy:
    PMF_ARGV = ["pmf", "--n", "2", "--j", "1", "--alpha", "0.5", "--theta", "1", "--m", "2"]

    @pytest.mark.parametrize("exc,expected", [
        (DomainError("outside the domain"), 2),
        (SizeLimitError("table too large"), 2),
        (NumericalIntegrityError("did not converge"), 2),
        (ParseError("not a count", line=3), 2),
        (MethodUnavailableError("no such method here"), 2),
        (OSError("disk full"), 2),
        (DegenerateSampleError("a single observation"), 3),
    ])
    def test_package_and_io_errors(self, capsys, monkeypatch, exc, expected):
        def cmd(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_pmf", cmd)
        code, out, err = run_cli(capsys, *self.PMF_ARGV)
        assert code == expected and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and str(exc) in err
        assert ("degenerate sample" in err) == (expected == 3)

    def test_bug_keeps_its_traceback(self, monkeypatch):
        def cmd(args):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(cli, "cmd_pmf", cmd)
        with pytest.raises(ZeroDivisionError):
            main(self.PMF_ARGV)

    def test_failing_row_exit_2_without_partial_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "fit_empirical_bayes",
                            lambda sample: SimpleNamespace(alpha_hat=0.5, theta_hat=10.0))
        calls = []

        def compute_row(*args):
            calls.append(args)
            raise NumericalIntegrityError("row failed")

        monkeypatch.setattr(cli, "compute_row", compute_row)
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "benchmark", "--suite", "est", "--m-grid", "n..2n:2",
                                 "--out", str(out_csv))
        assert code == 2 and out == "" and err == "error: row failed\n"
        assert len(calls) == 1 and out_csv.read_bytes() == b""

    @pytest.mark.parametrize("argv", [
        ["benchmark", "--suite", "synthetic", "--out", "{tmp}/missing/x.csv"],
        ["benchmark", "--suite", "synthetic", "--out", "{tmp}"],
        ["benchmark", "--suite", "est", "--est-dir", "{tmp}/file.tsv", "--out", "{tmp}/x.csv"],
        ["fit", "--input", "{tmp}"],
    ])
    def test_unusable_path_exit_2_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "file.tsv").write_text("a\t1\n", encoding="utf-8")
        _no_data_work(monkeypatch)
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and str(tmp_path) in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--n", "977", "--j", "300", "--alpha", "0.54", "--theta", "26.67",
         "--m", "5", "--methods", "exact"],
        ["estimate", "--n", "40", "--j", "3", "--alpha", "0.999999", "--theta", "0.5",
         "--m", f"{DP_MAX}", "--methods", "exact,gaussian"],
        ["estimate", "--n", "977", "--j", "300", "--alpha", "0.54", "--theta", "26.67",
         "--m", "5", "--methods", "ml"],
        ["benchmark", "--suite", "synthetic", "--out", "{tmp}/x.csv"],
        ["benchmark", "--suite", "est", "--out", "{tmp}/x.csv"],
    ])
    def test_too_many_samples_exit_2_before_any_draw(self, capsys, tmp_path, monkeypatch, argv):
        """A sample count above the cap exits 2 instead of failing on a
        terabyte-sized allocation, before any pmf pass, and the benchmark
        rejects it before any dataset is generated or fitted."""
        _no_data_work(monkeypatch)
        monkeypatch.setattr(cli, "posterior_pmfs", _no_pmf_pass)
        before = samplers.draw_count()
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv),
                                 "--samples", "1000000000000")
        assert code == 2 and out == ""
        assert err == "error: at most 10000000 Monte Carlo samples, got 1000000000000\n"
        assert samplers.draw_count() == before
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["estimate", "--n", "40", "--j", "3", "--alpha", "0.5", "--theta", "1",
         "--m", "100000000000000000000", "--methods", "exact"],
        ["benchmark", "--suite", "est", "--m-grid", "1e30n..1e30n:1", "--out", "{tmp}/x.csv"],
    ])
    def test_m_above_binomial_limit_exit_2(self, capsys, tmp_path, monkeypatch, argv):
        """An exact interval at m above 2**63 - 1, the largest binomial
        count numpy draws, exits 2 with one error line before the chain
        draws anything, not with an OverflowError's traceback."""
        monkeypatch.setattr(cli, "fit_empirical_bayes",
                            lambda sample: SimpleNamespace(alpha_hat=0.5, theta_hat=10.0))
        before = samplers.draw_count()
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "2**63 - 1" in err
        assert samplers.draw_count() == before
        assert not (tmp_path / "x.csv").exists() or (tmp_path / "x.csv").read_bytes() == b""

    @pytest.mark.parametrize("m_list", ["1,x", "5,-3", "", "1.5"])
    def test_bad_m_list_exit_2(self, capsys, m_list):
        code, out, err = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", "5",
            "--m", m_list, "--methods", "gaussian",
        )
        assert code == 2 and out == "" and err.startswith("error:") and "m must be" in err

    def test_unknown_method_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", "5",
            "--m", "10", "--methods", "gaussian,magic",
        )
        assert code == 2 and out == "" and err.startswith("error:") and "magic" in err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--n", "100", "--j", "40", "--alpha", "0.5", "--theta", "10",
         "--m", "10", "--samples", "100"],
        ["benchmark", "--suite", "est", "--m-grid", "n..2n:2", "--out", "{tmp}/x.csv"],
        ["benchmark", "--suite", "synthetic", "--m-grid", "n..2n:2", "--out", "{tmp}/x.csv"],
    ])
    def test_negative_seed_exit_2_before_any_work(self, capsys, tmp_path, monkeypatch, argv):
        _no_data_work(monkeypatch)
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv),
                                 "--seed", "-1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "seed" in err
        assert not (tmp_path / "x.csv").exists()
