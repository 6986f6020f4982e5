import csv
import io
import json

import pytest

from unseen import cli, samplers
from unseen.cli import CSV_HEADER, _parse_m_grid, main
from unseen.datasets import export_label_counts, standin_freqs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMGrid:
    def test_n_relative(self):
        grid = _parse_m_grid("0..5n", 100)
        assert grid[0] == 0 and grid[-1] == 500 and len(grid) == 50

    def test_absolute_with_points(self):
        assert _parse_m_grid("10..20:3", 7) == [10, 15, 20]

    def test_bare_n(self):
        assert _parse_m_grid("n..2n:2", 40) == [40, 80]

    def test_bad_spec(self):
        from unseen.errors import DomainError

        with pytest.raises(DomainError):
            _parse_m_grid("5", 10)


class TestFitCommand:
    def test_json_schema(self, capsys, tmp_path):
        p = tmp_path / "counts.tsv"
        export_label_counts(standin_freqs(400, 180), str(p))
        code, out, _ = run_cli(capsys, "fit", "--input", str(p), "--mode", "label_count",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"alpha", "theta", "loglik", "flags"}

    def test_csv_format(self, capsys, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("a\nb\na\nc\nd\nd\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "fit", "--input", str(p), "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alpha", "theta", "loglik", "flags"]

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

    @pytest.mark.parametrize("option,value", [
        ("--theta-max", "0"),
        ("--theta-max", "1e-5"),
        ("--theta-max", "inf"),
        ("--alpha-step", "0"),
        ("--alpha-step", "nan"),
        ("--alpha-step", "-0.1"),
        ("--alpha-step", "1"),
    ])
    def test_bad_numeric_option_exit_2(self, capsys, tmp_path, option, value):
        p = tmp_path / "labels.txt"
        p.write_text("a\nb\na\nc\nd\nd\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--input", str(p), option, value)
        assert code == 2 and err.startswith("error:") and out == ""

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

    def test_closed_form_overflow_exit_2(self, capsys):
        # exp of the alpha = 0 weights overflows at theta = 1e200
        code, out, err = run_cli(
            capsys, "pmf", "--n", "20", "--j", "10", "--alpha", "0", "--theta", "1e200",
            "--m", "30", "--method", "closed",
        )
        assert code == 2 and err.startswith("error:") and "overflow" in err and out == ""


class TestBenchmarkCommand:
    def test_synthetic_suite_shape_and_determinism(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNSEEN_THREADS", "2")
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

    def test_worker_count_does_not_change_bytes(self, capsys, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "3"):
            monkeypatch.setenv("UNSEEN_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            main(["benchmark", "--suite", "synthetic", "--m-grid", "n..n:1",
                  "--samples", "200", "--seed", "5", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_est_suite_runs_on_fixtures(self, capsys, tmp_path):
        out = tmp_path / "est.csv"
        code = main(["benchmark", "--suite", "est", "--m-grid", "n..n:1",
                     "--samples", "200", "--seed", "5", "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text(encoding="utf-8").splitlines()))
        assert len(rows) == 1 + 5
        names = {r[0] for r in rows[1:]}
        assert "tomato_flower" in names

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
        """Rows with m >= n keep Gaussian coverage >= 93 on at least 90%
        of the grid."""
        out = tmp_path / "cov.csv"
        code = main(["benchmark", "--suite", "synthetic", "--m-grid", "n..5n:3",
                     "--samples", "2000", "--seed", "11", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [dict(zip(CSV_HEADER, r)) for r in list(csv.reader(lines))[1:]]
        covs = [float(r["gauss_cov"]) for r in rows if int(r["m"]) >= int(r["n"])]
        assert len(covs) == 12
        ok = sum(c >= 93.0 for c in covs)
        assert ok >= 0.9 * len(covs), covs
