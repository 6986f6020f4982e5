"""Smoke test of the benchmark itself, at a tiny size (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SEED = 3

_K = "samplers.sample_k_future"
_SAMPLED = [
    f"{_K}.calls", f"{_K}.busy_s", f"{_K}.steps", f"{_K}.draws", f"{_K}.draws_per_step",
    f"{_K}.ns_per_step", "samplers.sample_ml_limit.busy_s", "samplers.sample_ml_limit.draws",
    "samplers.sample_mittag_leffler.busy_s", "samplers.calls", "samplers.draws",
    "intervals.exact_interval.self_s", "intervals.ml_interval.self_s", "intervals.coverage.calls",
    "cli.compute_row.calls", "cli.compute_row.busy_s",
]
_ANALYTIC = [
    "model.posterior_mean.calls", "model.posterior_mean.busy_s",
    "combinatorics.log_rising_factorial.calls", "combinatorics.log_rising_factorial.busy_s",
    "asymptotics.gaussian_interval.calls", "asymptotics.gaussian_interval.busy_s",
]
_FIT = [
    "empirical_bayes.fit_empirical_bayes.calls", "empirical_bayes.fit_empirical_bayes.busy_s",
    "empirical_bayes.fit_empirical_bayes.loglik_calls", "datasets.generate.busy_s",
]
# Per-layer metrics that must be nonzero on each workload at the tiny size.
APPLIES = {
    "coverage_sweep": _SAMPLED + _ANALYTIC + _FIT + [
        f"{_K}.bernoulli.ns_per_step", "cli.pool.efficiency"],
    "large_m": _SAMPLED + _ANALYTIC + _FIT + [
        f"{_K}.jump_calls", f"{_K}.bernoulli.ns_per_step",
        f"{_K}.est_jump.ns_per_step", f"{_K}.est_jump.draws_per_step",
        f"{_K}.synthetic_jump.ns_per_step", f"{_K}.synthetic_jump.draws_per_step",
        "datasets.ingest.busy_s"],
    "analytic": _ANALYTIC + _FIT + [
        "model.posterior_pmf_dp.calls", "model.posterior_pmf_dp.busy_s",
        "model.posterior_pmf_dp.cells", "model.posterior_pmf_dp.ns_per_cell",
        "model.posterior_pmf_closed.busy_s", "combinatorics.GfcTable.busy_s",
        "datasets.ingest.busy_s"],
}


def _check_result(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)


def _load_spans(path):
    keys = ("name", "start", "end", "parent", "request", "draws", "loglik_calls")
    with open(run.ROOT / path, encoding="utf-8") as fh:
        return [[json.loads(line)[k] for k in keys] for line in fh]


def test_metric_names():
    names = [m["name"] for part in ("end_to_end", "per_layer") for m in SPEC[part]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def test_end_to_end_tiny():
    for name in run.WORKLOAD_NAMES:
        result, info = run.run(name, SEED, 0.0, False, workloads.TINY)
        _check_result(result, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in result["metrics"].values()), (name, result)
        assert info["requests"] == result["attempted"]


def test_traced_tiny():
    for name in run.WORKLOAD_NAMES:
        result, info = run.run(name, SEED, 0.0, True, workloads.TINY)
        _check_result(result, SPEC["per_layer"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        missing = [k for k in APPLIES[name] if not values[k] > 0]
        assert not missing, (name, missing)
        if name == "analytic":
            assert values["samplers.calls"] == 0 and values["samplers.draws"] == 0
        if name == "large_m":
            assert values[f"{_K}.est_jump.draws_per_step"] < 1
            assert values[f"{_K}.synthetic_jump.draws_per_step"] < 1
        assert info["foreign_thread_calls"] == 0

        spans = _load_spans(info["spans_file"])
        assert len(spans) == info["spans"] > 0
        for i, (_, start, end, parent, request, _, _) in enumerate(spans):
            assert start <= end
            if parent >= 0:
                p = spans[parent]
                assert parent < i and p[4] == request
                assert p[1] <= start and end <= p[2], (name, spans[parent], spans[i])
        selfs = tracing.self_times(spans)
        assert min(selfs) >= -1e-9
        attributed = sum(s for s, rec in zip(selfs, spans) if rec[4] is not None)
        assert info["traced_unattributed_s"] >= -1e-9
        assert abs(attributed + info["traced_unattributed_s"] - info["traced_wall_s"]) <= 1e-6


def test_refuses_without_program():
    bare = run.OUTDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        out = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "analytic", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    for fn in (test_metric_names, test_end_to_end_tiny, test_traced_tiny,
               test_refuses_without_program):
        fn()
        print(f"ok {fn.__name__}")
