"""Benchmark of the `unseen` package: one closed-loop client per workload.

    python3 perfbench/run.py --workload {coverage_sweep,large_m,analytic} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ./src; the
benchmark's own outputs go to ./.perfbench_out.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run instead.  The line before it is the run's provenance record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench_out"
MAX_MESSAGES = 20
WORKLOAD_NAMES = ("coverage_sweep", "large_m", "analytic")

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import unseen.cli; print(time.perf_counter() - t)"
)


def load_program() -> None:
    """Import `unseen` from this checkout's src, and nowhere else."""
    if not (SRC / "unseen" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'unseen'}")
    sys.path.insert(0, str(SRC))
    import unseen

    if Path(unseen.__file__).resolve().parent != SRC / "unseen":
        raise SystemExit(f"error: imported unseen from {unseen.__file__}, not {SRC}")


def import_seconds() -> float:
    """Time to import the program in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def worker_count() -> int:
    """The CLI's documented pool size: UNSEEN_THREADS, default 4, capped at nproc."""
    env = os.environ.get("UNSEEN_THREADS", "")
    return max(1, min(int(env) if env else 4, os.cpu_count() or 1))


def tail_latency(loop) -> tuple[float, float]:
    """(percentile, seconds): the highest percentile with at least 10 of each
    pass's requests beyond it, which keeps it independent of how many passes
    fit in the run.  A pass of fewer than 11 requests has no such percentile;
    the tail is then each pass's slowest request, median over passes
    (reported as percentile 100)."""
    n = loop.per_pass
    if n < 11:
        worst = [max(loop.latencies[i:i + n]) for i in range(0, len(loop.latencies), n)]
        return 100.0, statistics.median(worst)
    q = float(np.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)
    return q, float(np.percentile(loop.latencies, q))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defect_failures: int = 0
    known_defects_passing: set = field(default_factory=set)
    messages: list = field(default_factory=list)

    def record(self, wl, req, out, err, draws: int) -> None:
        if err is not None:
            problems = [f"{req.rid}: raised {err!r}"]
        else:
            try:
                problems = req.check(out)
            except Exception as exc:  # a malformed output must count, not stop the run
                problems = [f"{req.rid}: check raised {exc!r}"]
        if wl.draw_free and draws:
            problems.append(f"{req.rid}: drew {draws} variates in a draw-free request")
        self.attempted += 1
        if not problems:
            if req.known_defect:
                self.known_defects_passing.add(req.rid)
            return
        if req.known_defect:
            self.known_defect_failures += 1
            return
        self.failed += 1
        room = MAX_MESSAGES - len(self.messages)
        self.messages.extend(problems[:max(room, 0)])


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    pass_wall: list = field(default_factory=list)
    pass_cpu: list = field(default_factory=list)
    draws: int = 0
    groups: dict = field(default_factory=dict)
    per_pass: int = 0

    @property
    def passes(self) -> int:
        return len(self.pass_wall)


def run_loop(wl, seconds: float, tally: Tally, draw_count, tracer=None) -> Loop:
    """Closed loop, one client: whole passes over the workload's requests
    until their summed wall time reaches `seconds` (at least one pass).
    Only the calls into the program are timed; checks run between them."""
    loop = Loop()
    while True:
        wall = cpu = 0.0
        reqs = wl.requests(loop.passes)
        loop.per_pass = len(reqs)
        for req in reqs:
            loop.groups[req.rid] = req.group
            d0 = draw_count()
            if tracer is not None:
                tracer.request = req.rid
            c0, t0 = process_time(), perf_counter()
            try:
                out, err = req.call(), None
            except Exception as exc:  # counted as a failed operation
                out, err = None, exc
            t1, c1 = perf_counter(), process_time()
            if tracer is not None:
                tracer.request = None
            draws = draw_count() - d0
            loop.draws += draws
            loop.latencies.append(t1 - t0)
            loop.windows.append((t0, t1))
            wall += t1 - t0
            cpu += c1 - c0
            wl.observe(req.rid, draws, t1 - t0)
            tally.record(wl, req, out, err, draws)
        loop.pass_wall.append(wall)
        loop.pass_cpu.append(cpu)
        if sum(loop.pass_wall) >= seconds:
            return loop


def measure(wl, seconds: float, tally: Tally, draw_count) -> tuple[dict, dict]:
    """Untraced run with the default worker count: end-to-end metrics."""
    os.environ.pop("UNSEEN_THREADS", None)
    setups = []
    for _ in range(wl.sizes.setup_reps):
        imp = import_seconds()
        t0 = perf_counter()
        wl.set_up()
        setups.append(imp + perf_counter() - t0)
    wl.prepare_checks()
    loop = run_loop(wl, seconds, tally, draw_count)
    q, tail = tail_latency(loop)
    metrics = {
        # per-pass medians: a slow spell of the host spoils one pass, not the run
        "throughput_rps": (loop.per_pass * wl.units_per_request()
                           / statistics.median(loop.pass_wall)),
        "latency_p50_ms": 1e3 * statistics.median(loop.latencies),
        "latency_tail_ms": 1e3 * tail,
        "cpu_s": statistics.median(loop.pass_cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    info = {"passes": loop.passes, "requests_per_pass": loop.per_pass,
            "latency_samples": len(loop.latencies), "latency_tail_percentile": q,
            "setup_reps_s": setups, "workers": worker_count()}
    return metrics, info


def traced(wl, seconds: float, tally: Tally, draw_count) -> tuple[dict, dict]:
    """Traced run: untraced reference passes with the default worker count
    for half of `seconds`, then a traced set-up and traced passes with
    UNSEEN_THREADS=1 for the other half.  Layer metrics are per set-up plus
    per pass."""
    from tracing import Tracer, attribution, layer_metrics

    os.environ.pop("UNSEEN_THREADS", None)
    wl.set_up()
    wl.prepare_checks()
    ref = run_loop(wl, seconds / 2, tally, draw_count)
    workers = worker_count()
    os.environ["UNSEEN_THREADS"] = "1"
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = "setup"
        t0 = perf_counter()
        wl.set_up()
        setup_window = (t0, perf_counter())
        tracer.request = None
        loop = run_loop(wl, seconds / 2, tally, draw_count, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, setup_window, loop.windows, loop.passes, loop.groups)
    metrics["samplers.draws"] = loop.draws / loop.passes
    all_passes = ref.passes + loop.passes
    metrics["checks.known_defect_failures"] = tally.known_defect_failures / all_passes
    if wl.name == "coverage_sweep":
        metrics["cli.pool.efficiency"] = sum(ref.pass_cpu) / (sum(ref.pass_wall) * workers)
    else:
        # no pool: traced and untraced passes run the same serial calls
        ratio = (sum(loop.pass_wall) / loop.passes) / (sum(ref.pass_wall) / ref.passes)
        metrics["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    spans_path = OUTDIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write_jsonl(str(spans_path))
    unattributed, wall = attribution(tracer.spans, [setup_window] + loop.windows)
    info = {"passes": loop.passes, "requests_per_pass": loop.per_pass,
            "reference_passes": ref.passes, "workers": workers,
            "traced_workers": 1, "foreign_thread_calls": tracer.foreign_calls,
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
            "traced_wall_s": wall, "traced_unattributed_s": unattributed}
    return metrics, info


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "unseen").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args, env_threads) -> dict:
    import mpmath
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(), "UNSEEN_THREADS": env_threads,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload; returns (result line, provenance fields)."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    OUTDIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, sizes or workloads.FULL, str(OUTDIR))
    samplers = sys.modules["unseen.samplers"]
    tally = Tally()
    body = traced if trace else measure
    caller_threads = os.environ.get("UNSEEN_THREADS")
    try:
        values, info = body(wl, seconds, tally, samplers.draw_count)
    finally:
        os.environ.pop("UNSEEN_THREADS", None)
        if caller_threads is not None:
            os.environ["UNSEEN_THREADS"] = caller_threads
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    if not trace:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    info.update(wl.provenance())
    info.update(requests=tally.attempted, failed=tally.failed,
                known_defect_failures=tally.known_defect_failures,
                known_defects_passing=sorted(tally.known_defects_passing),
                failures=tally.messages)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env_threads = os.environ.get("UNSEEN_THREADS")
    load_program()
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": {**provenance(args, env_threads), **info}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
