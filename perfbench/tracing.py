"""Span tracing of `unseen`'s layers from outside the program.

`Tracer.install` replaces every public module-level function of the layer
modules with a timing wrapper, at every module attribute that names it, so
calls resolved through an import site (for example `unseen.cli.exact_interval`
or `unseen.intervals.sample_k_future`) are seen as well as calls at the
definition site.  Spans are kept in memory and written as JSON lines when
the run ends.  The traced run must be serial: `samplers.draw_count()` is a
process-wide counter, so per-span draw deltas are exact only without worker
threads, and calls arriving from another thread are counted, not traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter

LAYERS = ("cli", "datasets", "empirical_bayes", "model", "combinatorics",
          "samplers", "intervals", "asymptotics")

# Spans whose work size is read from the call's arguments.
_SIZES = {
    "samplers.sample_k_future": lambda a: ("steps", a["m"] * (a.get("size") or 1)),
    "model.posterior_pmf_dp": lambda a: ("cells", a["m"] * a["m"] / 2.0),
}


class Tracer:
    """Records spans [name, start, end, parent, request, draws, loglik, size]."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.foreign_calls = 0
        self.loglik_calls = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        self._draw_count = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        samplers = importlib.import_module("unseen.samplers")
        self._draw_count = samplers.draw_count
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"unseen.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__ and obj is not self._draw_count):
                    wrappers[obj] = self._span_wrapper(obj, f"{layer}.{attr}")
        # EB likelihood evaluations are counted, not spanned: ~33k per fit.
        eb = importlib.import_module("unseen.empirical_bayes")
        wrappers[eb._loglik] = self._counting_wrapper(eb._loglik)
        for mod in [m for name, m in sys.modules.items()
                    if name == "unseen" or name.startswith("unseen.")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        gfc = importlib.import_module("unseen.combinatorics").GfcTable
        self._patch(gfc, "__init__", self._span_wrapper(gfc.__init__, "combinatorics.GfcTable"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, fn, name):
        spans, stack, draw_count = self.spans, self._stack, self._draw_count
        size_of = _SIZES.get(name)
        sig = inspect.signature(fn) if size_of else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._owner:
                tracer.foreign_calls += 1
                return fn(*args, **kwargs)
            size = None
            if size_of is not None:
                bound = sig.bind(*args, **kwargs)
                size = size_of(bound.arguments)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request,
                   draw_count(), tracer.loglik_calls, size]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                rec[5] = draw_count() - rec[5]
                rec[6] = tracer.loglik_calls - rec[6]

        return wrapper

    def _counting_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.loglik_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "request", "draws", "loglik_calls", "size")
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                row = dict(zip(keys, rec))
                row["id"] = i
                if rec[7] is not None:
                    row["size"] = {rec[7][0]: rec[7][1]}
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its children.  The
    traced run is serial, so children of one span never overlap."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name, so busy time of a
    recursive or re-entrant layer is not counted twice."""
    flags = []
    for rec in spans:
        p = rec[3]
        while p >= 0 and spans[p][0] != rec[0]:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


def attribution(spans, windows) -> tuple[float, float]:
    """(unattributed, wall) over the request windows: the wall is the summed
    window time, and the unattributed remainder is the part of it no
    top-level span covers, so self times plus the remainder add up to the
    wall.  Spans outside every window (request None) are ignored."""
    wall = sum(b - a for a, b in windows)
    top = sum(rec[2] - rec[1] for rec in spans if rec[3] < 0 and rec[4] is not None)
    return wall - top, wall


def layer_metrics(spans, setup_window, windows, passes: int, groups: dict) -> dict:
    """Per-layer metrics per set-up plus per pass: spans of the traced set-up
    count once, spans of the timed passes are divided by `passes`."""
    selfs, outer = self_times(spans), outermost(spans)
    top = {True: 0.0, False: 0.0}  # top-level span time in set-up / in passes
    acc: dict = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, rec in enumerate(spans):
        name, start, end, _, request, draws, loglik, size = rec
        if request is None:
            continue
        in_setup = request == "setup"
        w = 1.0 if in_setup else 1.0 / passes
        dur = end - start
        if rec[3] < 0:
            top[in_setup] += dur
        add(f"{name}.calls", w)
        add(f"{name}.self_s", w * selfs[i])
        add(f"{name}.draws", w * draws)
        add(f"{name}.loglik_calls", w * loglik)
        if outer[i]:
            add(f"{name}.busy_s", w * dur)
        if size is not None:
            add(f"{name}.{size[0]}", w * size[1])
        if name.startswith("samplers."):
            add("samplers.calls", w)
        if name == "samplers.sample_k_future" and size[1] > 0:
            jump = draws < size[1]
            add(f"{name}.jump_calls", w * jump)
            kind = f"{groups.get(request, 'other')}_jump" if jump else "bernoulli"
            add(f"{name}.{kind}.steps", w * size[1])
            add(f"{name}.{kind}.draws", w * draws)
            add(f"{name}.{kind}.busy_s", w * dur)
    k = "samplers.sample_k_future"
    for prefix in [k] + [f"{k}.{kind}" for kind in ("bernoulli", "est_jump", "synthetic_jump")]:
        steps = acc.get(f"{prefix}.steps", 0.0)
        if steps:
            acc[f"{prefix}.draws_per_step"] = acc.get(f"{prefix}.draws", 0.0) / steps
            acc[f"{prefix}.ns_per_step"] = 1e9 * acc.get(f"{prefix}.busy_s", 0.0) / steps
    dp = "model.posterior_pmf_dp"
    if acc.get(f"{dp}.cells"):
        acc[f"{dp}.ns_per_cell"] = 1e9 * acc[f"{dp}.busy_s"] / acc[f"{dp}.cells"]
    pass_wall = sum(b - a for a, b in windows)
    acc["trace.unattributed_s"] = (setup_window[1] - setup_window[0] - top[True]
                                   + (pass_wall - top[False]) / passes)
    return acc
