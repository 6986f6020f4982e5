"""Synthetic dataset generation (Zipf, Polya urn, uniform) and frequency
file ingestion/export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .model import SampleSummary
from .samplers import RngStream, _count

_KINDS = ("zipf", "polya", "uniform")


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset of n draws over N labels."""

    kind: str
    support_size: int
    n: int
    seed: int = 0
    shape: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown dataset kind {self.kind!r}")
        if self.support_size < 1 or self.n < 1:
            raise DomainError("support_size and n must be >= 1")
        if (self.shape is not None) != (self.kind == "zipf"):
            raise DomainError("shape must be given exactly for zipf datasets")
        if (self.weights is not None) != (self.kind == "polya"):
            raise DomainError("weights must be given exactly for polya datasets")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) != self.support_size:
                raise DomainError("weights length must equal support_size")
            if any(x <= 0 for x in w):
                raise DomainError("all Polya weights must be positive")


def generate(spec: DatasetSpec, rng: RngStream | None = None) -> SampleSummary:
    """Draw a sample per the spec and return its (n, j, freqs) summary.

    zipf: n iid draws with mass proportional to rank^(-shape), ranks 1..N
    (the 0-indexed support in the source descriptions only relabels the
    categories, which the summary ignores).
    polya: a sequentially reinforced urn started from the given weights,
    distributionally identical to Dirichlet-multinomial sampling.
    uniform: n iid draws over N equiprobable labels.
    """
    if rng is None:
        rng = RngStream(spec.seed)
    gen = rng.generator()
    N, n = spec.support_size, spec.n
    if spec.kind == "zipf":
        ranks = np.arange(1, N + 1, dtype=float)
        p = ranks ** (-spec.shape)
        p /= p.sum()
        counts = gen.multinomial(n, p)
        _count(n)
    elif spec.kind == "uniform":
        counts = gen.multinomial(n, np.full(N, 1.0 / N))
        _count(n)
    else:
        weights = np.array(spec.weights, dtype=float)
        counts = np.zeros(N, dtype=np.int64)
        total = weights.sum()
        cum = np.cumsum(weights)
        for t in range(n):
            u = gen.random() * (total + t)
            _count(1)
            idx = int(np.searchsorted(cum, u, side="right"))
            idx = min(idx, N - 1)
            counts[idx] += 1
            cum[idx:] += 1.0
    freqs = counts[counts > 0]
    return SampleSummary.from_freqs(freqs)


def ingest(path: str, mode: str = "labels") -> SampleSummary:
    """Read a frequency file.

    labels mode: one species label per line; duplicate labels accumulate.
    label_count mode: "label<TAB>count" with positive integer counts.
    """
    if mode not in ("labels", "label_count"):
        raise DomainError(f"unknown ingest mode {mode!r}")
    counts: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                if mode == "labels":
                    counts[line] = counts.get(line, 0) + 1
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ParseError("expected 'label<TAB>count'", line=lineno)
                label, count_str = parts
                try:
                    c = int(count_str)
                except ValueError:
                    raise ParseError(f"count {count_str!r} is not an integer", line=lineno)
                if c < 1:
                    raise ParseError(f"count must be positive, got {c}", line=lineno)
                counts[label] = counts.get(label, 0) + c
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not UTF-8 text", line=None) from None
    if not counts:
        raise ParseError(f"no records found in {path}", line=None)
    return SampleSummary.from_freqs(counts.values())


def export_label_counts(sample: SampleSummary, path: str) -> None:
    """Write a label_count file (synthetic sNNN labels) that ingests back
    to the same (n, j, sorted freqs)."""
    if sample.freqs is None:
        raise DomainError("exporting label counts needs the sample's frequencies")
    with open(path, "w", encoding="utf-8") as fh:
        for i, f in enumerate(sample.freqs):
            fh.write(f"s{i:06d}\t{f}\n")


def standin_freqs(n: int, j: int, shape: float = 1.3) -> SampleSummary:
    """Deterministic power-law-profiled frequencies with exactly j species
    summing to exactly n; used to build stand-in fixture files whose (n, j)
    match published datasets that are not distributed."""
    if not 1 <= j <= n:
        raise DomainError("need 1 <= j <= n")
    ranks = np.arange(1, j + 1, dtype=float)
    profile = ranks ** (-shape)
    extra = n - j
    alloc = np.floor(profile / profile.sum() * extra).astype(np.int64)
    remainder = extra - int(alloc.sum())
    # largest-remainder: hand leftover units to the largest fractional parts
    frac = profile / profile.sum() * extra - alloc
    order = np.argsort(-frac, kind="stable")
    alloc[order[:remainder]] += 1
    return SampleSummary.from_freqs(alloc + 1)
