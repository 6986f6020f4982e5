"""Synthetic dataset generation (Zipf, Polya urn, uniform) and frequency
file ingestion/export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, check_count, check_positive
from .model import SampleSummary
from .samplers import RngStream, _count

_KINDS = ("zipf", "polya", "uniform")


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic dataset of n draws over N labels."""

    kind: str
    support_size: int
    n: int
    shape: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown dataset kind {self.kind!r}")
        check_count(self.support_size, 1, "support_size")
        check_count(self.n, 1, "n")
        if (self.shape is not None) != (self.kind == "zipf"):
            raise DomainError("shape must be given exactly for zipf datasets")
        if self.shape is not None and not math.isfinite(self.shape):
            raise DomainError(f"shape must be finite, got {self.shape!r}")
        if (self.weights is not None) != (self.kind == "polya"):
            raise DomainError("weights must be given exactly for polya datasets")
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) != self.support_size:
                raise DomainError("weights length must equal support_size")
            for x in w:
                check_positive(x, "every Polya weight")


def generate(spec: DatasetSpec, rng: RngStream) -> SampleSummary:
    """Draw a sample per the spec from `rng` and return its (n, j, freqs)
    summary: the counts of one multinomial draw of n labels from the kind's
    label probabilities p.

    zipf: p proportional to rank^(-shape), ranks 1..N (the 0-indexed
    support in the source descriptions only relabels the categories, which
    the summary ignores).
    polya: p ~ Dirichlet(weights), so the counts are Dirichlet-multinomial,
    the law of a Polya urn started from the weights and reinforced by one
    ball per draw (Blackwell & MacQueen 1973).
    uniform: p = 1/N for every label.
    """
    gen = rng.generator()
    N, n = spec.support_size, spec.n
    if spec.kind == "zipf":
        rank = np.arange(1, N + 1, dtype=float)
        # a negative shape weighs the last rank most, so scale the ranks by
        # N there: (rank / N) ** -shape <= 1 cannot overflow
        p = rank ** (-spec.shape) if spec.shape >= 0 else (rank / N) ** (-spec.shape)
        p /= p.sum()
    elif spec.kind == "uniform":
        p = np.full(N, 1.0 / N)
    else:
        p = gen.dirichlet(spec.weights)
        _count(N)
    counts = gen.multinomial(n, p)
    _count(n)
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

