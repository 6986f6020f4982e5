import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from unseen.datasets import (
    DatasetSpec,
    export_label_counts,
    generate,
    ingest,
)
from unseen.errors import DomainError, ParseError
from unseen.samplers import RngStream

from conftest import standin_freqs


def occupancy_expectation(probs: np.ndarray, n: int) -> tuple[float, float]:
    """Exact mean and variance of the distinct-label count of n iid draws:
    J = sum_i 1{label i seen}, with pairwise miss probabilities giving the
    second moment."""
    N = probs.size
    miss = (1.0 - probs) ** n
    mean = float(N - miss.sum())
    both_miss = (1.0 - probs[:, None] - probs[None, :]) ** n
    np.fill_diagonal(both_miss, 0.0)
    s1 = float(miss.sum())
    cross = N * (N - 1) - 2.0 * (N - 1) * s1 + float(both_miss.sum())
    second = mean + cross
    return mean, second - mean * mean


def dirichlet_multinomial_freqs(weights, n: int) -> dict:
    """Exact law of the sorted nonzero counts of DirMult(n; weights), by
    enumerating every count vector."""
    total = sum(weights)
    law = Counter()
    for counts in itertools.product(range(n + 1), repeat=len(weights)):
        if sum(counts) != n:
            continue
        log_p = math.lgamma(n + 1) + math.lgamma(total) - math.lgamma(n + total)
        for c, w in zip(counts, weights):
            log_p += math.lgamma(c + w) - math.lgamma(w) - math.lgamma(c + 1)
        law[tuple(sorted((c for c in counts if c), reverse=True))] += math.exp(log_p)
    return dict(law)


class TestSpecValidation:
    def test_kind_checks(self):
        with pytest.raises(DomainError):
            DatasetSpec(kind="zipfish", support_size=10, n=5)
        with pytest.raises(DomainError):
            DatasetSpec(kind="zipf", support_size=10, n=5)  # missing shape
        with pytest.raises(DomainError):
            DatasetSpec(kind="uniform", support_size=10, n=5, shape=2.0)
        with pytest.raises(DomainError):
            DatasetSpec(kind="polya", support_size=3, n=5, weights=(1.0, 2.0))


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = DatasetSpec(kind="zipf", support_size=50, shape=1.5, n=400)
        assert generate(spec, RngStream(7)) == generate(spec, RngStream(7))
        assert generate(spec, RngStream(7)) != generate(spec, RngStream(8))

    def test_uniform_single_label(self):
        spec = DatasetSpec(kind="uniform", support_size=1, n=9)
        s = generate(spec, RngStream(0))
        assert (s.j, s.freqs) == (1, (9,))

    def test_zipf_occupancy_matches_exact_expectation(self):
        """Realized distinct count vs the exact occupancy moments of the
        generating law (independent oracle; 5 sigma band), at a positive
        and at two negative shapes.  At shape -200, 301 ** 200 overflows a
        float, but the law is still well defined."""
        for N, shape, n in [(301, 2.0, 977), (301, -0.5, 977), (301, -200.0, 977)]:
            probs = np.exp(-shape * (np.log(np.arange(1.0, N + 1.0)) - math.log(N)))
            probs /= probs.sum()
            mean, var = occupancy_expectation(probs, n)
            spec = DatasetSpec(kind="zipf", support_size=N, shape=shape, n=n)
            js = [generate(spec, RngStream(s)).j for s in range(30)]
            assert abs(np.mean(js) - mean) <= 5.0 * np.sqrt(var / len(js)), shape

    def test_uniform_occupancy_matches_exact_expectation(self):
        N, n = 501, 2000
        probs = np.full(N, 1.0 / N)
        mean, var = occupancy_expectation(probs, n)
        js = [
            generate(DatasetSpec(kind="uniform", support_size=N, n=n), RngStream(s)).j
            for s in range(30)
        ]
        assert abs(np.mean(js) - mean) <= 5.0 * np.sqrt(var / len(js))

    def test_polya_sums(self):
        spec = DatasetSpec(
            kind="polya", support_size=5, n=100, weights=(2.0, 2.0, 5.0, 5.0, 5.0)
        )
        s = generate(spec, RngStream(3))
        assert s.n == 100 and 1 <= s.j <= 5

    @pytest.mark.parametrize("weights", [(0.5, 1.0, 2.0), (0.03, 0.05, 0.08)],
                             ids=["gamma", "below_0.1"])
    def test_polya_is_dirichlet_multinomial(self, weights):
        """20 000 sorted-frequency draws against the exact Dirichlet-multinomial
        law of the urn (chi-square, false-alarm rate 1e-6).  NumPy draws a
        Dirichlet whose weights are all below 0.1 by another algorithm."""
        n, draws = 6, 20_000
        law = dirichlet_multinomial_freqs(weights, n)
        spec = DatasetSpec(kind="polya", support_size=len(weights), n=n, weights=weights)
        seen = Counter(generate(spec, RngStream(23, r)).freqs for r in range(draws))
        assert set(seen) <= set(law)
        expected = np.array([draws * p for p in law.values()])
        assert expected.min() >= 5.0
        observed = np.array([seen[f] for f in law])
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, len(law) - 1) >= 1e-6, (stat, dict(seen))

    def test_polya_huge_weights_approach_uniform(self):
        """With enormous equal weights the urn's reinforcement is negligible,
        so the distinct-count law matches iid-uniform sampling (TV <= 0.05)."""
        N, n, reps = 10, 40, 200
        big = DatasetSpec(kind="polya", support_size=N, n=n, weights=(1e9,) * N)
        uni = DatasetSpec(kind="uniform", support_size=N, n=n)
        j_p = np.array([generate(big, RngStream(11, r)).j for r in range(reps)])
        j_u = np.array([generate(uni, RngStream(13, r)).j for r in range(reps)])
        hist_p = np.bincount(j_p, minlength=N + 1) / reps
        hist_u = np.bincount(j_u, minlength=N + 1) / reps
        tv = 0.5 * np.abs(hist_p - hist_u).sum()
        assert tv <= 0.05

    def test_polya_reinforcement_reduces_diversity(self):
        """Small weights concentrate mass: far fewer distinct labels than
        the uniform baseline."""
        N, n = 50, 500
        small = DatasetSpec(kind="polya", support_size=N, n=n, weights=(0.05,) * N)
        j_small = np.mean([generate(small, RngStream(17, r)).j for r in range(20)])
        uni = DatasetSpec(kind="uniform", support_size=N, n=n)
        j_uni = np.mean([generate(uni, RngStream(19, r)).j for r in range(20)])
        assert j_small < 0.6 * j_uni


class TestIngest:
    def test_labels_mode(self, tmp_path):
        p = tmp_path / "labels.txt"
        p.write_text("a\nb\na\n", encoding="utf-8")
        s = ingest(str(p), "labels")
        assert (s.n, s.j, s.freqs) == (3, 2, (2, 1))

    def test_label_count_mode(self, tmp_path):
        p = tmp_path / "counts.tsv"
        p.write_text("x\t5\n", encoding="utf-8")
        s = ingest(str(p), "label_count")
        assert (s.n, s.j, s.freqs) == (5, 1, (5,))

    def test_duplicate_labels_accumulate(self, tmp_path):
        p = tmp_path / "counts.tsv"
        p.write_text("x\t5\nx\t2\ny\t1\n", encoding="utf-8")
        s = ingest(str(p), "label_count")
        assert (s.n, s.j, s.freqs) == (8, 2, (7, 1))

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("x\t5\noops\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            ingest(str(p), "label_count")

    def test_nonpositive_count_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("x\t0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ingest(str(p), "label_count")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="no records"):
            ingest(str(p), "labels")

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"a\xff\xfe")
        with pytest.raises(ParseError, match="not UTF-8"):
            ingest(str(p))

    def test_round_trip(self, tmp_path):
        s = standin_freqs(2586, 1825)
        path = tmp_path / "est.tsv"
        export_label_counts(s, str(path))
        back = ingest(str(path), "label_count")
        assert (back.n, back.j, back.freqs) == (s.n, s.j, s.freqs)

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "dos.tsv"
        p.write_bytes(b"x\t3\r\ny\t1\r\n")
        s = ingest(str(p), "label_count")
        assert (s.n, s.j, s.freqs) == (4, 2, (3, 1))


class TestStandinFreqs:
    @pytest.mark.parametrize("n,j", [(2586, 1825), (715, 460), (10, 10), (10, 1), (7, 3)])
    def test_exact_counts(self, n, j):
        s = standin_freqs(n, j)
        assert (s.n, s.j) == (n, j)

    def test_power_law_shape(self):
        s = standin_freqs(1000, 600)
        assert s.freqs[0] > 10 * s.freqs[-1]
