"""Seeded Monte Carlo over cycle types of uniform and Ewens(sigma) permutations.

Only cycle types are ever materialized, never full permutations.  Single
draws follow the constructions stated in the interface contract
(stick-breaking at sigma = 1, Chinese restaurant otherwise); the bulk
estimator uses the Feller coupling of the Ewens cycle counts (Arratia,
Barbour and Tavare, Logarithmic Combinatorial Structures, 2003, sec. 1.1):
independent Bernoulli cycle openings whose spacings are the cycle lengths.
It jumps from one opening to the next by inverting the cumulative hazard, so
a draw costs one exponential per cycle, and it is validated against the
single-draw constructions and exact laws in the tests.

Randomness: Philox counter-based generators.  estimate_pmf(seed, workers)
seeds one SeedSequence(seed) and spawns `workers` children in order;
substream w draws a contiguous block of the samples with generator
Philox(child_w).  The substreams run one after another in this process and
their tallies merge in order, so results are bit-reproducible for a fixed
(seed, samples, workers) triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exact_finite import normalized_window
from .limit_integrals import Interval

_ROW_CAP = 65_536  # draws advanced together; bounds the per-chunk arrays


@dataclass(frozen=True)
class CycleLengths:
    """Cycle type of one sampled permutation of [n]."""

    lengths: tuple
    n: int

    def __post_init__(self):
        if sum(self.lengths) != self.n:
            raise DomainError("cycle lengths must sum to n")


@dataclass(frozen=True)
class EstimateResult:
    """Tally of window cycle counts over repeated draws.

    counts[i] = number of draws with exactly i window cycles; pmf_hat and the
    binomial stderr sqrt(p(1-p)/samples) are per-entry.
    """

    counts: tuple
    samples: int
    pmf_hat: tuple
    stderr: tuple
    seed: int

    def __post_init__(self):
        if sum(self.counts) != self.samples:
            raise DomainError("counts must sum to samples")
        if abs(math.fsum(self.pmf_hat) - 1.0) > 1e-12:
            raise DomainError("pmf_hat must sum to 1")

    @property
    def mean(self):
        return math.fsum(i * p for i, p in enumerate(self.pmf_hat))

    @property
    def mean_stderr(self):
        m = self.mean
        var = math.fsum(i * i * p for i, p in enumerate(self.pmf_hat)) - m * m
        return math.sqrt(max(var, 0.0) / self.samples)


class _Fenwick:
    """Prefix-sum tree over integer weights with O(log n) weighted selection."""

    def __init__(self, cap):
        size = 1
        while size < cap:
            size <<= 1
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, i, v):
        i += 1
        while i <= self.size:
            self.tree[i] += v
            i += i & (-i)

    def search(self, pos):
        # smallest 0-based index whose inclusive prefix sum exceeds pos
        idx, bit = 0, self.size
        while bit:
            nxt = idx + bit
            if nxt <= self.size and self.tree[nxt] <= pos:
                pos -= self.tree[nxt]
                idx = nxt
            bit >>= 1
        return idx


def sample_cycle_lengths(n, sigma, gen):
    """One cycle type of an Ewens(sigma) permutation of [n]; sigma=1 is uniform.

    sigma = 1: stick-breaking, the cycle containing the smallest remaining
    element has length uniform on {1..m} when m elements remain.  Otherwise:
    Chinese restaurant, element j+1 opens a new cycle with probability
    sigma/(sigma+j), else joins an existing cycle with probability
    proportional to its current length (Fenwick-tree selection).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0 < sigma < math.inf:
        raise DomainError(f"need finite sigma > 0, got {sigma}")
    if sigma == 1:
        lengths = []
        m = n
        while m > 0:
            length = int(gen.integers(1, m + 1))
            lengths.append(length)
            m -= length
        return CycleLengths(tuple(lengths), n)
    tree = _Fenwick(n)
    sizes = []
    for j in range(n):
        if j == 0 or gen.random() * (sigma + j) < sigma:
            tree.add(len(sizes), 1)
            sizes.append(1)
        else:
            # a table weighted by size = a uniformly chosen seated element
            t = tree.search(int(gen.integers(0, j)))
            tree.add(t, 1)
            sizes[t] += 1
    return CycleLengths(tuple(sizes), n)


def _feller_tally(gen, draws, hazard, a, b, counts):
    # Feller coupling: position 1 opens a cycle and position i >= 2 opens one
    # with probability p_i = theta/(theta+i-1); the gaps between openings,
    # with a closing one at n+1, are the cycle lengths.  hazard[m-1] is
    # -sum_{i=2}^{m} log(1-p_i), so the next opening after j is the first m
    # whose hazard exceeds hazard[j-1] + Exp(1).
    n = len(hazard)
    for start in range(0, draws, _ROW_CAP):
        rows = min(_ROW_CAP, draws - start)
        pos = np.ones(rows, dtype=np.int64)
        hits = np.zeros(rows, dtype=np.int64)
        total = np.zeros(rows, dtype=np.int64)
        while len(pos):
            jump = hazard[pos - 1] + gen.standard_exponential(len(pos))
            nxt = np.searchsorted(hazard, jump, side="right") + 1
            length = np.minimum(nxt, n + 1) - pos
            hits += (length >= a) & (length <= b)
            total += length
            done = nxt > n
            assert np.all(total[done] == n)
            counts += np.bincount(hits[done], minlength=len(counts))
            live = ~done
            pos, hits, total = nxt[live], hits[live], total[live]


def estimate_pmf(n, iv: Interval, sigma, samples, seed, workers=1):
    """Empirical pmf of the number of cycles with length in [ceil(gamma*n), floor(delta*n)].

    Deterministic for fixed (seed, samples, workers); see the module notes for
    the substream layout.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0 < sigma < math.inf:
        raise DomainError(f"need finite sigma > 0, got {sigma}")
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    w = normalized_window(n, iv.gamma, iv.delta)
    # log1p(theta/(i-1)) = -log(1-p_i) stays finite where p_i rounds to 1
    hazard = np.concatenate(([0.0], np.cumsum(np.log1p(float(sigma) / np.arange(1, n)))))
    counts = np.zeros(n // w.a + 1, dtype=np.int64)
    base, rem = divmod(samples, workers)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(workers)):
        gen = np.random.Generator(np.random.Philox(child))
        _feller_tally(gen, base + (i < rem), hazard, w.a, w.b, counts)
    pmf_hat = counts / samples
    stderr = np.sqrt(pmf_hat * (1.0 - pmf_hat) / samples)
    return EstimateResult(
        counts=tuple(int(c) for c in counts),
        samples=samples,
        pmf_hat=tuple(float(x) for x in pmf_hat),
        stderr=tuple(float(x) for x in stderr),
        seed=seed,
    )
