"""Seeded Monte Carlo over cycle types of uniform and Ewens(sigma) permutations.

Only cycle types are ever materialized, never full permutations.  Single
draws break sticks, at every sigma: the smallest remaining element's cycle
takes a Beta(1, sigma) share of the m elements left, thinned by a binomial,
the finite-n form of GEM(sigma) stick-breaking (Pitman, Combinatorial
Stochastic Processes, 2006, ch. 3), so a draw costs two variates per cycle.
The bulk estimator uses the Feller coupling of the Ewens cycle counts
(Arratia, Barbour and Tavare, Logarithmic Combinatorial Structures, 2003,
sec. 1.1): independent Bernoulli cycle openings whose spacings are the cycle
lengths.  It walks down from the closing opening at n+1 by inverting the
cumulative hazard and stops at the first opening below max(a, 2), a being
the window's shortest length, so a draw costs one exponential per opening it
reaches.  The inversion reads a guide table, the running count of the
bucketed hazard built by one bincount.  A round steps every live walk at
once: the first starts every walk at n+1 and gathers nothing, later ones
gather by take; a step counts in the window by one unsigned compare of its
length less a, and one mask, the walks still at or above the stop,
compresses out the finished tallies and the survivors.  The two routes
share no code, and the tests check each against the other and against
exact laws.

Randomness: Philox counter-based generators.  estimate_pmf(seed) draws every
sample from one generator, Philox(SeedSequence(seed, spawn_key=(0,))), so
results are bit-reproducible for a fixed (seed, samples) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_int
from .exact_finite import DP_TABLE_MAX_BYTES, normalized_window
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
    binomial stderr sqrt(p(1-p)/samples) are per-entry; variates is the
    number of exponentials the draws took.
    """

    counts: tuple
    samples: int
    pmf_hat: tuple
    stderr: tuple
    seed: int
    variates: int = 0

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


def sample_cycle_lengths(n, sigma, gen):
    """One cycle type of an Ewens(sigma) permutation of [n]; sigma=1 is uniform.

    Stick-breaking, a cycle per step: when m elements remain, the cycle of
    the smallest has length 1 + Binomial(m - 1, W), W ~ Beta(1, sigma) drawn
    as 1 - U^(1/sigma), the law of the first Chinese-restaurant table
    (uniform on {1..m} at sigma = 1).  n - 1 must fit numpy's binomial, so
    n above 2^63 is refused.
    """
    require_int(n=n)
    if not 1 <= n <= 2**63:
        raise DomainError(f"need 1 <= n <= 2^63, got {n}")
    if not 0 < sigma < math.inf:
        raise DomainError(f"need finite sigma > 0, got {sigma}")
    lengths, m = [], n
    while m:
        stick = -math.expm1(math.log1p(-gen.random()) / sigma)  # random() may be 0.0
        lengths.append(1 + int(gen.binomial(m - 1, stick)))
        m -= lengths[-1]
    return CycleLengths(tuple(lengths), n)


def _hazard_inverse(hazard):
    # x -> np.searchsorted(hazard, x, side="left") for x <= hazard[-1], by a guide table (Chen
    # and Asau, 1974; Devroye, 1986, sec. III.2.4): guide[j] counts the keys int(hazard*inv_h)
    # below j; key is monotone, so spread steps from guide[key(x)] reach the answer, never pass it.
    m, h = 4 * len(hazard), float(hazard[-1])  # h = 0 at n = 1
    inv_h = (m - 1) / h if h > 0 else 1.0
    if inv_h == math.inf:  # h subnormal: one bucket would cost n compares per lookup
        raise DomainError(f"estimate_pmf for n = {len(hazard)}: hazard total {h!r} puts the "
                          f"bucket scale (4n - 1)/h past float64; raise sigma")
    # guide[j] - guide[j-1] counts the keys equal to j - 1, at most m - 1, so a running sum
    # of bincount(keys + 1) over m + 1 entries is the guide, in O(n)
    keys = np.multiply(hazard, inv_h, out=np.empty(len(hazard), np.int64), casting="unsafe")
    keys += 1
    guide = np.bincount(keys, minlength=m + 1)
    spread = int(guide.max())
    np.cumsum(guide, out=guide)

    def invert(x):
        # a drop below 0 has a key below 0, which the clip reads as guide[0] = 0; far below, at
        # a tiny sigma, the product leaves the int64 or even the float range, with no warning
        with np.errstate(over="ignore", invalid="ignore"):
            key = np.multiply(x, inv_h, out=np.empty(len(x), np.int64), casting="unsafe")
        i = guide.take(key, mode="clip")
        for _ in range(spread):
            i += hazard.take(i) < x
        return i
    return invert


def _feller_tally(gen, draws, hazard, a, b, counts):
    # Feller coupling: position 1 opens a cycle, position i >= 2 opens one
    # with probability p_i = theta/(theta+i-1), and the gaps between openings,
    # with a closing one at n+1, are the cycle lengths.  hazard[k] = H(k+1) =
    # -sum_{i=2}^{k+1} log(1-p_i); walking down, the next opening below top is
    # i + 1 for i the number of hazard values below H(top-1) - Exp(1), a guide lookup and a
    # few compares.  A walk carries t = top - 2, the hazard index of H(top-1), so the step
    # length is t - i + 1.  Below stop = max(a, 2) every gap left is shorter than a.
    # Returns the exponentials drawn.
    n, stop, variates = len(hazard), max(a, 2), 0
    invert = _hazard_inverse(hazard)
    for start in range(0, draws, _ROW_CAP):
        t = np.full(min(_ROW_CAP, draws - start), n - 1, dtype=np.int64)
        hits = np.zeros_like(t)
        drop = np.subtract(hazard[n - 1], gen.standard_exponential(len(t)))  # every top is n + 1
        while True:
            variates += len(t)
            i = invert(drop)
            rel = np.subtract(t, i, out=t)
            rel += 1 - a  # the step length less a
            if rel.min() < 1 - a:  # a walk that does not descend never ends
                raise RuntimeError("Feller walk: a step did not move down")
            hits += rel.view(np.uint64) <= b - a
            live = i >= stop - 1
            counts += np.bincount(np.compress(~live, hits), minlength=len(counts))
            t, hits = np.compress(live, i), np.compress(live, hits)
            if not len(t):
                break
            t -= 1
            drop = hazard.take(t)
            drop -= gen.standard_exponential(len(t))
    return variates


def estimate_pmf(n, iv: Interval, sigma, samples, seed):
    """Empirical pmf of the number of cycles with length in [ceil(gamma*n), floor(delta*n)].

    Deterministic for fixed (seed, samples); see the module notes for the stream.
    """
    require_int(n=n, samples=samples, seed=seed)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 0 < sigma < math.inf:
        raise DomainError(f"need finite sigma > 0, got {sigma}")
    if samples < 1:
        raise DomainError(f"need samples >= 1, got {samples}")
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")
    w = normalized_window(n, iv.gamma, iv.delta)
    # hazard (8n), guide keys (8n) and guide (8(4n+1)) bytes, live together while the guide
    # is built; 104 bytes at peak for each of the n//a + 1 result entries: counts, pmf_hat
    # and stderr arrays and tuples, and their float objects; and 16 KiB for the objects of
    # fixed size, such as the generator and the array headers
    need = 48 * n + 8 + 104 * (n // w.a + 1) + 2**14
    if need > DP_TABLE_MAX_BYTES:
        raise DomainError(f"estimate_pmf for n = {n} needs {need:.1e} bytes, over the cap")
    # log1p(theta/(i-1)) = -log(1-p_i) stays finite where p_i rounds to 1
    hazard = np.concatenate(([0.0], np.cumsum(np.log1p(float(sigma) / np.arange(1, n)))))
    counts = np.zeros(n // w.a + 1, dtype=np.int64)
    # spawn_key (0,) is the stream of SeedSequence(seed).spawn(1)[0]
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,))))
    variates = _feller_tally(gen, samples, hazard, w.a, w.b, counts)
    pmf_hat = counts / samples
    stderr = np.sqrt(pmf_hat * (1.0 - pmf_hat) / samples)
    return EstimateResult(tuple(counts.tolist()), samples, tuple(pmf_hat.tolist()),
                          tuple(stderr.tolist()), seed, variates)
