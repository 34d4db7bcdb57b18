"""Exact finite-n cycle-count distributions for uniform random permutations.

Ground truth against which the limiting formulas and the sampler are checked:
joint falling moments of cycle counts, the exact pmf of the number of cycles
with length in an integer window, and a brute-force enumerator for tiny n.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, require_int
from .limit_integrals import Interval
from .quasi_poisson import Pmf

RATIONAL_LIMIT = 200
DP_TABLE_MAX_BYTES = 1 << 28  # exact_pmf refuses larger tables
MOMENT_MAX_WORK = 12 * 10**8  # word operations, about 2 s; exact_falling_moment refuses more


@dataclass(frozen=True)
class CycleSpec:
    """Distinct cycle lengths with multiplicity exponents: ((k, r), ...)."""

    entries: tuple

    def __post_init__(self):
        ks = [k for k, _ in self.entries]
        if len(set(ks)) != len(ks):
            raise DomainError("cycle lengths must be distinct")
        for k, r in self.entries:
            require_int(k=k, r=r)
            if k < 1:
                raise DomainError(f"cycle length {k} < 1")
            if r < 1:
                raise DomainError(f"multiplicity exponent {r} < 1")


@dataclass(frozen=True)
class IntWindow:
    """Integer cycle-length window [a, b]."""

    a: int
    b: int

    def __post_init__(self):
        require_int(a=self.a, b=self.b)
        if not 1 <= self.a <= self.b:
            raise DomainError(f"window needs 1 <= a <= b, got [{self.a}, {self.b}]")


_SNAP = Fraction(1, 10**9)


def _snap_int(x, rounder):
    # decimal inputs arrive as floats whose exact value sits a hair off the
    # intended rational; treat anything within 1e-9 of an integer as exact
    nearest = round(x)
    if abs(x - nearest) <= _SNAP:
        return int(nearest)
    return int(rounder(x))


def normalized_window(n, gamma, delta):
    """Integer window [ceil(gamma*n), floor(delta*n)] for a size-n permutation.

    Products are formed in exact rational arithmetic.  An empty window
    (ceil above floor) returns the sentinel [n+1, n+1], which no cycle can
    hit, so downstream code uniformly produces a point mass at 0.  The
    endpoints must pass Interval: finite, with 0 < gamma < delta <= 1.
    """
    require_int(n=n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    Interval(gamma, delta)
    a = max(_snap_int(Fraction(gamma) * n, math.ceil), 1)
    b = _snap_int(Fraction(delta) * n, math.floor)
    if a > b:
        return IntWindow(n + 1, n + 1)
    return IntWindow(a, b)


def joint_falling_moment(n, spec: CycleSpec):
    """E[ prod_i (C_{k_i})_{r_i} ] for cycle counts C_k of a permutation of [n].

    Equals prod k_i^{-r_i} exactly when n >= sum k_i r_i, else exactly 0.
    """
    require_int(n=n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    for k, _ in spec.entries:
        if k > n:
            raise DomainError(f"cycle length {k} exceeds n = {n}")
    if sum(k * r for k, r in spec.entries) > n:
        return Fraction(0)
    out = Fraction(1)
    for k, r in spec.entries:
        out /= Fraction(k) ** r
    return out


def exact_pmf(n, w: IntWindow, rational=None):
    """Exact distribution of the number of cycles with length in [w.a, w.b].

    Recursion on the cycle containing element 1, whose length k is uniform
    on [1, n]: P_n(i) = (1/n) sum_{k=1}^n P_{n-k}(i - [k in window]).  With
    cum_m = P_0 + ... + P_m and W_m = cum_{m-a} - cum_{m-min(b,m)-1} (rows
    outside 0..m-1 read as zero), this is P_m = (cum_{m-1} + D_m)/m where
    D_m(i) = W_m(i-1) - W_m(i).  In u_m = cum_m/(m+1) it becomes

        u_m = u_{m-1} + D_m / (m(m+1)),    u_0 = P_0 = [1, 0, ...].

    D_m reads only rows at or below m - a, so the a rows of a block
    m = s..s+a-1 need only rows already filled: a block reads its window sums
    as two row slices of cum, takes one cumulative sum down m, and fills only
    the (s+a-1)//a + 1 columns that can be nonzero (row m has m//a + 1).  The
    last row is P_n = u_{n-1} + D_n/n, which avoids differencing cum.  The
    fill is about n^2/(2a) cells in n/a blocks on an (n+1) x support table.

    rational=None picks exact Fractions for n <= 200 and floats beyond.
    Floats use a float64 table; tiny negatives left by rounding are set to
    0.  Fractions run the same code on Python ints scaled by n!: for m < n
    the denominators of cum_m, u_m and D_m/(m(m+1)) divide (m+1)!, and D_n/n
    has one dividing n!, so every // is exact and n! * P_n(i) is the number
    of permutations with i cycles in the window.  A table that would exceed
    DP_TABLE_MAX_BYTES is refused with DomainError rather than allocated.
    """
    require_int(n=n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if rational is None:
        rational = n <= RATIONAL_LIMIT
    if w.a > n:
        return Pmf((Fraction(1),) if rational else (1.0,))
    a, b = w.a, w.b
    support = n // a + 1
    # a float cell is 8 bytes; an integer cell (below n! * n < (n+1)!) is a
    # CPython int of 4 bytes per 30 bits plus a 24-byte header, and a pointer
    cell = 32 + 4 * math.ceil(math.lgamma(n + 2) / math.log(2) / 30) if rational else 8
    size = (n + 1) * support * cell
    if size > DP_TABLE_MAX_BYTES:
        raise DomainError(
            f"exact_pmf table for n = {n} with support {support} needs about "
            f"{size / 2**20:.0f} MiB, over the {DP_TABLE_MAX_BYTES / 2**20:.0f} MiB cap")
    if rational:
        dtype, one, div = object, math.factorial(n), operator.ifloordiv
    else:
        dtype, one, div = np.float64, 1.0, operator.itruediv

    # cum[j] = P_0 + ... + P_{j-1}, zero in its columns from (j-1)//a + 1 on
    cum = np.zeros((n + 1, support), dtype)
    u = np.zeros(support, dtype)
    u[0] = cum[1, 0] = one
    for s in range(1, n + 1, a):
        # rows m = s..e-1 have k live columns, and their window sums
        # W = cum_{m-a} - cum_{m-b-1} have k - 1, read as two row slices from
        # the first row past cum[0]; a zero border gives D(i) = W(i-1) - W(i)
        e = min(s + a, n + 1)
        k = (e - 1) // a + 1
        d = np.zeros((e - s, k + 1), dtype)
        d[max(a - s, 0):, 1:k] = cum[max(s - a, 0) + 1:e - a + 1, :k - 1]
        if e > b + 1:
            d[max(b + 1 - s, 0):, 1:k] -= cum[max(s - b, 1):e - b, :k - 1]
        d = d[:, :-1] - d[:, 1:]
        m = np.arange(s, min(e, n))
        block = d[:len(m)]  # divided, summed down m and shifted by u in place
        np.cumsum(div(block, (m * (m + 1))[:, None]), axis=0, out=block)
        block += u[:k]
        cum[s + 1:s + 1 + len(m), :k] = block * (m + 1)[:, None]
        u[:k] = block[-1] if len(m) else u[:k]
    last = u + div(d[-1], n)
    if rational:
        return Pmf(tuple(Fraction(x, one) for x in last))
    return Pmf(tuple(np.maximum(last, 0.0).tolist()))


def _partitions(n, max_part):
    # multisets of parts of n, each part <= max_part, as (part, count) tuples
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for c in range(n // k, 0, -1):
            for rest in _partitions(n - k * c, k - 1):
                yield ((k, c),) + rest


def brute_force_pmf(n, w: IntWindow):
    """Exact pmf by enumerating cycle types of S_n; test oracle, n <= 9 only."""
    require_int(n=n)
    if not 1 <= n <= 9:
        raise DomainError(f"brute force capped at n <= 9, got {n}")
    counts = {}
    for ptn in _partitions(n, n):
        weight = Fraction(math.factorial(n))
        hits = 0
        for k, c in ptn:
            weight /= Fraction(k) ** c * math.factorial(c)
            if w.a <= k <= w.b:
                hits += c
        counts[hits] = counts.get(hits, Fraction(0)) + weight
    support = max(counts) + 1
    total = Fraction(math.factorial(n))
    return Pmf(tuple(counts.get(i, Fraction(0)) / total for i in range(support)))


def exact_falling_moment(n, w: IntWindow, r):
    """E[(X)_r] for X = number of cycles with length in the window, exact.

    By Cauchy's formula E[(X)_r] is the sum of prod 1/k_i over ordered tuples
    (k_1..k_r) of window lengths with sum k_i <= n.  Built by convolution from
    f_1(s) = [a <= s <= b]/s: f_j(s) = sum_{a <= k <= min(b, s)} f_{j-1}(s-k)/k
    for s <= n, a sum of products of a slice of f_{j-1} and a reversed slice
    of 1/k.  The moment is the sum of f_r, taken as the sum of f_{r-1}(t)
    times the window's harmonic sum up to n - t.  The f_j are carried as
    integers over the common denominator d**j, d = lcm of the window lengths.
    A call over MOMENT_MAX_WORK is refused with DomainError before it starts.
    """
    require_int(n=n, r=r)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r == 0:
        return Fraction(1)
    # work in operations on 30-bit words of the D = 1.5b/30-word integers:
    # 16 a word for d, inv and harmonic, 128 a loop step, (r-1)D^2 a final
    # term, and in pass j 128 + jD (the running sum) per pair (s, t) visited
    # and (j-1)D^2 per product with a nonzero f_{j-1}(t); f_1 = 1/k takes no pass.
    # Past the cap on the steps alone the passes go uncounted: r*n can be huge.
    a, b = w.a, min(w.b, n)
    width, words = max(b - a + 1, 0), b / 20
    work = 16 * (n + width) * words + (128 * r + (r - 1) * words**2) * (n + 1)
    for j in range(2, min(r, n // a + 1) if work <= MOMENT_MAX_WORK else 2):
        m = n + 1 - j * a  # at s = j*a - 1 + u the pass visits min(u, width) pairs
        pairs = min(m, width) * (2 * m - min(m, width) + 1) // 2
        nonzero = min(pairs, (min((j - 1) * b, n) - (j - 1) * a + 1) * width)
        work += pairs * (128 + j * words) + nonzero * (j - 1) * words**2
    if work > MOMENT_MAX_WORK:
        raise DomainError(f"exact_falling_moment for n = {n}, window [{w.a}, {w.b}] and "
                          f"r = {r} needs about {work:.1e} word operations, over the cap")
    d = math.lcm(*range(a, b + 1))
    inv = [d // k if a <= k <= b else 0 for k in range(n + 1)]
    rev = inv[::-1]  # inv[s - t] = rev[n - s + t]
    f = inv if r > 1 else [1]
    for j in range(1, r - 1):
        # f_j vanishes below j*a, so f_{j+1} below (j+1)*a
        f = [0] * min((j + 1) * a, n + 1) + [
            sum(map(operator.mul, f[(lo := max(j * a, s - b)):s - a + 1],
                    rev[n - s + lo:n - a + 1]))
            for s in range((j + 1) * a, n + 1)]
    harmonic = list(itertools.accumulate(inv))
    return Fraction(sum(map(operator.mul, f, reversed(harmonic))), d**r)
