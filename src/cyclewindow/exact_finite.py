"""Exact finite-n cycle-count distributions for uniform random permutations.

Ground truth against which the limiting formulas and the sampler are checked:
joint falling moments of cycle counts, the exact pmf of the number of cycles
with length in an integer window, and a brute-force enumerator for tiny n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .quasi_poisson import Pmf

RATIONAL_LIMIT = 200


@dataclass(frozen=True)
class CycleSpec:
    """Distinct cycle lengths with multiplicity exponents: ((k, r), ...)."""

    entries: tuple

    def __post_init__(self):
        ks = [k for k, _ in self.entries]
        if len(set(ks)) != len(ks):
            raise DomainError("cycle lengths must be distinct")
        for k, r in self.entries:
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
    hit, so downstream code uniformly produces a point mass at 0.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    a = max(_snap_int(Fraction(gamma) * n, math.ceil), 1)
    b = _snap_int(Fraction(delta) * n, math.floor)
    if a > b:
        return IntWindow(n + 1, n + 1)
    return IntWindow(a, b)


def joint_falling_moment(n, spec: CycleSpec):
    """E[ prod_i (C_{k_i})_{r_i} ] for cycle counts C_k of a permutation of [n].

    Equals prod k_i^{-r_i} exactly when n >= sum k_i r_i, else exactly 0.
    """
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

    Recursion on the cycle containing element 1 (whose length is uniform on
    [1, n]): P_n(i) = (1/n) sum_{k=1}^n P_{n-k}(i - [k in window]).  The inner
    sum is maintained via running prefix sums over the already-filled rows, so
    the fill is O(n * support) rather than O(n^2 * support).

    rational=None picks exact Fractions for n <= 200 and floats beyond
    (float error grows like O(n * eps) through the prefix accumulation).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if rational is None:
        rational = n <= RATIONAL_LIMIT
    if w.a > n:
        return Pmf((Fraction(1),) if rational else (1.0,))
    support = n // w.a + 1
    zero, one = (Fraction(0), Fraction(1)) if rational else (0.0, 1.0)

    # cum[m][i] = sum_{s=0}^{m} P_s(i); row m built from rows below it
    row = [one] + [zero] * (support - 1)          # P_0
    cum = [row[:]]
    for m in range(1, n + 1):
        c_prev = cum[m - 1]
        top = m - w.a                              # window sum upper cum index
        bot = m - min(w.b, m) - 1                  # one below its lower index
        p_m = []
        inv_m = Fraction(1, m) if rational else 1.0 / m
        for i in range(support):
            win_i = zero
            win_im1 = zero
            if top >= 0:
                win_i = cum[top][i] - (cum[bot][i] if bot >= 0 else zero)
                if i > 0:
                    win_im1 = cum[top][i - 1] - (cum[bot][i - 1] if bot >= 0 else zero)
            p_m.append((c_prev[i] - win_i + win_im1) * inv_m)
        cum.append([c_prev[i] + p_m[i] for i in range(support)])
        last = p_m
    return Pmf(tuple(last))


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
    (k_1..k_r) of window lengths with sum k_i <= n.  Built by convolution:
    f_0 = [s = 0], f_j(s) = sum_{a <= k <= min(b, s)} f_{j-1}(s - k) / k for
    s <= n, and the moment is the sum of f_r, taken as the sum of f_{r-1}(t)
    times the window's harmonic sum up to n - t.  The f_j are carried as
    integers over the common denominator d**j, d = lcm of the window lengths.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r == 0:
        return Fraction(1)
    d = math.lcm(*range(w.a, min(w.b, n) + 1))
    inv = [d // k if w.a <= k <= w.b else 0 for k in range(n + 1)]
    f = [1] + [0] * n
    for j in range(r - 1):
        # f_j vanishes below j*a
        f = [sum(f[t] * inv[s - t] for t in range(max(j * w.a, s - w.b), s - w.a + 1))
             for s in range(n + 1)]
    harmonic = list(itertools.accumulate(inv))
    return Fraction(sum(f[t] * harmonic[n - t] for t in range(n + 1)), d**r)
