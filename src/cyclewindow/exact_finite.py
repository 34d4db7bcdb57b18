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
MOMENT_MAX_WORK = 10**9  # word operations, about 2 s; exact_falling_moment refuses more


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
    cum_m = P_0 + ... + P_m and the box-window sum W_m = cum_{m-a} -
    cum_{m-min(b,m)-1} (terms outside 0..m-1 read as zero), the discrete twin
    of the ladder's t I_m'(t) = m (I_{m-1}(t - gamma) - I_{m-1}(t - delta)),
    P_m = (cum_{m-1} + D_m)/m where D_m(i) = W_m(i-1) - W_m(i).  In
    u_m = cum_m/(m+1) this becomes

        u_m = u_{m-1} + D_m / q_m,    q_m = m(m+1),    u_0 = P_0 = [1, 0, ...],

    and with q_n = n the same step gives P_n = u_{n-1} + D_n/n, which avoids
    differencing cum.  D_m reads only cum at or below m - a, so a block
    m = s..s+a-1 needs only columns already filled: it reads its window sums
    as two column slices of a support x (n+1) table and divides them by q_m
    before differencing, as D_m/q_m is the difference of W_m/q_m and W_m has
    one row fewer.  It adds u_{s-1} into its first column, so one cumulative
    sum along m writes u_m, and P_n rides in the last block's sum.  Only the
    (s+a-1)//a + 1 rows that can be nonzero are filled (column m has
    m//a + 1).  The fill is about n^2/(2a) cells in n/a blocks.

    rational=None picks exact Fractions for n <= 200 and floats beyond.
    Floats use a float64 table; tiny negatives left by rounding are set to
    0.  Fractions run the same code on Python ints scaled by n!, with Python
    int divisors: W_m has denominators dividing (m-1)!, and n!/(m-1)! is a
    multiple of m(m+1) for m < n and of n for m = n, so every // is exact;
    u_m has denominators dividing (m+1)!, and n! * P_n(i) is the number of
    permutations with i cycles in the window.  A table that would exceed
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
    dtype, one, div = ((object, math.factorial(n), operator.ifloordiv) if rational
                       else (np.float64, 1.0, operator.itruediv))

    # cum[:, j] = P_0 + ... + P_{j-1}, zero in rows from (j-1)//a + 1 on
    order = "C" if support <= 256 else "F"  # along m up to 256 rows, the measured crossover
    cum = np.zeros((support, n + 1), dtype, order=order)
    u = np.zeros(support, dtype)
    u[0] = cum[0, 1] = one
    for s in range(1, n + 1, a):
        # columns m = s..e-1 have k live rows, and their window sums
        # W = cum_{m-a} - cum_{m-b-1} have k - 1, read as two column slices from
        # the first column past cum[:, 0]; a zero border gives D(i) = W(i-1) - W(i)
        e = min(s + a, n + 1)
        k = (e - 1) // a + 1
        m = np.arange(s, e, dtype=dtype)
        q = m * (m + 1)
        if e > n:
            q[-1] = n
        d = np.zeros((k + 1, e - s), dtype, order=order)
        win = d[1:k]
        win[:, max(a - s, 0):] = cum[:k - 1, max(s - a, 0) + 1:e - a + 1]
        if e > b + 1:
            win[:, max(b + 1 - s, 0):] -= cum[:k - 1, max(s - b, 1):e - b]
        div(win, q)
        d = d[:-1] - d[1:]
        d[:, 0] += u[:k]
        np.cumsum(d, axis=1, out=d)  # u_m, and P_n in column n
        c = len(m) - (e > n)
        np.multiply(d[:, :c], m[:c] + 1, out=cum[:k, s + 1:s + 1 + c])
        u[:k] = d[:, -1]
    if rational:
        return Pmf(tuple(Fraction(x, one) for x in u))
    return Pmf(tuple(np.maximum(u, 0.0).tolist()))


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
    (k_1..k_r) of window lengths with sum k_i <= n: F_r(n), for F_j the prefix
    sums of f_j(s) = [z^s] L(z)^j with L(z) = sum_{a <= k <= b} z^k / k.  As
    z L'(z) = sum_{a <= k <= b} z^k, the derivative of L^j gives

        s f_j(s) = j (F_{j-1}(s - a) - F_{j-1}(s - b - 1)),    f_0(s) = [s = 0],

    the discrete twin of the sliced moments' t I_m'(t) = m (I_{m-1}(t - gamma)
    - I_{m-1}(t - delta)): one pass over s <= n per order.  The f_j are carried
    as the integers g_j = d**j f_j, d = lcm of the window lengths, so each
    g_j(s) = j d (G_{j-1}(s - a) - G_{j-1}(s - b - 1)) // s is exact.
    A call over MOMENT_MAX_WORK is refused with DomainError before it starts.
    """
    require_int(n=n, r=r)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r == 0:
        return Fraction(1)
    a, b = w.a, min(w.b, n)
    if r * a > n:  # every r-tuple of window lengths sums past n
        return Fraction(0)
    top = min(r * b, n)  # f_r vanishes past r*b, so the sums stop at top
    # 30-bit word operations, D bounding the words of d as log d <= min(b, (b-a+1) log b):
    # 16 (D+1) a length for d, then in pass j top + 1 prefix-sum steps of 64 + jD, and a
    # (j-1)D x D product (factors >= 1 word) per entry in [j*a, min(j*b, top)], if under cap
    words = min(b, (b - a + 1) * math.log(b)) / 20
    work = 16 * (b - a + 1) * (words + 1) + (top + 1) * r * (64 + (r + 1) / 2 * words)
    for j in range(2, r + 1 if work <= MOMENT_MAX_WORK else 2):
        work += (min(j * b, top) - j * a + 1) * (j - 1) * (words + 1) ** 2
    if work > MOMENT_MAX_WORK:
        raise DomainError(f"exact_falling_moment for n = {n}, window [{w.a}, {w.b}] and "
                          f"r = {r} needs about {work:.1e} word operations, over the cap")
    d = math.lcm(*range(a, b + 1))
    g = [1] + [0] * top
    for j in range(1, r + 1):
        lo, hi = j * a, min(j * b, top)  # f_j vanishes outside [j*a, j*b]
        pad = [0] * (b + 1) + list(itertools.accumulate(g))  # G(t) = pad[t + b + 1]
        diff = map(operator.sub, pad[lo - a + b + 1:hi - a + b + 2], pad[lo:hi + 1])
        jd_diff = map(operator.mul, diff, itertools.repeat(j * d))
        g = [0] * lo + list(map(operator.floordiv, jd_diff, range(lo, hi + 1))) + [0] * (top - hi)
    return Fraction(sum(g), d**r)
