"""50-digit oracles for the limit law: rho_k(u), and the pmf of rational windows.

P(X = j) on the window (1/u, 1] is rho_{j+1}(u) - rho_j(u) in the limit, and
Buchstab's u*omega(u) is the sum of 2^j times those entries at u - 1.
window_pmf gives P(X = j) on any window (gamma, delta] with rational ends.
"""

import functools
import math
from fractions import Fraction

import mpmath

# 110 terms: the series converge like 3^-i, and every piece end with k <= 31
# and j <= 101 reads the same 50 digits as with 200 terms
RHO_DPS, _RHO_TERMS = 50, 110
# window_pmf's coefficients are integers in units of 2^-_WINDOW_BITS (51 digits)
_WINDOW_BITS, _WINDOW_TERMS = 170, 110


@functools.lru_cache(maxsize=None)
def rho_piece(k, j):
    """Taylor coefficients of rho_k about j + 1/2, on the unit piece [j, j + 1].

    rho_0 = 0, rho_k = 1 on [0, k], and u rho_k'(u) = -rho_k(u - 1) +
    rho_{k-1}(u - 1) above 1 (Knuth and Trabb Pardo, 1976).  With
    u = c + xi, c = j + 1/2, and b, b' the previous piece's coefficients of
    rho_k and rho_{k-1}, c (i+1) a_{i+1} + i a_i = -b_i + b'_i; a_0 makes
    rho_k continuous at xi = -1/2.  The continuation is singular one unit to
    the left, so the series converges like 3^-i at the piece ends.
    """
    zero = [mpmath.mpf(0)] * _RHO_TERMS
    if k == 0:
        return tuple(zero)
    if j + 1 <= k:
        return tuple([mpmath.mpf(1)] + zero[1:])
    with mpmath.workdps(RHO_DPS):
        b, b1, c = rho_piece(k, j - 1), rho_piece(k - 1, j - 1), mpmath.mpf(j) + 0.5
        a = zero[:]
        for i in range(_RHO_TERMS - 1):
            a[i + 1] = (b1[i] - b[i] - i * a[i]) / (c * (i + 1))
        a[0] = mpmath.polyval(b[::-1], 0.5) - mpmath.polyval(a[::-1], -0.5)
        return tuple(a)


def rho(k, u):
    """rho_k(u) at 50 digits: P(the k-th longest cycle is shorter than n/u) as n grows."""
    with mpmath.workdps(RHO_DPS):
        u = mpmath.mpf(u)
        j = int(mpmath.floor(u))
        return mpmath.polyval(rho_piece(k, j)[::-1], u - j - 0.5)


@functools.lru_cache(maxsize=None)
def window_pmf(gamma, delta):
    """P(X = j), j = 0..floor(1/gamma), in the limit on (gamma, delta], as 50-digit mpfs.

    gamma and delta are Fractions.  Conditioning on the cycle of element 1,
    F_j(t), the law of the window count at size t n, solves
    t F_j'(t) = D_{j-1}(t) - D_j(t) with D_j(t) = F_j(t - gamma) - F_j(t - delta),
    D_{-1} = 0, F_j(0) = [j = 0] and F = 0 below 0; P(X = j) = F_j(1).
    On pieces [p h, (p + 1) h] with h = 1/Q, Q the lcm of the denominators,
    both shifts map a piece onto a piece, so F_j is a Taylor series
    sum_i A_i x^i in x = 2 (t - c)/h about each centre c = (p + 1/2) h:
    (2p + 1)(i + 1) A_{i+1} + i A_i = B_i, with B the series of
    D_{j-1} - D_j, and A_0 makes F_j continuous at x = -1.  As for rho, the
    continuation is singular one piece to the left, so the series converge
    like 3^-i at the piece ends.  Built with 140 terms in units of 2^-220,
    the entries on the delta < 1 windows of the tests move by under 3e-48.
    """
    g, d = Fraction(gamma), Fraction(delta)
    q = math.lcm(g.denominator, d.denominator)
    a, b = int(g * q), int(d * q)
    pmf, prev = [], None
    for j in range(q // a + 1):
        cur, left = [], (1 << _WINDOW_BITS) if j == 0 else 0
        for p in range(q):
            rhs = [0] * _WINDOW_TERMS
            for src, shift, sign in ((prev, a, 1), (prev, b, -1), (cur, a, -1), (cur, b, 1)):
                if src is not None and p >= shift:
                    rhs = [x + sign * y for x, y in zip(rhs, src[p - shift])]
            c = [0] * _WINDOW_TERMS
            for i in range(_WINDOW_TERMS - 1):
                c[i + 1] = (rhs[i] - i * c[i]) // ((2 * p + 1) * (i + 1))
            c[0] = left + sum(c[1::2]) - sum(c[2::2])
            left = sum(c)
            cur.append(c)
        pmf.append(left)
        prev = cur
    with mpmath.workdps(RHO_DPS):
        return tuple(mpmath.ldexp(v, -_WINDOW_BITS) for v in pmf)
