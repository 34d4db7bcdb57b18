"""The 50-digit oracle rho_k(u), shared by the limit-law and Buchstab tests.

P(X = j) on the window (1/u, 1] is rho_{j+1}(u) - rho_j(u) in the limit, and
Buchstab's u*omega(u) is the sum of 2^j times those entries at u - 1.
"""

import functools

import mpmath

RHO_DPS, _RHO_TERMS = 50, 200


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
