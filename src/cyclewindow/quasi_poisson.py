"""Quasi-Poisson pmf, falling-factorial moments, and moment inversion.

The quasi-Poisson family with parameters (r, lam) is the unique distribution
on {0, ..., r} whose k-th falling moment is lam^k for k = 0..r.  It is a
genuine probability distribution exactly when 0 <= lam <= 1; outside that
range some entry goes negative and construction is refused.  Every moment
vector, float or exact, is inverted in exact integer arithmetic; float
moments get each probability rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import DomainError, InvalidMomentsError, require_int

_CLAMP_FLOOR = -1e-9
INVERSION_MAX_ORDER = 2000  # the O(r^2) moment inversion takes about 1 s there


def _is_exact(x):
    # the float test first: the Rational ABC check costs several times more
    return not isinstance(x, float) and isinstance(x, Rational)


@dataclass(frozen=True)
class Pmf:
    """A finite pmf on {0, 1, ..., len-1}; entries all float or all Fraction."""

    probs: tuple

    def __post_init__(self):
        if len(self.probs) < 1:
            raise DomainError("pmf needs at least one entry")
        exact = all(_is_exact(p) for p in self.probs)
        for p in self.probs:
            if not 0 <= p < math.inf:  # also refuses nan
                raise DomainError(f"probability {p} is negative or not finite")
        total = sum(self.probs) if exact else math.fsum(self.probs)
        if exact:
            if total != 1:
                raise DomainError(f"pmf sums to {total}, not 1")
        elif abs(total - 1.0) > 1e-12:
            raise DomainError(f"pmf sums to {total!r}, not 1")

    def __len__(self):
        return len(self.probs)

    def __getitem__(self, i):
        return self.probs[i]

    def as_floats(self):
        return tuple(float(p) for p in self.probs)

    def total_variation(self, other):
        """TV distance, padding the shorter support with zeros."""
        a, b = self.as_floats(), other.as_floats()
        n = max(len(a), len(b))
        a += (0.0,) * (n - len(a))
        b += (0.0,) * (n - len(b))
        return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class MomentVector:
    """Falling-factorial moments (m_0, ..., m_r) with m_0 = 1."""

    moments: tuple

    def __post_init__(self):
        if len(self.moments) < 1:
            raise DomainError("moment vector needs m_0")
        if self.moments[0] != 1:
            raise DomainError("m_0 must equal 1")
        for m in self.moments:
            if not 0 <= m < math.inf:  # also refuses nan
                raise DomainError(f"falling moment {m} is negative or not finite")

    def __len__(self):
        return len(self.moments)


def qp_pmf(r, lam):
    """The quasi-Poisson(r, lam) pmf on {0, ..., r}.

    p_i = sum_{j=i}^{r} binom(j, i) (-1)^{j-i} lam^j / j!
    """
    require_int(r=r)
    if not 1 <= r <= INVERSION_MAX_ORDER:
        raise DomainError(f"need 1 <= r <= {INVERSION_MAX_ORDER}, got {r}")
    if not 0 <= lam <= 1:
        raise DomainError(f"quasi-Poisson exists only for lam in [0, 1], got {lam}")
    return pmf_from_falling_moments(MomentVector(tuple(lam**j for j in range(r + 1))))


def falling_moment(pmf: Pmf, k):
    """E[(X)_k] = sum_i i(i-1)...(i-k+1) p_i for X ~ pmf."""
    require_int(0, k=k)
    if k == 0:
        return Fraction(1) if all(_is_exact(p) for p in pmf.probs) else 1.0
    terms = [math.perm(i, k) * pmf[i] for i in range(k, len(pmf))]
    if not terms:
        return Fraction(0) if all(_is_exact(p) for p in pmf.probs) else 0.0
    if all(_is_exact(t) for t in terms):
        return sum(terms)
    return math.fsum(terms)


def pmf_from_falling_moments(mv: MomentVector):
    """Invert falling moments (m_0..m_r) of a distribution on {0..r} to its pmf.

    p_i = sum_{j=i}^{r} binom(j, i) (-1)^{j-i} m_j / j!, in integer arithmetic:
    over the common denominator r! * L, L the lcm of the moments' exact
    denominators, every a_j = m_j / j! is an integer, and the p_i are the
    coefficients of sum_j a_j (x - 1)^j, a Taylor shift by subtractions.
    Exact moments give Fractions; float moments are read exactly and each p_i
    is rounded once.  Entries in [-1e-9, 0) are treated as roundoff and
    clamped to 0; anything below that is a genuine inconsistency and raises.
    The result is renormalized (a no-op for exact input).  Raises DomainError
    past r = INVERSION_MAX_ORDER.
    """
    r = len(mv) - 1
    if r > INVERSION_MAX_ORDER:
        raise DomainError(f"moment inversion stops at order {INVERSION_MAX_ORDER}, got {r}")
    exact = all(_is_exact(m) for m in mv.moments)
    ratios = [m.as_integer_ratio() for m in mv.moments]
    lcm, fact = math.lcm(*(den for _, den in ratios)), math.factorial(r)
    a = [num * (lcm // den) * (fact // math.factorial(j)) for j, (num, den) in enumerate(ratios)]
    for k in range(r):
        for j in range(r - 1, k - 1, -1):
            a[j] -= a[j + 1]
    denom = fact * lcm
    try:
        bad = [i for i, x in enumerate(a) if x < 0 and x / denom < _CLAMP_FLOOR]
    except OverflowError:
        raise InvalidMomentsError(f"moments are not realizable on {{0..{r}}}") from None
    if bad:
        raise InvalidMomentsError(
            f"moment vector is not realizable on {{0..{r}}}: p_{bad[0]} = {a[bad[0]] / denom}")
    a = [max(x, 0) for x in a]
    total = sum(a)  # >= denom: the shift keeps the sum at a_0 = denom, and clamping raises it
    return Pmf(tuple(Fraction(x, total) if exact else x / total for x in a))


def binomial_matrices(n):
    """(B, B_inv) with B[i][j] = binom(j, i), signed inverse; exact ints."""
    require_int(0, n=n)
    if n > 20:
        raise DomainError("binomial_matrices capped at n = 20")
    size = n + 1
    b = [[math.comb(j, i) for j in range(size)] for i in range(size)]
    binv = [[(-1) ** (i + j) * math.comb(j, i) for j in range(size)] for i in range(size)]
    return b, binv
