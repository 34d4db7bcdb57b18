"""Scalar special functions: the dilogarithm and the Buchstab function."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from numpy.polynomial.chebyshev import Chebyshev

from .errors import DomainError
from .quadrature import QuadratureConfig, RULE_SIMPSON, integrate

_PI2_6 = math.pi * math.pi / 6.0


@dataclass(frozen=True)
class RealInterval:
    """A finite closed interval of evaluation points."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise DomainError("interval requires lo <= hi")


def _dilog_series(x):
    # direct series, only called with x <= 1/2 where it converges fast
    terms = []
    xk = x
    k = 1
    while True:
        t = xk / (k * k)
        terms.append(t)
        if t < 1e-18:
            break
        k += 1
        xk *= x
    return math.fsum(terms)


def dilog(x):
    """Li2(x) = sum_{k>=1} x^k / k^2 for x in [0, 1], increasing, abs err <= 1e-13.

    Direct series for x <= 1/2; the reflection
    Li2(x) + Li2(1-x) + ln(x) ln(1-x) = pi^2/6 for x > 1/2, where the series
    converges too slowly.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"dilog defined on [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return _PI2_6
    if x <= 0.5:
        return _dilog_series(x)
    return _PI2_6 - math.log(x) * math.log1p(-x) - _dilog_series(1.0 - x)


# --- Buchstab function -----------------------------------------------------
#
# omega(u) = 1/u on [1, 2] and u*omega(u) = 1 + integral_1^{u-1} omega(t) dt
# for u >= 2.  (The recurrence is sometimes quoted without the constant term,
# which would force omega(2) = 0 and contradict continuity; the form above is
# the one consistent with omega = 1/u on [1, 2].)
#
# The delay structure makes naive recursion quadratic, so each unit interval
# [m, m+1] is tabulated once as a Chebyshev interpolant, built lazily up to
# the largest u requested.  Chebyshev pieces integrate exactly, giving the
# running antiderivative F(v) = integral_1^v omega needed by the next piece.

_CHEB_POINTS = 40
# The tabulated omega(u) is within 1e-14 of its limit e^{-euler_gamma} for
# every u in [12, 60], so omega is taken constant past this point; the table
# then stays bounded and a huge u costs no more than u = 30.
_U_CLAMP = 30.0


class _BuchstabTable:
    def __init__(self):
        self._lock = threading.Lock()
        self._pieces = []        # piece i covers [i+2, i+3]
        self._anti = []          # antiderivative of piece i, zero at its left end
        self._f_left = []        # F(m) at the left end of piece i

    def _f(self, v):
        # F(v) = integral_1^v omega(t) dt for v <= right end of built pieces
        if v <= 2.0:
            return math.log(v)
        i = min(int(v) - 2, len(self._pieces) - 1)
        return self._f_left[i] + self._anti[i](v)

    def _extend_to(self, u):
        while len(self._pieces) + 2 < u:
            m = len(self._pieces) + 2
            f = self._f

            def omega_piece(t, f=f):
                return (1.0 + f(t - 1.0)) / t

            cheb = Chebyshev.interpolate(
                lambda ts: [omega_piece(t) for t in ts], _CHEB_POINTS,
                domain=[m, m + 1])
            self._pieces.append(cheb)
            self._anti.append(cheb.integ(lbnd=m))
            prev_left = math.log(2.0) if m == 2 else self._f_left[-1] + self._anti[-2](m)
            self._f_left.append(prev_left)

    def eval(self, u):
        with self._lock:
            self._extend_to(u)
            i = min(int(u) - 2, len(self._pieces) - 1)
            return float(self._pieces[i](u))


_table = _BuchstabTable()


def buchstab(u):
    """The Buchstab function omega(u) for finite u >= 1, abs err <= 1e-8."""
    if not 1.0 <= u < math.inf:
        raise DomainError(f"buchstab defined for finite u >= 1, got {u}")
    if u <= 2.0:
        return 1.0 / u
    return _table.eval(min(u, _U_CLAMP))


def buchstab_max_residual(iv: RealInterval, points: int, cfg=None):
    """Max |u*omega(u) - 1 - integral_1^{u-1} omega| over a grid in iv.

    The integral is recomputed by adaptive Simpson over buchstab() values,
    independently of the table's internal antiderivatives, so this serves as
    a self-check of the tabulation.
    """
    if iv.lo < 2.0:
        raise DomainError("residual check applies for u >= 2")
    if cfg is None:
        cfg = QuadratureConfig(abs_tol=1e-10, panel_rule=RULE_SIMPSON)
    worst = 0.0
    for j in range(points):
        u = iv.lo + (iv.hi - iv.lo) * j / max(points - 1, 1)
        brk = [float(k) for k in range(2, int(u - 1) + 1)]
        val, _ = integrate(buchstab, 1.0, u - 1.0, cfg, breakpoints=brk)
        worst = max(worst, abs(u * buchstab(u) - 1.0 - val))
    return worst
