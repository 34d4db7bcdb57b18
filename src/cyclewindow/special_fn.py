"""Scalar special functions: the dilogarithm and the Buchstab function."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import _CHEB_PTS, _STEP, _antiderivative, _PiecewiseCheb, integrate_simpson

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
# F(u) = u*omega(u) is 1 on [1, 2] and F(u) = F(m) + int_m^u F(s-1)/(s-1) ds
# on [m, m+1]: each unit piece is one antiderivative of the piece before it,
# the method of steps.  A shift by 1 maps a piece's Chebyshev nodes onto the
# previous piece's, so a step is one product of node values with _STEP, as in
# limit_integrals._steps_pmf.  The table is built once, on the first call.

# The tabulated omega(u) is within 1e-14 of its limit e^{-euler_gamma} for
# every u in [12, 60], so omega is taken constant past this point; the table
# then stays bounded and a huge u costs no more than u = 30.
_U_CLAMP = 30.0


@functools.cache
def _buchstab_table():
    """F(u) = u*omega(u) as Chebyshev pieces on [m, m+1], m = 2.._U_CLAMP-1."""
    slopes, prev, end = [], np.ones(_CHEB_PTS.size), 1.0  # F = 1 on [1, 2]
    for m in range(2, int(_U_CLAMP)):
        # F(s - 1)/(s - 1) at s = m + (1 + x)/2, halved for the piece's half-width
        slopes.append(prev / (2 * m - 1 + _CHEB_PTS))
        step = slopes[-1] @ _STEP
        prev, end = end + step[:-1], end + step[-1]
    # F(2) = 1 plus the running integral of the slopes' interpolants, from
    # node values already in hand (unhalved for _antiderivative's piece width)
    bounds = range(2, int(_U_CLAMP) + 1)
    coef, _ = _antiderivative(bounds, lambda s: 2.0 * np.concatenate(slopes))
    coef[:, 0] += 1.0
    return _PiecewiseCheb(bounds, coef, None, None)


def buchstab(u):
    """The Buchstab function omega(u) for finite u >= 1, abs err <= 1e-8."""
    if not 1.0 <= u < math.inf:
        raise DomainError(f"buchstab defined for finite u >= 1, got {u}")
    if u <= 2.0:
        return 1.0 / u
    u = min(u, _U_CLAMP)
    return float(_buchstab_table()(u)) / u


def buchstab_max_residual(iv: RealInterval, points: int):
    """Max |u*omega(u) - 1 - integral_1^{u-1} omega| over a grid in iv.

    The integral is recomputed by adaptive Simpson over buchstab() values,
    independently of the table's internal antiderivatives, so this serves as
    a self-check of the tabulation.
    """
    if iv.lo < 2.0:
        raise DomainError("residual check applies for u >= 2")
    worst = 0.0
    for j in range(points):
        u = iv.lo + (iv.hi - iv.lo) * j / max(points - 1, 1)
        brk = [float(k) for k in range(2, int(u - 1) + 1)]
        val, _ = integrate_simpson(buchstab, 1.0, u - 1.0, 1e-10, breakpoints=brk)
        worst = max(worst, abs(u * buchstab(u) - 1.0 - val))
    return worst
