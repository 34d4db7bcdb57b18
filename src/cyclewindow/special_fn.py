"""Scalar special functions: the dilogarithm and the Buchstab function."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import integrate_simpson

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


def dilog(x):
    """Li2(x) = sum_{k>=1} x^k / k^2 for x in [0, 1], increasing, abs err <= 2.2e-16.

    The first 60 terms of the series for x <= 1/2, where the rest sum to
    under 2.5e-22; the reflection
    Li2(x) + Li2(1-x) + ln(x) ln(1-x) = pi^2/6 for x > 1/2, where the series
    converges too slowly, summed in the same fsum as the series at 1 - x.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"dilog defined on [0, 1], got {x}")
    if x == 1.0:
        return _PI2_6
    y = min(x, 1.0 - x)
    series = [y ** k / (k * k) for k in range(1, 61)]
    if x <= 0.5:
        return math.fsum(series)
    return math.fsum([_PI2_6, -math.log(x) * math.log1p(-x)] + [-t for t in series])


# --- Buchstab function -----------------------------------------------------
#
# omega(u) = 1/u on [1, 2] and u*omega(u) = 1 + integral_1^{u-1} omega(t) dt
# for u >= 2.  (The recurrence is sometimes quoted without the constant term,
# which would force omega(2) = 0 and contradict continuity; the form above is
# the one consistent with omega = 1/u on [1, 2].)
#
# S(v) = sum_j 2^j P_j((1/v, 1]), from the pmfs of limit_integrals._steps_pmf,
# solves v S'(v) = S(v - 1) with S = 1 on [0, 1], which is the recurrence for
# u*omega(u) in v = u - 1: so omega(u) = S(u - 1)/u, one steps read.

# omega(u) is within 1e-14 of its limit e^{-euler_gamma} for every u in
# [12, 60], so omega is taken constant past this point; a huge u then costs
# no more than u = 30.
_U_CLAMP = 30.0


def buchstab(u):
    """The Buchstab function omega(u) for finite u >= 1, abs err <= 1e-8."""
    if not 1.0 <= u < math.inf:
        raise DomainError(f"buchstab defined for finite u >= 1, got {u}")
    if u <= 2.0:
        return 1.0 / u
    from .limit_integrals import _steps_pmf  # limit_integrals imports dilog from here
    u = min(u, _U_CLAMP)
    r = int(u - 1.0)
    return float(_steps_pmf([u - 1.0], r)[0] @ 2.0 ** np.arange(r + 1)) / u


def buchstab_max_residual(iv: RealInterval, points: int):
    """Max |u*omega(u) - 1 - integral_1^{u-1} omega| over a grid in iv.

    The integral is recomputed by adaptive Simpson over buchstab() values,
    independently of the steps that buchstab reads, so this serves as a
    self-check of them.
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
