"""Limiting distribution of the number of cycles with normalized length in a window.

As n grows, the number of cycles of a uniform random permutation of [n] with
length in [gamma*n, delta*n] converges in distribution.  The r-th falling
moment of the limit is the integral of 1/(z_1 ... z_r) over the box
[gamma, delta]^r sliced by z_1 + ... + z_r <= 1.  Everything here reduces to
iterated one-dimensional quadrature of that integral and of the companion
one-parameter recurrence for windows of the form (gamma, 1].
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from numpy.polynomial.chebyshev import Chebyshev

from .errors import DomainError
from .quadrature import QuadratureConfig, integrate
from .quasi_poisson import MomentVector, pmf_from_falling_moments
from .special_fn import dilog

__all__ = [
    "Interval", "QuadratureConfig", "sliced_cube_integral", "q_limit",
    "q2_closed_form", "Q_recurrence", "p_limit", "p1_derivative",
    "gamma_star", "argmax_p", "small_simplex_ratio", "ewens_lambda",
]

_CHEB_DEG = 32
_BND_EPS = 1e-13


@dataclass(frozen=True)
class Interval:
    """Normalized cycle-length window (gamma, delta) with 0 < gamma < delta <= 1.

    Endpoints may be floats or Fractions; Fractions keep support-bound
    arithmetic in p_limit exact.
    """

    gamma: object
    delta: object

    def __post_init__(self):
        g, d = float(self.gamma), float(self.delta)
        if not (math.isfinite(g) and math.isfinite(d)):
            raise DomainError("interval endpoints must be finite")
        if not (self.gamma > 0 and self.gamma < self.delta and self.delta <= 1):
            raise DomainError(
                f"need 0 < gamma < delta <= 1, got ({self.gamma}, {self.delta})")

    @property
    def g(self):
        return float(self.gamma)

    @property
    def d(self):
        return float(self.delta)


class _PiecewiseCheb:
    """Chebyshev pieces on consecutive [bounds[i], bounds[i+1]] intervals.

    left/right give the value outside the tabulated range; None clamps to the
    nearest endpoint (for queries that only stray past it by roundoff).
    Pieces are evaluated by scalar Clenshaw in numpy's mapdomain/chebval
    operation order: bit-identical to Chebyshev.__call__, minus its overhead.
    """

    def __init__(self, bounds, chebs, left, right):
        self.bounds = bounds
        self.pieces = [(*map(float, ch.mapparms()), ch.coef[::-1].tolist())
                       for ch in chebs]
        self.left = left
        self.right = right

    def __call__(self, t):
        if t <= self.bounds[0]:
            if self.left is not None:
                return self.left
            t = self.bounds[0]
        elif t >= self.bounds[-1]:
            if self.right is not None:
                return self.right
            t = self.bounds[-1]
        i = min(bisect.bisect_right(self.bounds, t) - 1, len(self.pieces) - 1)
        off, scl, coef = self.pieces[i]
        x = off + scl * t
        x2 = 2 * x
        c1, c0 = coef[0], coef[1]
        for a in coef[2:]:
            c0, c1 = a - c1, c0 + c1 * x2
        return c0 + c1 * x


def _dedupe(points, eps=_BND_EPS):
    out = []
    for p in sorted(points):
        if not out or p - out[-1] > eps:
            out.append(p)
    return out


def _interp_pieces(bounds, fn):
    return [
        Chebyshev.interpolate(lambda ts: [fn(t) for t in ts], _CHEB_DEG,
                              domain=[a, b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


# --- nested reduction of the sliced-box integral ----------------------------
#
# I_m(t) = integral over [gamma,delta]^m cut by sum <= t.  The reduction
#   I_m(t) = int_gamma^{min(delta, t-(m-1)gamma)} I_{m-1}(t-z) dz/z
# bottoms out at the analytic I_1.  I_m has derivative kinks exactly at
# t in {a*gamma + b*delta : a+b = m}, is 0 below m*gamma and constant
# (log(delta/gamma))^m above m*delta, so each level is tabulated as
# kink-aligned Chebyshev pieces and quadrature panels split at mapped kinks.

def _eval_I(t, m, g, d, prev_fn, prev_kinks, cfg):
    top = min(d, t - (m - 1) * g)
    if top <= g:
        return 0.0, 0.0
    brks = [t - k for k in prev_kinks if g < t - k < top]
    return integrate(lambda z: prev_fn(t - z) / z, g, top, cfg,
                     breakpoints=brks)


def _build_I_level(m, g, d, cap, prev_fn, prev_kinks, cfg):
    lo, hi = m * g, min(m * d, cap)
    kinks = sorted(a * g + (m - a) * d for a in range(m, -1, -1))
    bounds = _dedupe([lo, hi] + [k for k in kinks if lo < k < hi])
    pieces = _interp_pieces(
        bounds, lambda t: _eval_I(t, m, g, d, prev_fn, prev_kinks, cfg)[0])
    above = math.log(d / g) ** m if hi >= m * d - _BND_EPS else None
    return _PiecewiseCheb(bounds, pieces, left=0.0, right=above), kinks


def _sliced_moments(r, g, d, c, cfg):
    """(value, err) of the c-slice integral for each order 1..r, in order.

    Every order reads off one ladder of levels, each tabulated once with cap
    c - gamma: order m+1 reads I_m(c - z) for z >= gamma, the widest use.
    """
    cfg = cfg or QuadratureConfig()
    prev_fn = lambda t: math.log(min(d, t) / g) if min(d, t) > g else 0.0
    prev_kinks = [g, d]
    yield prev_fn(c), 0.0
    for j in range(2, r + 1):
        if j * g >= c - _BND_EPS:
            yield 0.0, 0.0  # the region is empty or thinner than _BND_EPS
            continue
        if j > 2:
            prev_fn, prev_kinks = _build_I_level(
                j - 1, g, d, c - g, prev_fn, prev_kinks, cfg)
        val, err = _eval_I(c, j, g, d, prev_fn, prev_kinks, cfg)
        yield val, err + (j - 1) * cfg.abs_tol


def sliced_cube_integral(r, iv: Interval, c, cfg=None, with_error=False):
    """Integral of 1/(z_1...z_r) over [gamma, delta]^r cut by sum z_i <= c.

    Exactly 0 when r*gamma >= c (the region is empty or degenerate); 1 when
    r = 0.  Otherwise evaluated by the nested one-dimensional reduction with
    per-level tolerance cfg.abs_tol, so the returned value carries roughly
    r * abs_tol of accumulated tolerance.
    """
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    if r == 0:
        if c < 0:
            raise DomainError(f"need c >= 0, got {c}")
        return (1.0, 0.0) if with_error else 1.0
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    val, err = list(_sliced_moments(r, iv.g, iv.d, c, cfg))[-1]
    return (val, err) if with_error else val


def q_limit(r, iv: Interval, cfg=None):
    """Limiting r-th falling moment of the window cycle count: the c = 1 slice."""
    return sliced_cube_integral(r, iv, 1.0, cfg)


def q2_closed_form(iv: Interval):
    """Dilogarithm closed form for the second limiting falling moment.

    Valid on the regime 1/3 <= gamma <= 1/2 <= delta <= 1.  The dilogarithm
    terms are oriented so the result matches direct quadrature of the sliced
    box (the orientation question is settled numerically; see the q2
    agreement tests).
    """
    g, d = iv.g, iv.d
    eps = 1e-12
    if not (1 / 3 - eps <= g <= 0.5 + eps and 0.5 - eps <= d <= 1 + eps):
        raise DomainError(
            f"closed form covers 1/3 <= gamma <= 1/2 <= delta <= 1, got ({g}, {d})")
    lg = math.log(g)
    if g + d >= 1.0:
        # triangle: z1, z2 >= gamma, z1 + z2 <= 1; the delta bound is inactive
        return dilog(g) - dilog(1.0 - g) - lg * math.log1p(-g) + lg * lg
    # full box minus the corner cut off by z1 + z2 > 1 (depends on delta only)
    corner = (math.log(d) * (math.log(d) - math.log1p(-d))
              + dilog(d) - dilog(1.0 - d))
    return math.log(d / g) ** 2 - corner


# --- windows of the form (gamma, 1]: the one-parameter recurrence -----------
#
# Q_k(gamma) = q_limit(k, (gamma, 1)).  Substituting the largest coordinate
# gives Q_{k+1}(gamma) = int_gamma^{1-k*gamma} Q_k(gamma/(1-z)) dz/z for
# gamma < 1/(k+1) and 0 otherwise.  Q_j vanishes at 1/j and has kinks at 1/m
# for integers m > j; levels are tabulated on the argument ranges actually
# reachable from the target gamma.

def _eval_Q(x, j, prev_fn, cfg):
    top = 1.0 - (j - 1) * x
    if top <= x:
        return 0.0
    brks = []
    m = j - 1
    while True:
        zb = 1.0 - m * x
        if zb <= x:
            break
        if zb < top:
            brks.append(zb)
        m += 1
    val, _ = integrate(lambda z: prev_fn(x / (1.0 - z)) / z, x, top, cfg,
                       breakpoints=brks)
    return val


def _build_Q_level(j, lo, cfg, prev_fn):
    hi = 1.0 / j
    if lo >= hi - _BND_EPS:
        return lambda x: 0.0
    inner = [1.0 / m for m in range(j + 1, int(1.0 / lo) + 2) if lo < 1.0 / m < hi]
    bounds = _dedupe([lo, hi] + inner)
    pieces = _interp_pieces(bounds, lambda x: _eval_Q(x, j, prev_fn, cfg))
    return _PiecewiseCheb(bounds, pieces, left=None, right=0.0)


def Q_recurrence(k, gamma, cfg=None):
    """Q_k(gamma): limiting k-th falling moment for the window (gamma, 1]."""
    g = float(gamma)
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    if not 0.0 < g < 1.0:
        raise DomainError(f"need 0 < gamma < 1, got {gamma}")
    if k == 0:
        return 1.0
    if k * g >= 1.0:
        return 0.0
    if k == 1:
        return -math.log(g)
    if cfg is None:
        cfg = QuadratureConfig()
    prev_fn = lambda x: -math.log(x) if x < 1.0 else 0.0
    for j in range(2, k):
        # smallest argument reachable at depth j from the target gamma
        lo = g / (1.0 - (k - j) * g)
        prev_fn = _build_Q_level(j, lo, cfg, prev_fn)
    return _eval_Q(g, k, prev_fn, cfg)


# --- limiting pmf and derived quantities -------------------------------------

def support_bound(gamma):
    """floor(1/gamma), exact for Fraction input."""
    if isinstance(gamma, Rational) and not isinstance(gamma, float):
        return int(Fraction(1) / Fraction(gamma))
    return int(math.floor(1.0 / float(gamma) + 1e-9))


def p_limit(iv: Interval, cfg=None):
    """Limiting pmf of the window cycle count, supported on {0..floor(1/gamma)}.

    Falling moments q_0..q_r from quadrature, inverted to probabilities;
    entries sum to 1 within the accumulated quadrature tolerance.
    """
    moments = _sliced_moments(support_bound(iv.gamma), iv.g, iv.d, 1.0, cfg)
    q = [1.0] + [max(v, 0.0) for v, _ in moments]
    return pmf_from_falling_moments(MomentVector(tuple(q)))


def p1_derivative(gamma):
    """d/dgamma of the limiting one-cycle probability for windows (gamma, 1].

    Valid on 1/3 < gamma < 1/2 where the support is {0, 1, 2}.
    """
    g = float(gamma)
    if not 1 / 3 < g < 0.5:
        raise DomainError(f"derivative formula holds on (1/3, 1/2), got {gamma}")
    return (-1.0 + 2.0 * (math.log1p(-g) - math.log(g))) / g


def gamma_star():
    """The gamma in (1/3, 1/2) maximizing the one-cycle probability of (gamma, 1].

    Bisection-safeguarded Newton on p1_derivative; closed form 1/(1+sqrt(e)).
    """
    lo, hi = 1 / 3 + 1e-9, 0.5 - 1e-9   # f > 0 at lo, f < 0 at hi
    x = 0.38
    for _ in range(100):
        fx = p1_derivative(x)
        if fx > 0:
            lo = x
        else:
            hi = x
        l = math.log1p(-x) - math.log(x)
        fpx = (2.0 * (-1.0 / (1.0 - x) - 1.0 / x) * x - (-1.0 + 2.0 * l)) / (x * x)
        step = fx / fpx
        nxt = x - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) < 1e-14:
            return nxt
        x = nxt
    return x


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def argmax_p(i, lo, hi, cfg=None, tol=1e-7):
    """Golden-section argmax over gamma in [lo, hi] of p_limit((gamma, 1))[i].

    Assumes (does not verify) unimodality of the objective on [lo, hi];
    abscissa tolerance tol.
    """
    if not 0.0 < lo < hi <= 1.0:
        raise DomainError(f"need 0 < lo < hi <= 1, got ({lo}, {hi})")
    if i < 0 or i > support_bound(lo):
        raise DomainError(f"index {i} outside the support bound for gamma >= {lo}")

    def val(g):
        p = p_limit(Interval(g, 1.0), cfg)
        return p[i] if i < len(p) else 0.0

    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = val(c), val(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = val(d)
    return 0.5 * (a + b)


def small_simplex_ratio(k, gamma, cfg=None):
    """Q_k(gamma) / (1 - k*gamma)^k, bounded between k^k/k! and gamma^{-k}/k!.

    Tends to k^k/k! as gamma approaches 1/k (the window degenerates to a
    right simplex of shrinking side).
    """
    g = float(gamma)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if not 0.0 < g < 1.0 / k:
        raise DomainError(f"need 0 < gamma < 1/{k}, got {gamma}")
    return Q_recurrence(k, g, cfg) / (1.0 - k * g) ** k


def ewens_lambda(iv: Interval, sigma, cfg=None):
    """integral_gamma^delta x^{-1} (1-x)^{sigma-1} dx for sigma > 0.

    For delta = 1 the integrand can be singular at the right endpoint
    (sigma < 1); the tail over [1-eps, 1] is summed exactly as the series
    sum_m eps^{sigma+m}/(sigma+m) after substituting t = 1-x.
    """
    s = float(sigma)
    if s <= 0:
        raise DomainError(f"need sigma > 0, got {sigma}")
    if cfg is None:
        cfg = QuadratureConfig()
    g, d = iv.g, iv.d
    f = lambda x: (1.0 - x) ** (s - 1.0) / x
    if d < 1.0:
        val, _ = integrate(f, g, d, cfg)
        return val
    eps = min(0.5, (1.0 - g) / 2.0)
    head, _ = integrate(f, g, 1.0 - eps, cfg)
    tail = 0.0
    term_pow = eps ** s
    m = 0
    while True:
        term = term_pow / (s + m)
        tail += term
        if term < 1e-17 * (1.0 + tail):
            break
        term_pow *= eps
        m += 1
    return head + tail
