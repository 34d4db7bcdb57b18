"""Limiting distribution of the number of cycles with normalized length in a window.

As n grows, the number of cycles of a uniform random permutation of [n] with
length in [gamma*n, delta*n] converges in distribution.  The r-th falling
moment of the limit is the integral of 1/(z_1 ... z_r) over the box
[gamma, delta]^r sliced by z_1 + ... + z_r <= 1.  The slice integrals of all
orders come from one ladder of levels, each a piecewise-Chebyshev
antiderivative of the level below; a caller that reads only the top order at
one slice integrates it in place, with no table.  p_limit inverts those
moments on windows with delta < 1.  Every window (gamma, 1] is one delay
equation in u = 1/gamma, solved by steps on unit pieces with no table and no
inversion: p_limit reads it at one u, the figure's rows at many u in one
pass, and argmax_p bisects on its closed-form slope.  The
companion one-parameter recurrence for windows (gamma, 1] stays iterated
GK15 quadrature, an oracle that shares no table with the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, require_int, require_sigma
from .quadrature import (
    _BND_EPS, _CHEB_ANTI, _CHEB_DEG, _CHEB_PTS, _STEP, _antiderivative, _dedupe,
    _gk15, _integral, _interp_pieces, _PiecewiseCheb, integrate,
)
from .quasi_poisson import (
    _CLAMP_FLOOR, MomentVector, Pmf, _is_exact, pmf_from_falling_moments,
)
from .special_fn import dilog

__all__ = [
    "Interval", "sliced_cube_integral", "q_limit",
    "q2_closed_form", "Q_recurrence", "p_limit", "p1_derivative",
    "gamma_star", "argmax_p", "small_simplex_ratio", "ewens_lambda",
]

@dataclass(frozen=True)
class Interval:
    """Normalized cycle-length window (gamma, delta) with 0 < gamma < delta <= 1.

    Endpoints may be floats or Fractions; Fractions keep support-bound
    arithmetic in p_limit exact.  A Fraction gamma below float64's range
    serves the exact routes, but g refuses it to the float ones.
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
        if g := float(self.gamma):
            return g
        raise DomainError(f"gamma = {self.gamma} underflows float64 to 0.0")

    @property
    def d(self):
        return float(self.delta)


# --- the sliced-box integral as a ladder of antiderivatives ------------------
#
# I_m(t) = integral over [gamma,delta]^m cut by sum <= t.  Differentiating in
# the slice gives t I_m'(t) = m [I_{m-1}(t-gamma) - I_{m-1}(t-delta)], so each
# level is one antiderivative of the level below, from its zero at m*gamma.
# I_m has kinks at t in {a*gamma + b*delta : a+b = m} and is constant
# (log(delta/gamma))^m above m*delta.  A term of its integrand starting at a
# kink k is singular at k - gamma: each kink-free segment is graded at k + gamma*2^i.

# The one support cap of p_limit, and the order cap of the sliced moments.  On
# windows (gamma, 1] it caps cost: the steps take about 0.14 s at support 1000
# (2 vCPU).  On the ladder it guards overflow, but not tightly: p_limit's
# delta < 1 windows build only the orders _ladder_pmf's cut keeps, but q_limit
# and sliced_cube_integral build every order, and high ones lose their digits
# (a sign lost past the error estimate raises DomainError).
LADDER_MAX_ORDER = 1000


def _box_moment(m, g, d):
    """ln(d/g)^m, order m at c >= m*d, from the np.log that level 1 reads; inf past float64."""
    return float(np.log(d / g) ** m)


def _layout(m, g, d, top, below, cuts=()):
    """(bounds, integrand) of level m >= 1 up to top, also cut at cuts; below reads level m - 1."""
    lo, hi = m * g, min(m * d, top)
    # the kinks below hi, rising from lo at a = m, then hi: the ends of the kink-free segments
    ends = [p for p in (a * g + (m - a) * d for a in range(m, -1, -1)) if p < hi] + [hi]
    graded = [k + g * 2.0 ** i for k, e in zip(ends, ends[1:])
              for i in range(int((e - k) / g).bit_length())]
    bounds = _dedupe([p for p in ends + graded + list(cuts) if lo <= p <= hi])
    if m == 1:
        return bounds, np.reciprocal
    # one call reads the level below at both shifts
    return bounds, lambda s: m * np.subtract(
        *below(np.concatenate((s - g, s - d))).reshape(2, -1)) / s


def _kernel_pair(m, g, d, top, below):
    """([I_m(top), I_{m+1}(top)], tail) from one read of level m's integrand f.

    Swapping the order of integration in I_{m+1}(c) = int (m+1)/s [I_m(s-gamma)
    - I_m(s-delta)] ds gives (m+1) int f(t) K_c(t) dt on level m's layout, with
    K_c(t) = ln(min(t+delta, c)/min(t+gamma, c)) >= 0 kinked at c - delta and
    c - gamma, and 0 above c - gamma.  I_m is int f, or _box_moment when known,
    and then f*K_c alone is integrated, up to c - gamma, or nothing if I_{m+1} = 0.
    """
    known = [_box_moment(m, g, min(d, top))] if m == 1 or top >= m * d - _BND_EPS else []
    if known and (m + 1) * g >= top - _BND_EPS:
        return known, 0.0
    bounds, f = _layout(m, g, d, top - g if known else top, below, (top - d, top - g))

    def stack(t):
        y = f(t)
        upper = (m + 1) * y * np.log(np.minimum(t + d, top) / np.minimum(t + g, top))
        return upper if known else np.concatenate((y, upper))
    values, tail = _integral(bounds, stack)
    return known + values, tail


def _ladder(r, g, d, top):
    """(levels, tail): the tables of orders 1..r up to the slice top, and their error.

    Level m reads I_m(c) at any c <= top; tail sums the tails of every
    _antiderivative the ladder builds.  Level 1 is ln(c/gamma) clipped to
    the window, not a table; above m*delta a table reads _box_moment.  The
    list stops at the last order with m*gamma < top - _BND_EPS, as every order
    above it is 0.
    """
    level, levels, tail = (lambda t: np.log(np.clip(t, g, d) / g)), [], 0.0
    for m in range(1, r + 1):
        if m * g >= top - _BND_EPS:
            break  # the region is empty or thinner than _BND_EPS
        if m > 1:
            bounds, integrand = _layout(m, g, d, top, level)
            coef, piece_tails = _antiderivative(bounds, integrand)
            above = _box_moment(m, g, d) if top >= m * d - _BND_EPS else None
            level = _PiecewiseCheb(bounds, coef, left=0.0, right=above)
            tail += float(piece_tails.sum())
        levels.append(level)
    return levels, tail


def _moments(r, g, d, top):
    """(values, tail): I_1..I_r at the slice top, as floats, and the error terms.

    Raises DomainError first when an order above LADDER_MAX_ORDER can be
    nonzero.  When r*delta <= top the box lies under the slice: every order is
    _box_moment, the tail 0, and nothing is built.  Otherwise order 1 is
    _box_moment at min(delta, top), orders 2..r-2 are the ends of _ladder's
    tables, and orders r-1 and r come from _kernel_pair on level r-1's
    integrand, with no table; values stops where _ladder's list would.  The
    tail adds _kernel_pair's to _ladder's.
    """
    if min(r, top / g) > LADDER_MAX_ORDER:
        raise DomainError(f"window ({g!r}, {d!r}) needs sliced moments past the "
                          f"ladder's order cap {LADDER_MAX_ORDER}; they can overflow float64")
    if top >= r * d - _BND_EPS:
        return [_box_moment(m, g, d) for m in range(1, r + 1)], 0.0
    levels, tail = _ladder(max(r - 2, 1), g, d, top)
    values = [_box_moment(1, g, min(d, top))][:len(levels)]
    values += [level.end() for level in levels[1:]]
    if r > 1 and (r - 1) * g < top - _BND_EPS:
        pair, more = _kernel_pair(r - 1, g, d, top, levels[-1])
        values[r - 2:] = pair if r * g < top - _BND_EPS else pair[:1]
        tail += more
    return values, tail


def sliced_cube_integral(r, iv: Interval, c, with_error=False):
    """Integral of 1/(z_1...z_r) over [gamma, delta]^r cut by sum z_i <= c.

    Exactly 0, before any level is built, when r*gamma >= c (the region is
    empty or degenerate); 1 when r = 0.  Otherwise order r of _moments,
    clamped at 0 when it is negative within its error estimate; a value below
    minus that estimate has lost its sign to rounding and raises DomainError,
    as does a value or estimate past float64.  The estimate is not a bound at
    high orders on wide windows: order 400 on (1/1000, 0.9] reads 1.27e183 with
    an estimate of 4.1e173, where tables chopped at rounding read 6.20e198.
    with_error also returns its error terms, plus eps times 8*r*|value| and,
    for node rounding, scale = min(c, r*delta), which bounds every node, times
    each integrand's total variation.  Level m's integrand f_m, 2 <= m < r,
    varies by at most 4*I_{m-1}(c)/gamma and never exceeds I_{m-1}(c)/gamma;
    K_c falls from at most L = ln(delta/gamma) to 0, so order r's
    r*f_{r-1}*K_c varies by at most 5*r*L*I_{r-2}(c)/gamma, with I_0 = 1 (no
    term at r = 1, a closed form).
    """
    require_int(r=r)
    if r < 0 or not (c > 0 or r == 0 and c >= 0):
        raise DomainError(f"need r >= 0 and c > 0 (c >= 0 if r = 0), got r={r}, c={c}")
    c = float(c)  # a Fraction would make the levels' numpy arrays object arrays
    val, err = (1.0 if r == 0 else 0.0), 0.0
    if r > 0 and r * iv.g < c - _BND_EPS:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            values, tail = _moments(r, iv.g, iv.d, c)
        val, low = values[-1], ([0.0, 1.0] + values)[-3]  # I_{r-2}: 1 at r = 2, 0 at r = 1
        variation = 4 * sum(map(abs, values[:-2])) + 5 * r * math.log(iv.d / iv.g) * abs(low)
        err = tail + math.ulp(1.0) * (8 * r * abs(val) + min(c, r * iv.d) / iv.g * variation)
        if not (math.isfinite(val) and math.isfinite(err)):
            raise DomainError(f"order {r} on ({iv.g}, {iv.d}] at c={c} overflows float64")
        if val < -err:
            raise DomainError(f"order {r} on ({iv.g}, {iv.d}] at c={c} lost its sign: "
                              f"{val:.3e} below its error estimate {err:.3e}")
        val = max(val, 0.0)  # a positive integral: err covers the clamped value too
    return (val, err) if with_error else val


def q_limit(r, iv: Interval):
    """Limiting r-th falling moment of the window cycle count: the c = 1 slice."""
    return sliced_cube_integral(r, iv, 1.0)


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

def _integrate_Q(xs, j, prev_fn):
    """Q_j at every x in the flat array xs, one GK15 panel per piece of [x, 1 - (j-1)x].

    The kinks z = 1 - m*x, m >= j, cut the pieces [max(x, 1 - (m+1)x), 1 - m*x].  On each
    the integrand is analytic, its poles z = 0 and 1 a piece width or more away (Bernstein
    ellipse rho >= 3 + sqrt(8)), so one panel is at rounding.
    """
    z = 1.0 - np.arange(j - 1, int(1.0 / xs.min()) + 3) * xs[:, None]  # row i: 1 - m*x_i
    lo, hi = np.maximum(xs[:, None], z[:, 1:]), z[:, :-1]
    live = hi > xs[:, None]
    owner = np.nonzero(live)[0]
    vals, _ = _gk15(lambda t: prev_fn(xs[owner, None] / (1.0 - t)) / t, lo[live], hi[live])
    return np.bincount(owner, vals, xs.size)  # each x's panels summed in order


def _build_Q_level(j, lo, prev_fn):
    hi = 1.0 / j
    if lo >= hi - _BND_EPS:
        return lambda x: np.zeros(np.shape(x))
    inner = [1.0 / m for m in range(j + 1, int(1.0 / lo) + 2) if lo < 1.0 / m < hi]
    bounds = _dedupe([lo, hi] + inner)
    coef = _interp_pieces(bounds, lambda xs: _integrate_Q(xs, j, prev_fn))
    return _PiecewiseCheb(bounds, coef, left=None, right=0.0)


RECURRENCE_MAX_PIECES = 250_000  # GK15 panels, up to about 1.7 s; Q_recurrence refuses more


def _recurrence_pieces(k, g):
    # The GK15 panels Q_recurrence(k, g) evaluates, one a piece: level j < k spans [lo, 1/j],
    # and its 33 nodes in each (1/(i+1), 1/i) have i - j + 1 pieces, 33*s*(s+1)/2 in all for
    # s = 1/lo - j + 1 = 1/g - k + 1, the same at every level; level k is one integral at g.
    s = 1.0 / g - k + 1
    return (1.0 / g - k) + (k - 2) * 33 * s * (s + 1) / 2


def Q_recurrence(k, gamma):
    """Q_k(gamma): limiting k-th falling moment for the window (gamma, 1]."""
    require_int(0, k=k)
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise DomainError(f"need 0 < gamma < 1, got {gamma}")
    if k == 0:
        return 1.0
    if k * g >= 1.0:
        return 0.0
    if k == 1:
        return -math.log(g)
    if _recurrence_pieces(k, g) > RECURRENCE_MAX_PIECES:
        raise DomainError(f"Q_recurrence({k}, {gamma!r}) needs over "
                          f"{RECURRENCE_MAX_PIECES} GK15 pieces")
    prev_fn = lambda x: -np.log(np.minimum(x, 1.0))
    for j in range(2, k):
        # smallest argument reachable at depth j from the target gamma
        lo = g / (1.0 - (k - j) * g)
        prev_fn = _build_Q_level(j, lo, prev_fn)
    return float(_integrate_Q(np.array([g]), k, prev_fn)[0])


# --- limiting pmf and derived quantities -------------------------------------

def support_bound(gamma):
    """floor(1/gamma), exact for Fraction input."""
    if _is_exact(gamma):
        return int(Fraction(1) / Fraction(gamma))
    return int(math.floor(1.0 / float(gamma) + 1e-9))


def p_limit(iv: Interval):
    """Limiting pmf of the window cycle count, supported on {0..r}, r = floor(1/gamma).

    Windows (gamma, 1] solve their delay equation by steps (_steps_pmf).
    Windows with delta < 1 invert the falling moments of _moments at the
    slice 1, up to the order _ladder_pmf's tail bound needs.  Raises
    DomainError when r > LADDER_MAX_ORDER.
    """
    r = support_bound(iv.gamma)
    if r > LADDER_MAX_ORDER:
        raise DomainError(f"window ({iv.gamma!r}, {iv.delta!r}) has support {r}, past the "
                          f"ladder's order cap {LADDER_MAX_ORDER}")
    if iv.delta == 1:
        return Pmf(tuple(_steps_pmf([float(1 / iv.gamma)], r)[0].tolist()))
    return _ladder_pmf(r, iv.g, iv.d)


def _ladder_pmf(r, g, d):
    """The pmf on {0..r} inverted from _moments at the slice 1; negative moments read as 0.

    Only q_0..q_m are inverted and the pmf padded with zeros, m <= r the
    first order whose tail sum_{j>m} x^j/j!, x = 2 ln(d/g), is below 1e-17:
    q_j <= ln(d/g)^j and C(j, i) <= 2^j, so that tail bounds each entry's
    move.  Once m + 2 > x the tail is at most t_{m+1} (m + 2)/(m + 2 - x),
    t_j = x^j/j!, as later terms fall by x/(m + 2) or more.
    """
    x = 2.0 * math.log(d / g)
    m, t = 0, x
    while m < r and not (m + 2 > x and t * (m + 2) / (m + 2 - x) < 1e-17):
        m += 1
        t *= x / (m + 1)
    values, _ = _moments(m, g, d, 1.0)
    q = [1.0] + [max(v, 0.0) for v in values] + [0.0] * (m - len(values))
    pmf = pmf_from_falling_moments(MomentVector(tuple(q)))
    return pmf if m == r else Pmf(pmf.probs + (0.0,) * (r - m))


_K = np.arange(_CHEB_DEG + 2)  # the degrees k of T_k(y) = cos(k arccos y) in an antiderivative


def _steps_pmf(u, r):
    """The pmfs of (1/u, 1] on {0..r}, a row for each u >= 0 of an array, from one pass of steps.

    In u = t/gamma, F_j(u) = rho_{j+1}(u) - rho_j(u) (Knuth and Trabb Pardo,
    Theoret. Comput. Sci. 3, 1976) solves u F_j'(u) = (F_{j-1} - F_j)(u - 1)
    from F_j = [j = 0] on [0, 1], with F_{-1} = 0, and P_j = F_j(u); a u
    below 1 reads that constant piece, the row [1, 0, ...].  On each
    later piece [p, p + 1], F_j is 0 below j, and the integrand's node values
    g come from the last piece's: a point p + h reads F at p plus g's
    antiderivative (_CHEB_ANTI) at T_k(2h - 1), and one product with _STEP
    gives the piece's node values, less F at p, and its rise.  Columns above r
    are dropped; rounding negatives are clamped to 0 and each row
    renormalized, and an entry below the inversion's floor raises
    DomainError, as pmf_from_falling_moments does.
    """
    u = np.asarray(u, dtype=float)
    piece = np.minimum(u.astype(int), r)
    t = np.cos(np.outer(np.arccos(2.0 * (u - piece) - 1.0), _K))
    out = np.zeros((u.size, r + 1))
    f = np.zeros((r + 2, _CHEB_DEG + 1))  # row j + 1: F_j at the last piece's nodes; row 0: F_{-1}
    end = np.zeros(r + 1)                  # F_j at the last piece's right end
    f[1], end[0], reads = 1.0, 1.0, set(piece.tolist())
    out[piece == 0, 0] = 1.0  # the constant piece [0, 1]
    for p in range(1, (last := max(reads)) + 1):
        # (F_{j-1} - F_j)(u - 1)/u at u = p + (1 + x)/2, halved for the piece's half-width
        g = (f[:p + 1] - f[1:p + 2]) / (2 * p + 1 + _CHEB_PTS)
        if p in reads:
            at = piece == p
            out[at, :p + 1] = end[:p + 1] + t[at] @ (g @ _CHEB_ANTI).T
        if p < last:
            step = g @ _STEP
            f[1:p + 2] = end[:p + 1, None] + step[:, :-1]
            end[:p + 1] += step[:, -1]
    if not (low := out.min(axis=1)).min() >= _CLAMP_FLOOR:  # nan fails too
        i = int(np.argmin(low))
        raise DomainError(f"steps on (1/{float(u[i])!r}, 1] give P = {float(low[i])!r}, below "
                          f"the rounding floor {_CLAMP_FLOOR}")
    probs = np.maximum(out, 0.0)
    return probs / np.array([[math.fsum(row)] for row in probs.tolist()])


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

    1/(1 + sqrt(e)), the zero of p1_derivative: -1 + 2 ln((1 - g)/g) = 0.
    """
    return 1.0 / (1.0 + math.sqrt(math.e))


def _p_slope(i, gamma):
    """d/dgamma of p_limit((gamma, 1))[i], in closed form from one p_limit.

    P_i(gamma) = F_i(1/gamma), and the delay equation of _steps_pmf gives
    P_i'(gamma) = [P_i(g') - P_{i-1}(g')]/gamma, g' = gamma/(1 - gamma), the
    pmf of (g', 1], or [1, 0, ...] when g' >= 1; P_{-1} = 0.  On (1/3, 1/2) at
    i = 1 this is p1_derivative.
    """
    g = gamma / (1.0 - gamma)
    p = (0.0,) + (p_limit(Interval(g, 1.0)).probs if g < 1.0 else (1.0,)) + (0.0,) * (i + 1)
    return (p[i + 1] - p[i]) / gamma


def argmax_p(i, lo, hi):
    """Argmax over gamma in [lo, hi] of p_limit((gamma, 1))[i].

    Bisects on the sign of _p_slope, halving the bracket until its midpoint
    is no longer strictly inside it.  Assumes (does not verify) unimodality
    of the objective on [lo, hi]; a monotone objective gives the end it
    rises to.
    """
    require_int(i=i)
    if not 0.0 < lo < hi <= 1.0:
        raise DomainError(f"need 0 < lo < hi <= 1, got ({lo}, {hi})")
    if i < 0 or i > support_bound(lo):
        raise DomainError(f"index {i} outside the support bound for gamma >= {lo}")
    lo, hi = float(lo), float(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _p_slope(i, mid) > 0:
            lo = mid
        else:
            hi = mid
    return mid


def small_simplex_ratio(k, gamma):
    """Q_k(gamma) / (1 - k*gamma)^k, bounded between k^k/k! and gamma^{-k}/k!.

    Tends to k^k/k! as gamma approaches 1/k (the window degenerates to a
    right simplex of shrinking side).
    """
    require_int(1, k=k)
    g = float(gamma)
    if not 0.0 < g < 1.0 / k:
        raise DomainError(f"need 0 < gamma < 1/{k}, got {gamma}")
    return Q_recurrence(k, g) / (1.0 - k * g) ** k


def ewens_lambda(iv: Interval, sigma):
    """integral_gamma^delta x^{-1} (1-x)^{sigma-1} dx for sigma > 0.

    sigma times this is the window's limiting mean cycle count under Ewens(sigma).  In
    t = logit x - logit gamma it is one GK15 integral of (1 + e^v)^-sigma, at most 1 and
    decreasing, to the rounding floor: up to the exact logit width log1p((delta - gamma) /
    (gamma (1 - delta))) or the cut where ln(1 + e^v) has risen 42/sigma, past which it is
    under 2^-60 of its start.  Against 50-digit routes the relative error is under 1e-13
    for gamma in [1e-3, 0.999], sigma in [1e-3, 300] and widths down to 1e-12 (values over
    1e-250), and 1e-14 for gamma down to 1e-300 at sigma in [0.5, 7.5].  Below sigma =
    4.7e-307 the cut of (gamma, 1] passes half of float64's range, panel midpoints overflow
    and DomainError is raised, though the value, about 1/sigma, is finite to 5.6e-309.
    """
    s = require_sigma(sigma)
    g, d = iv.g, iv.d
    a = math.log(g) - math.log1p(-g)  # logit gamma
    top = 42.0 / s - math.log1p(-g)  # ln(1 + e^v) at the cut
    w = top + math.log(-math.expm1(-top)) - a
    w = w if d == 1.0 else min(w, math.log1p((d - g) / (g * (1.0 - d))))
    if not math.isfinite(2.0 * w):  # every panel's a + b must be finite
        raise DomainError(f"sigma = {sigma!r} puts the cut past half of float64's range")
    f = lambda t: math.exp(-s * (max(a + t, 0.0) + math.log1p(math.exp(-abs(a + t)))))
    return integrate(f, 0.0, w, math.ulp(0.0))[0]
