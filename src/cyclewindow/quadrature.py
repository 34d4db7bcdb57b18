"""Adaptive one-dimensional quadrature.

integrate and integrate_many use a 15-point Gauss-Kronrod pair, and
integrate_simpson adaptive Simpson, kept for independent checks; each takes
one setting, tol, the absolute error allowed for the whole integral.  The
Kronrod extension of the 7-point Gauss rule is built at import time from the
degree-8 Stieltjes polynomial with numpy's Legendre module, not pasted in as
decimal literals; tests pin polynomial exactness through degree 23 and every
node and weight against a 40-digit construction.

The Gauss-Kronrod nodes are interior points, so integrands may be singular
at the interval endpoints as long as the integral itself is finite.

Gauss-Kronrod refinement runs in integrate_many, which integrates a batch
of intervals at once: every round it evaluates the integrand on all live
panels of all integrals in one array call, halves the panels that miss
their tolerance and adds the rest to their integrals' totals.  An integral
receives only its own panels, in the same order whatever else the batch
holds, so integrate(), a batch of one over a scalar integrand, gives it
the same bits.  A panel whose error estimate is within its rounding floor,
50*eps*|value|, is accepted, since halving cannot reduce rounding noise.
A non-finite panel estimate, or more than MAX_LIVE_PANELS live panels in
one integral, raises ToleranceNotMet rather than refining on to MAX_DEPTH.

_PiecewiseCheb holds Chebyshev series on consecutive pieces and evaluates
them on arrays, a scalar giving a 0-d array; end() is the value at the last
bound, the last piece's coefficient sum, as every T_k is 1 at +1.
_interp_pieces fits every piece with one product of its node values and a
fixed matrix; the coefficients agree with Chebyshev.interpolate's within
about eps*max|f|, while evaluation has numpy's bits.
_antiderivative integrates a function on every piece at once, with one matrix
product and one cumsum, chopping columns below rounding: the method of steps
for delay equations (Bellman and Cooke, Differential-Difference Equations,
1963) behind the limit ladder.  _STEP takes one such step on one piece whose
integrand is the previous piece's node values, as limit_integrals._steps_pmf
does.
_integral gives only totals, with no table: on the same nodes, Fejer's
first rule (Fejer, 1933; Trefethen, SIAM Review 50, 2008) is one product
with a fixed matrix, for a stack of integrands read in one call.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import legendre as leg
from numpy.polynomial.chebyshev import chebint, chebpts1, chebvander

from .errors import DomainError, ToleranceNotMet

MAX_DEPTH = 40  # a panel this deep is accepted whatever its error estimate
_EPS = np.finfo(float).eps
_FLOOR = 50 * _EPS  # GK15 rounding floor, relative to |value|


def _build_gk15():
    """Nodes and weights of the (G7, K15) pair on [-1, 1].

    The eight Kronrod-only nodes are the roots of the Stieltjes polynomial
    E_8 = P_8 + c_6 P_6 + c_4 P_4 + c_2 P_2 + c_0 P_0, defined by
    orthogonality of E_8 * P_7 to P_k for k = 0..7.  E_8 * P_7 is odd, so the
    even-k conditions hold by symmetry and the odd-k ones are a 4x4 solve
    whose inner products the 12-point Gauss rule gives exactly (the
    integrands have degree at most 23).  legroots' roots get two Newton
    steps on E_8.  The Kronrod weights are interpolatory, solved in the
    Legendre basis (well conditioned); the Gauss weights are leggauss's.
    """
    gauss_nodes, gauss_weights = leg.leggauss(7)
    x, w = leg.leggauss(12)
    p, p7 = leg.legvander(x, 8), leg.legval(x, [0.0] * 7 + [1.0])  # p[:, j] = P_j(x)
    # gram[i, j] = integral of P_7 P_{2i+1} P_{2j}, i = 0..3, j = 0..4.  With
    # legval's P_7 rather than p[:, 7] the rounding happens to leave the nodes
    # within 1.4e-16 of their 40-digit values, not 2.5e-16.
    gram = (p[:, 1::2] * w[:, None] * p7[:, None]).T @ p[:, ::2]
    e8 = np.zeros(9)
    e8[::2] = np.append(np.linalg.solve(gram[:, :4], -gram[:, 4]), 1.0)
    kron_only = leg.legroots(e8)
    for _ in range(2):
        kron_only -= leg.legval(kron_only, e8) / leg.legval(kron_only, leg.legder(e8))
    nodes = np.sort(np.concatenate([gauss_nodes, kron_only]))

    # interpolatory weights: sum_i w_i P_j(x_i) = 2*delta_{j0}, j = 0..14
    w_kron = np.linalg.solve(leg.legvander(nodes, 14).T, np.eye(15)[0] * 2.0)
    w_gauss = np.zeros(15)
    w_gauss[np.searchsorted(nodes, gauss_nodes)] = gauss_weights
    return tuple(map(float, nodes)), tuple(map(float, w_kron)), tuple(map(float, w_gauss))


GK15_NODES, GK15_WEIGHTS, GK15_GAUSS_WEIGHTS = _build_gk15()


_NODES = np.array(GK15_NODES)
_GK_PAIRS = tuple(zip(GK15_WEIGHTS, GK15_GAUSS_WEIGHTS))

# Live panels one integral may hold in a refinement round.  The widest
# refinement in the test suite and the benchmark holds 128 (cos(40x) on
# [0, 10]); the rounding floor keeps a large integrand such as
# 1/(1e-6 + (x - 1/2)^2) from refining into noise (it holds 12).  An
# integrand that never settles would otherwise double its panels every round
# up to MAX_DEPTH.
MAX_LIVE_PANELS = 1 << 16


def _pieces(lo, hi, breakpoints):
    """Consecutive (a, b) pieces of [lo, hi] split at its interior breakpoints."""
    if hi <= lo:
        return []
    pts = [lo] + sorted(p for p in set(breakpoints) if lo < p < hi) + [hi]
    return list(zip(pts, pts[1:]))


def _not_met(i, message, value=None, achieved=None, requested=None):
    return ToleranceNotMet(f"integral {i}: {message}", value=value,
                           achieved=achieved, requested=requested)


def integrate_many(f, los, his, tol=1e-11, breakpoints=None):
    """Integrate n integrands, integral i over [los[i], his[i]], in one pass.

    f(x, owner) takes a (panels, 15) array of abscissae and the integral index
    of each row, and returns the integrand values in the same shape.
    breakpoints, if given, holds one iterable of kink abscissae per integral.
    Each integral follows the rules of integrate(): its pieces between
    breakpoints get tolerance tol*(b-a)/(hi-lo), halved at each split; a GK15
    panel is accepted when its error is at most the larger of its tolerance
    and its rounding floor 50*eps*|value|, or at MAX_DEPTH, and its value,
    error and floor are then added to its integral's totals.  All live
    panels of all integrals are refined together, breadth first, so f sees
    one array per round and only live panels are held.

    Returns (values, errors) arrays.  Raises ToleranceNotMet, naming the
    first failing integral, when a panel estimate is not finite, when one
    integral needs more than MAX_LIVE_PANELS live panels, or when an
    integral's summed error exceeds tol plus its summed floors.
    """
    if not tol > 0:
        raise DomainError(f"need tol > 0, got {tol}")
    n = len(los)
    if breakpoints is None:
        breakpoints = [()] * n
    owner, lo, hi, ptol = [], [], [], []
    for i, (a, b, bps) in enumerate(zip(los, his, breakpoints)):
        for pa, pb in _pieces(a, b, bps):
            owner.append(i)
            lo.append(pa)
            hi.append(pb)
            ptol.append(tol * (pb - pa) / (b - a))
    owner = np.array(owner, dtype=np.intp)
    lo, hi, ptol = np.array(lo, dtype=float), np.array(hi, dtype=float), np.array(ptol)
    totals, errs, floors = np.zeros(n), np.zeros(n), np.zeros(n)
    depth = 0
    while owner.size:
        h = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        y = f(mid[:, None] + h[:, None] * _NODES, owner)
        kron = np.zeros(owner.size)
        gauss = np.zeros(owner.size)
        with np.errstate(invalid="ignore", over="ignore"):
            # a node at a time, not y @ W: a BLAS product may sum a row in an
            # order that depends on the batch, and the batch would move its bits
            for j, (wk, wg) in enumerate(_GK_PAIRS):
                kron += wk * y[:, j]
                if wg:
                    gauss += wg * y[:, j]
            val = h * kron
            # |K - G| is a conservative estimate of the Kronrod value's error
            err = np.abs(h * (kron - gauss))
            bad = np.flatnonzero(~np.isfinite(val + err))
        if bad.size:
            k = bad[0]
            raise _not_met(int(owner[k]), f"non-finite panel estimate on "
                           f"[{lo[k]!r}, {hi[k]!r}]", requested=float(ptol[k]))
        floor = _FLOOR * np.abs(val)
        split = (err > np.maximum(ptol, floor)) & (depth < MAX_DEPTH)
        done = ~split
        for out, panel in zip((totals, errs, floors), (val, err, floor)):
            np.add.at(out, owner[done], panel[done])
        lo, hi, mid = lo[split], hi[split], mid[split]
        lo = np.column_stack((lo, mid)).ravel()
        hi = np.column_stack((mid, hi)).ravel()
        ptol = np.repeat(0.5 * ptol[split], 2)
        owner = np.repeat(owner[split], 2)
        if owner.size > MAX_LIVE_PANELS:
            live = np.bincount(owner)
            if live.max() > MAX_LIVE_PANELS:
                raise _not_met(int(live.argmax()), f"more than {MAX_LIVE_PANELS} "
                               f"live panels at depth {depth + 1}")
        depth += 1
    allowed = tol + floors
    failed = np.flatnonzero(errs > allowed)
    if failed.size:
        i = int(failed[0])
        raise _not_met(i, f"quadrature error estimate {errs[i]:.3e} exceeds "
                       f"tolerance {allowed[i]:.3e}", value=float(totals[i]),
                       achieved=float(errs[i]), requested=float(allowed[i]))
    return totals, errs


def integrate(f, lo, hi, tol=1e-11, breakpoints=()):
    """Integrate the scalar function f over [lo, hi] by adaptive GK15.

    breakpoints are interior abscissae where f or one of its derivatives has
    a kink; the interval is pre-split there so no panel straddles one
    (adaptive rules converge slowly across kinks).  Returns
    (value, error_estimate) and raises ToleranceNotMet as integrate_many
    does, of which this is a batch of one.
    """
    mapped = lambda x, _owner: np.array(
        [f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    vals, errs = integrate_many(mapped, [lo], [hi], tol, [breakpoints])
    return float(vals[0]), float(errs[0])


def _simpson(fa, fm, fb, lo, hi):
    return (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt_simpson(f, lo, hi, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (lo + hi)
    lm = 0.5 * (lo + mid)
    rm = 0.5 * (mid + hi)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, lo, mid)
    right = _simpson(fm, frm, fb, mid, hi)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise ToleranceNotMet(f"non-finite panel estimate on [{lo!r}, {hi!r}]",
                              requested=tol)
    err = abs(delta) / 15.0
    if err <= tol or depth >= MAX_DEPTH:
        return left + right + delta / 15.0, err
    v1, e1 = _adapt_simpson(f, lo, mid, fa, flm, fm, left, 0.5 * tol, depth + 1)
    v2, e2 = _adapt_simpson(f, mid, hi, fm, frm, fb, right, 0.5 * tol, depth + 1)
    return v1 + v2, e1 + e2


def integrate_simpson(f, lo, hi, tol, breakpoints=()):
    """Integrate the scalar function f over [lo, hi] by adaptive Simpson.

    A scalar recursion with Richardson-corrected panels, kept as a rule that
    shares no nodes with GK15.  breakpoints, the return value and the
    failures are as in integrate(), without the rounding floor.
    """
    if not tol > 0:
        raise DomainError(f"need tol > 0, got {tol}")
    width = hi - lo
    total = 0.0
    err = 0.0
    for a, b in _pieces(lo, hi, breakpoints):
        fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
        whole = _simpson(fa, fm, fb, a, b)
        v, e = _adapt_simpson(f, a, b, fa, fm, fb, whole, tol * (b - a) / width, 0)
        total += v
        err += e
    if err > tol:
        raise ToleranceNotMet(
            f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}",
            value=total, achieved=err, requested=tol)
    return total, err


# --- piecewise Chebyshev tables ---------------------------------------------

_CHEB_DEG = 32
_BND_EPS = 1e-13
_CHEB_PTS = chebpts1(_CHEB_DEG + 1)
# row k: Chebyshev coefficients of the antiderivative of T_k vanishing at -1
_CHEB_INTEG = chebint(np.eye(_CHEB_DEG + 1), lbnd=-1, axis=1)
# node values to the interpolant's Chebyshev coefficients, a row per node:
# the discrete orthogonality of T_0..T_32 on the 33 first-kind nodes
_CHEB_FIT = (chebvander(_CHEB_PTS, _CHEB_DEG) * np.r_[1.0, np.full(_CHEB_DEG, 2.0)]
             / (_CHEB_DEG + 1))
# node values to, by column, half the interpolant's integral over [-1, 1]
# (Fejer's first-rule weights: each T_k's integral through _CHEB_FIT) and
# the interpolant's last two coefficients, c_31 and c_32
_CHEB_QUAD = np.column_stack((_CHEB_FIT @ _CHEB_INTEG.sum(axis=1) / 2.0, _CHEB_FIT[:, -2:]))
# node values of a function on a piece to the Chebyshev coefficients of its
# interpolant's antiderivative from the piece's left end, in the piece's variable
_CHEB_ANTI = _CHEB_FIT @ _CHEB_INTEG
# the same to, by column, that antiderivative at the same nodes and, last, the
# function's integral over the piece: one step of limit_integrals._steps_pmf,
# whose function is the previous piece's node values
_STEP = np.column_stack((_CHEB_ANTI @ chebvander(_CHEB_PTS, _CHEB_DEG + 1).T,
                         2.0 * _CHEB_QUAD[:, 0]))


class _PiecewiseCheb:
    """Chebyshev pieces on consecutive [bounds[i], bounds[i+1]] intervals.

    coef holds one row of Chebyshev coefficients per piece, lowest degree
    first, in the piece's own variable on [-1, 1].  left/right give the value
    outside the tabulated range; None clamps to the nearest endpoint (for
    queries that only stray past it by roundoff).  Calls take arrays: each
    point's piece is found by searchsorted and all points run one Clenshaw
    recurrence together, in numpy's mapdomain/chebval operation order, so
    values are bit-identical to Chebyshev(coef[i], domain=[a, b])(t).
    """

    def __init__(self, bounds, coef, left, right):
        self.bounds = b = np.array(bounds, dtype=float)
        lo, hi = b[:-1], b[1:]
        # numpy's mapparms from each piece's domain to the window [-1, 1]
        self.off = (hi * -1.0 - lo * 1.0) / (hi - lo)
        self.scl = 2.0 / (hi - lo)
        # row k holds coefficient k of every piece, highest degree first
        self.coef = np.ascontiguousarray(np.asarray(coef, dtype=float)[:, ::-1].T)
        self.left = left
        self.right = right

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        b = self.bounds
        tc = np.clip(t, b[0], b[-1])
        i = np.minimum(np.searchsorted(b, tc, side="right") - 1, len(b) - 2)
        # one gather of every point's piece coefficients, not one per step
        out = _clenshaw(self.off[i] + self.scl[i] * tc, *self.coef[:, i])
        if self.left is not None:
            out = np.where(t <= b[0], self.left, out)
        if self.right is not None:
            out = np.where(t >= b[-1], self.right, out)
        return out

    def end(self):
        """The value at the last bound: right if set, else the last piece's coefficient sum."""
        return float(self.coef[:, -1].sum()) if self.right is None else float(self.right)


def _clenshaw(x, c1, c0, *rows):
    # numpy's chebval recurrence, highest coefficient first, with numpy's bits
    x2 = 2 * x
    for a in rows:
        c0, c1 = a - c1, c0 + c1 * x2
    return c0 + c1 * x


def _dedupe(points):
    out = []
    for p in sorted(points):
        if not out or p - out[-1] > _BND_EPS:
            out.append(p)
    return out


def _nodes(b):
    """The 33 first-kind Chebyshev nodes of each piece of the bounds array b, a row each."""
    lo, hi = b[:-1, None], b[1:, None]
    # numpy's mapdomain from the window [-1, 1] to each piece
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * _CHEB_PTS


def _interp_pieces(bounds, fn):
    """Degree-32 Chebyshev coefficients of fn, one row per [bounds[i], bounds[i+1]].

    fn maps the flat array of every piece's 33 nodes to values in one call,
    and one product with _CHEB_FIT fits every piece.  The nodes are
    Chebyshev.interpolate's, and the coefficients agree with its within
    about eps*max|f| over the piece's nodes.
    """
    nodes = _nodes(np.asarray(bounds, dtype=float))
    return np.reshape(fn(nodes.ravel()), nodes.shape) @ _CHEB_FIT


def _antiderivative(bounds, fn):
    """Running integral F of fn over the pieces of bounds, F(bounds[0]) = 0.

    Returns (coef, tail): F's Chebyshev coefficients, one row per piece, and
    per piece (b - a)(|c_31| + |c_32|) from the last two coefficients of fn's
    interpolant, an estimate of the error it adds to F.  The rows are chopped
    (Aurentz and Trefethen, ACM TOMS 43, 2017) to one degree from 1 to 33:
    with columns weighed by their largest |coefficient|, a column goes when
    it and all above it weigh at most eps times all columns.  Every piece's
    tail adds the chopped weight, a bound on the change, as |T_k| <= 1.
    """
    coef = _interp_pieces(bounds, fn)
    width = np.diff(np.asarray(bounds, dtype=float))
    anti = coef @ _CHEB_INTEG * (0.5 * width)[:, None]
    rise = anti.sum(axis=1)  # F's rise over each piece: every T_k is 1 at +1
    anti[:, 0] += np.concatenate(([0.0], np.cumsum(rise[:-1])))
    # mass[j]: the sum of the last j + 1 columns' largest |coefficient|
    mass = np.abs(anti).max(axis=0)[::-1].cumsum()
    drop = min(int(np.count_nonzero(mass <= _EPS * mass[-1])), mass.size - 2)
    chopped = mass[drop - 1] if drop else 0.0
    return anti[:, :mass.size - drop], width * np.abs(coef[:, -2:]).sum(axis=1) + chopped


def _integral(bounds, fn):
    """(values, tail): the integrals of k integrands over the pieces of bounds, no table.

    fn maps the flat array of _interp_pieces's nodes to the k integrands'
    values there, one after another, and one product with _CHEB_QUAD gives
    each piece's interpolant integrals and their c_31 and c_32; tail sums
    _antiderivative's per-piece (b - a)(|c_31| + |c_32|) over all k, unchopped.
    """
    b = np.asarray(bounds, dtype=float)
    nodes = _nodes(b)
    # (k, pieces, 3): each piece's interpolant integral, |c_31| and |c_32|
    quad = np.reshape(fn(nodes.ravel()), (-1,) + nodes.shape) @ _CHEB_QUAD
    np.abs(quad[..., 1:], out=quad[..., 1:])
    rows = ((b[1:] - b[:-1]) @ quad).tolist()
    return [value for value, _, _ in rows], sum(c31 + c32 for _, c31, c32 in rows)
