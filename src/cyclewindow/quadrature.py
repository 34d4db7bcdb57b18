"""Adaptive one-dimensional quadrature.

integrate uses a 15-point Gauss-Kronrod pair, and integrate_simpson
Richardson-corrected Simpson, kept for independent checks; each takes one
setting, tol, the absolute error allowed for the whole integral.  The Kronrod
extension of the 7-point Gauss rule is built at import time from the degree-8
Stieltjes polynomial with numpy's Legendre module, not pasted in as decimal
literals; tests pin polynomial exactness through degree 23 and every node and
weight against a 40-digit construction.

The Gauss-Kronrod nodes are interior points, so integrands may be singular
at the interval endpoints as long as the integral itself is finite.

One loop, _refine, serves both rules, breadth first: a round evaluates every
live panel in one call of the rule (_gk15 or _simpson, each taking arrays of
panel ends), halves those that miss their tolerance and adds the rest to the
totals.  A panel within its rounding floor, 50*eps*|value|, is accepted,
since halving cannot reduce rounding noise.  limit_integrals.Q_recurrence
gives _gk15 one panel per kink-free piece, with no refinement.

_PiecewiseCheb holds Chebyshev series on consecutive pieces and evaluates
them on arrays, a scalar giving a 0-d array; end() is the value at the last
bound, the last piece's coefficient sum, as every T_k is 1 at +1.
_interp_pieces fits every piece with one product of its node values and a
fixed matrix; the coefficients agree with Chebyshev.interpolate's within
about eps*max|f|, while evaluation has numpy's bits.
_antiderivative integrates a function on every piece at once, with one matrix
product and one cumsum, keeping all 34 coefficients: the method of steps
for delay equations (Bellman and Cooke, Differential-Difference Equations,
1963) behind the limit ladder.  _STEP takes one such step on one piece whose
integrand is the previous piece's node values, as limit_integrals._steps_pmf
does.
_integral gives only totals, with no table: on the same nodes, Fejer's
first rule (Fejer, 1933; Trefethen, SIAM Review 50, 2008) is one product
with a fixed matrix, for a stack of integrands read in one call.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import legendre as leg
from numpy.polynomial.chebyshev import chebint, chebpts1, chebvander
from numpy.polynomial.polyutils import mapdomain, mapparms

from .errors import DomainError, ToleranceNotMet

MAX_DEPTH = 40  # a panel this deep is accepted whatever its error estimate
_FLOOR = 50 * np.finfo(float).eps  # a panel's rounding floor, relative to |value|


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

# Live panels _refine may hold in a round.  The widest refinement in the test
# suite and the benchmark holds 128 (cos(40x) on [0, 10]); the rounding floor
# keeps a large integrand such as 1/(1e-6 + (x - 1/2)^2) from refining into
# noise (it holds 12).  An integrand that never settles would otherwise double
# its panels every round up to MAX_DEPTH.
MAX_LIVE_PANELS = 1 << 16


def _gk15(f, lo, hi):
    """(values, |K - G| errors): a GK15 panel on each [lo[i], hi[i]] of two arrays.

    f maps a (panels, 15) array of abscissae to the integrand's values there.
    """
    h = 0.5 * (hi - lo)
    y = f((0.5 * (lo + hi))[:, None] + h[:, None] * _NODES)
    kron, gauss = np.zeros(lo.size), np.zeros(lo.size)
    with np.errstate(invalid="ignore", over="ignore"):
        # a node at a time, not y @ W: a BLAS product may sum a row in an
        # order that depends on the number of panels
        for j, (wk, wg) in enumerate(_GK_PAIRS):
            kron += wk * y[:, j]
            if wg:
                gauss += wg * y[:, j]
        return h * kron, np.abs(h * (kron - gauss))


def _simpson(f, lo, hi):
    """(values, errors): a Richardson-corrected Simpson panel on each [lo[i], hi[i]].

    f maps a (panels, 5) array of abscissae, each panel's ends, quarter points
    and midpoint, to the integrand's values there.  With whole Simpson's rule
    on the panel and left, right on its halves, delta = left + right - whole
    gives the value left + right + delta/15 and the error |delta|/15.
    """
    mid = 0.5 * (lo + hi)
    fa, flm, fm, frm, fb = f(np.column_stack((lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi))).T
    with np.errstate(invalid="ignore", over="ignore"):
        whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
        left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
        right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        return left + right + delta / 15.0, np.abs(delta) / 15.0


def _refine(rule, f, lo, hi, tol, breakpoints):
    """integrate()'s loop with rule(f, lo, hi) -> (values, errors) on arrays of panel ends."""
    if not tol > 0:
        raise DomainError(f"need tol > 0, got {tol}")
    # the pieces of [lo, hi] between its interior breakpoints
    pts = [lo] + sorted(p for p in set(breakpoints) if lo < p < hi) + [hi] if hi > lo else []
    a, b = np.array(pts[:-1], dtype=float), np.array(pts[1:], dtype=float)
    ptol = tol * (b - a) / (hi - lo)
    scalar = lambda x: np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)
    sums, depth = np.zeros((3, 1)), 0  # value, error and rounding floor
    while a.size:
        if a.size > MAX_LIVE_PANELS:
            raise ToleranceNotMet(f"more than {MAX_LIVE_PANELS} live panels at depth {depth}")
        val, err = rule(scalar, a, b)
        with np.errstate(invalid="ignore", over="ignore"):
            bad = np.flatnonzero(~np.isfinite(val + err))
        if bad.size:
            k = bad[0]
            raise ToleranceNotMet(f"non-finite panel estimate on [{float(a[k])!r}, "
                                  f"{float(b[k])!r}]", requested=float(ptol[k]))
        floor = _FLOOR * np.abs(val)
        split = (err > np.maximum(ptol, floor)) & (depth < MAX_DEPTH)
        # np.add.at adds the accepted panels one by one, in order
        done = np.zeros(val.size - np.count_nonzero(split), dtype=np.intp)
        for out, panel in zip(sums, (val, err, floor)):
            np.add.at(out, done, panel[~split])
        mid = 0.5 * (a + b)[split]
        a, b = np.column_stack((a[split], mid)).ravel(), np.column_stack((mid, b[split])).ravel()
        ptol = np.repeat(0.5 * ptol[split], 2)
        depth += 1
    (value,), (error,), (floors,) = sums.tolist()
    if error > tol + floors:
        raise ToleranceNotMet(f"quadrature error estimate {error:.3e} exceeds tolerance "
                              f"{tol + floors:.3e}", value=value, achieved=error,
                              requested=tol + floors)
    return value, error


def integrate(f, lo, hi, tol=1e-11, breakpoints=()):
    """Integrate the scalar function f over [lo, hi] by adaptive GK15.

    breakpoints are interior abscissae where f or one of its derivatives has
    a kink; the interval is pre-split there, and each piece gets tolerance
    tol*(b-a)/(hi-lo), halved at each split.  A panel is accepted when its
    error is at most the larger of its tolerance and its rounding floor, or
    at MAX_DEPTH.  Returns (value, error_estimate).  Raises ToleranceNotMet
    when a panel estimate is not finite, when more than MAX_LIVE_PANELS
    panels are live, or when the summed error exceeds tol plus the floors.
    """
    return _refine(_gk15, f, lo, hi, tol, breakpoints)


def integrate_simpson(f, lo, hi, tol, breakpoints=()):
    """Integrate the scalar function f over [lo, hi] by adaptive Simpson.

    integrate()'s refinement on Richardson-corrected Simpson panels, a rule
    that shares no nodes with GK15 and evaluates f at the panel ends too.
    breakpoints, the return value and the failures are as in integrate().
    """
    return _refine(_simpson, f, lo, hi, tol, breakpoints)


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

    coef holds one row of two or more Chebyshev coefficients per piece, lowest
    degree first, in the piece's own variable on [-1, 1].  left/right give the
    value outside the tabulated range; None clamps to the nearest endpoint (for
    queries that only stray past it by roundoff).  Calls take arrays: each
    point's piece is found by searchsorted, mapped to [-1, 1] in numpy's
    mapdomain order and read by chebval's Clenshaw steps, run in place (through
    chebval, whose copies took limit-deep 16% longer), so values are
    bit-identical to Chebyshev(coef[i], domain=[a, b])(t).
    """

    def __init__(self, bounds, coef, left, right):
        self.bounds = b = np.array(bounds, dtype=float)
        self.off, self.scl = mapparms((b[:-1], b[1:]), (-1.0, 1.0))  # each piece to [-1, 1]
        self.coef = np.asarray(coef, dtype=float)
        self.left, self.right = left, right

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        b = self.bounds
        tc = np.clip(t, b[0], b[-1])
        i = np.minimum(np.searchsorted(b, tc, side="right") - 1, len(b) - 2)
        # take gathers every point's piece coefficients as contiguous (degree,) + t.shape rows
        c, x = self.coef.T.take(i, axis=1), self.off[i] + self.scl[i] * tc
        c0, c1, x2 = np.array(c[-2]), np.array(c[-1]), 2 * x
        for row in c[-3::-1]:  # c0, c1 = c[k] - c1, c0 + c1*2x, as in chebval
            c0 += c1 * x2
            c0, c1 = np.subtract(row, c1, out=c1), c0
        out = c0 + c1 * x
        if self.left is not None:
            out = np.where(t <= b[0], self.left, out)
        if self.right is not None:
            out = np.where(t >= b[-1], self.right, out)
        return out

    def end(self):
        """The value at the last bound: right if set, else the last piece's coefficient sum."""
        # highest degree first: a converging series adds its smallest terms first
        return float(self.coef[-1, ::-1].sum()) if self.right is None else float(self.right)


def _dedupe(points):
    out = []
    for p in sorted(points):
        if not out or p - out[-1] > _BND_EPS:
            out.append(p)
    return out


def _nodes(b):
    """The 33 first-kind Chebyshev nodes of each piece of the bounds array b, a row each."""
    return mapdomain(_CHEB_PTS, (-1.0, 1.0), (b[:-1, None], b[1:, None]))


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

    Returns (coef, tail): F's 34 Chebyshev coefficients, one row per piece,
    and per piece (b - a)(|c_31| + |c_32|) from the last two coefficients of
    fn's interpolant, an estimate of the error it adds to F.
    """
    coef = _interp_pieces(bounds, fn)
    width = np.diff(np.asarray(bounds, dtype=float))
    anti = coef @ _CHEB_INTEG * (0.5 * width)[:, None]
    rise = anti.sum(axis=1)  # F's rise over each piece: every T_k is 1 at +1
    anti[:, 0] += np.concatenate(([0.0], np.cumsum(rise[:-1])))
    return anti, width * np.abs(coef[:, -2:]).sum(axis=1)


def _integral(bounds, fn):
    """(values, tail): the integrals of k integrands over the pieces of bounds, no table.

    fn maps the flat array of _interp_pieces's nodes to the k integrands'
    values there, one after another, and one product with _CHEB_QUAD gives
    each piece's interpolant integrals and their c_31 and c_32; tail sums
    _antiderivative's per-piece (b - a)(|c_31| + |c_32|) over all k.
    """
    b = np.asarray(bounds, dtype=float)
    nodes = _nodes(b)
    # (k, pieces, 3): each piece's interpolant integral, |c_31| and |c_32|
    quad = np.reshape(fn(nodes.ravel()), (-1,) + nodes.shape) @ _CHEB_QUAD
    np.abs(quad[..., 1:], out=quad[..., 1:])
    rows = ((b[1:] - b[:-1]) @ quad).tolist()
    return [value for value, _, _ in rows], sum(c31 + c32 for _, c31, c32 in rows)
