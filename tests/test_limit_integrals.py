"""Limiting moments, closed forms, recurrences, and derived quantities.

Reference values were frozen from independent oracles: direct scipy
nested/double quadrature over the defining integrals, mpmath dilogarithms,
and high-precision evaluation of the analytic formulas.
"""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev

from cyclewindow import limit_integrals, quadrature
from cyclewindow.errors import DomainError
from cyclewindow.exact_finite import exact_pmf, normalized_window
from cyclewindow.limit_integrals import (
    _BND_EPS, Interval, Q_recurrence, _box_moment, _interp_pieces, _ladder, _moments,
    _PiecewiseCheb, argmax_p, ewens_lambda, gamma_star, p1_derivative, p_limit,
    q2_closed_form, q_limit, sliced_cube_integral, small_simplex_ratio, support_bound,
)
from cyclewindow.quasi_poisson import (
    MomentVector, falling_moment, pmf_from_falling_moments, qp_pmf,
)
from rho_oracle import RHO_DPS, rho, window_pmf

GAMMA_STAR = 1.0 / (1.0 + math.exp(0.5))


class TestInterval:
    def test_accepts_fractions(self):
        iv = Interval(Fraction(1, 3), Fraction(1, 2))
        assert iv.g == pytest.approx(1 / 3, abs=0) and iv.d == 0.5

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            Interval(0.5, 0.4)
        with pytest.raises(DomainError):
            Interval(0.0, 0.5)
        with pytest.raises(DomainError):
            Interval(0.4, 1.1)


def _chebs(bounds, coef):
    """The numpy Chebyshev object of each coefficient row on its piece."""
    return [Chebyshev(c, domain=[a, b]) for a, b, c in zip(bounds, bounds[1:], coef)]


@pytest.fixture
def count_builds(monkeypatch):
    """The argument tuples of every _antiderivative call the ladder makes."""
    builds, build = [], limit_integrals._antiderivative
    monkeypatch.setattr(limit_integrals, "_antiderivative",
                        lambda *args: builds.append(args) or build(*args))
    return builds


class TestPiecewiseCheb:
    def test_bit_identical_to_numpy_in_every_piece(self):
        # A level-like table: kink at 0.3, pieces of uneven width.
        bounds = [0.15, 0.3, 0.42, 0.9]
        level = lambda t: np.log(t / 0.15) * np.log(np.maximum(t, 0.3) / 0.3 + 1.0)
        coef = _interp_pieces(bounds, level)
        table = _PiecewiseCheb(bounds, coef, left=0.0, right=None)
        rng = random.Random(20260815)
        for a, b, cheb in zip(bounds, bounds[1:], _chebs(bounds, coef)):
            for _ in range(2000):
                t = rng.uniform(a, b)
                assert table(t) == float(cheb(t))

    def test_array_call_bit_identical_to_numpy(self):
        bounds = [0.15, 0.3, 0.42, 0.9]
        level = lambda t: np.log(t / 0.15) * np.log(np.maximum(t, 0.3) / 0.3 + 1.0)
        coef = _interp_pieces(bounds, level)
        table = _PiecewiseCheb(bounds, coef, left=0.0, right=None)
        chebs = _chebs(bounds, coef)
        rng = np.random.default_rng(20260815)
        ts = np.concatenate([rng.uniform(a, b, 2000)
                             for a, b in zip(bounds, bounds[1:])])
        rng.shuffle(ts)  # one call mixes points of every piece
        got = table(ts)
        assert got.shape == ts.shape
        for t, v in zip(ts.tolist(), got.tolist()):
            cheb = chebs[min(np.searchsorted(bounds, t, side="right") - 1, 2)]
            assert v == float(cheb(t))

    @pytest.mark.parametrize("fn", [np.exp, np.log, np.reciprocal, np.sin])
    def test_interp_pieces_match_chebyshev_interpolate(self, fn):
        # one product with _CHEB_FIT sums in another order than numpy's fit:
        # every coefficient within 2*eps*max|f| over the piece's nodes
        bounds = [0.1, 0.25, 0.6, 0.62, 3.0]
        chebs = _chebs(bounds, _interp_pieces(bounds, fn))
        for a, b, cheb in zip(bounds, bounds[1:], chebs):
            want = Chebyshev.interpolate(fn, 32, domain=[a, b])
            scale = np.abs(fn(quadrature._nodes(np.array([a, b])))).max()
            assert np.abs(cheb.coef - want.coef).max() <= 2 * np.finfo(float).eps * scale
            assert list(cheb.domain) == [a, b]

    def test_outside_range(self):
        bounds = [0.2, 0.5]
        table = _PiecewiseCheb(bounds, _interp_pieces(bounds, np.exp),
                               left=0.0, right=None)
        assert table(0.1) == 0.0
        assert table(0.7) == table(0.5)
        assert np.shape(table(0.7)) == ()  # a scalar gives a 0-d array


# windows like limit-deep's (1/(20+u), 1/(10+u)), (1/(10+u), 1], (1/(8+u), 1/(2+u))
_DEEP = [(1 / 20.3, 1 / 10.4), (1 / 10.3, 1.0), (1 / 8.3, 1 / 2.4)]


def _level_builds(g, d):
    """(m, bounds, integrand) of every table of orders 2..r-1, from its own levels."""
    levels, _ = _ladder(support_bound(g) - 1, g, d, 1.0)
    return [(m,) + limit_integrals._layout(m, g, d, 1.0, levels[m - 2])
            for m in range(2, len(levels) + 1)]


class TestLevelTables:
    @pytest.mark.parametrize("g, d", _DEEP)
    def test_stored_rows_are_bit_identical_to_numpy(self, g, d):
        # a level table reads its 34-column rows as numpy would
        m, bounds, fn = _level_builds(g, d)[2]
        coef, _ = quadrature._antiderivative(bounds, fn)
        assert coef.shape[1] == 34
        table = _PiecewiseCheb(bounds, coef, left=0.0, right=None)
        rng = np.random.default_rng(20260815)
        for a, b, cheb in zip(bounds, bounds[1:], _chebs(bounds, coef)):
            ts = rng.uniform(a, b, 2000)
            assert [v.hex() for v in table(ts).tolist()] == \
                [float(cheb(t)).hex() for t in ts.tolist()], (m, a, b)

    @pytest.mark.parametrize("g, d", _DEEP)
    def test_every_level_keeps_all_34_columns(self, g, d):
        # no column is chopped, and each piece's tail is (b - a)(|c_31| + |c_32|)
        # of the integrand's interpolant alone
        for m, bounds, fn in _level_builds(g, d):
            coef, tail = quadrature._antiderivative(bounds, fn)
            assert coef.shape == (len(bounds) - 1, 34), m
            fit = _interp_pieces(bounds, fn)
            want = np.diff(np.asarray(bounds)) * np.abs(fit[:, -2:]).sum(axis=1)
            assert tail.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("g, d", _DEEP + [(1 / 990.5, 0.9), (1 / 1000, 0.9)])
    def test_every_piece_is_graded_from_its_kink(self, g, d):
        # a term of level m's integrand that starts at a kink k = a*g + (m-a)*d
        # is singular at k - g, so no piece [s, t] right of k is wider than
        # its distance s - (k - g) from that point.  Grading from m*g alone
        # left level 2's last piece on (1/990.5, 0.9] 0.099 wide at 0.001
        for m in range(1, support_bound(g) + 1):
            bounds, _ = limit_integrals._layout(m, g, d, 1.0, None)
            kinks = sorted(a * g + (m - a) * d for a in range(m + 1))
            for s, t in zip(bounds, bounds[1:]):
                k = max(p for p in kinks if p <= s + _BND_EPS)
                assert t - s <= s - k + g + 2 * _BND_EPS, (m, s, t, k)

    def test_keeps_every_column_of_a_zero_table(self):
        coef, tail = quadrature._antiderivative([0.0, 0.5, 1.0], np.zeros_like)
        assert coef.shape == (2, 34) and not coef.any() and not tail.any()


class TestSlicedCubeIntegral:
    def test_r0(self):
        assert sliced_cube_integral(0, Interval(0.3, 0.8), 1.0) == 1.0

    def test_r1_analytic(self):
        iv = Interval(0.2, 0.7)
        assert sliced_cube_integral(1, iv, 1.0) == pytest.approx(
            math.log(0.7 / 0.2), abs=1e-15)
        # slice cuts the upper limit down to c
        assert sliced_cube_integral(1, iv, 0.5) == pytest.approx(
            math.log(0.5 / 0.2), abs=1e-15)

    def test_vanishes_when_simplex_empty(self):
        assert sliced_cube_integral(3, Interval(0.4, 0.9), 1.0) == 0.0
        assert q_limit(4, Interval(0.3, 0.5)) == 0.0

    def test_box_factorization_when_slice_inactive(self):
        # r * delta <= c: the constraint never binds and the integral is
        # the r-th power of the one-dimensional integral.
        iv = Interval(0.05, 0.2)
        for r in (2, 3, 4):
            want = math.log(0.2 / 0.05) ** r
            assert q_limit(r, iv) == pytest.approx(want, rel=1e-12)

    def test_each_level_reads_the_level_below_in_one_call(self, monkeypatch):
        # the integrand of level m reads level m-1 at s - gamma and s - delta
        # in one array call; level 2 reads level 1, the log, not a table
        calls, call = [], _PiecewiseCheb.__call__
        monkeypatch.setattr(_PiecewiseCheb, "__call__",
                            lambda table, t: calls.append(table) or call(table, t))
        levels, _ = _ladder(10, 1 / 10.3, 1.0, 1.0)
        assert len(levels) == 10
        assert calls == levels[1:-1]

    def test_kernel_route_at_r2_against_mpmath(self):
        # I_2(1.6) on (0.01, 1] as one integral at 30 digits: the inner
        # coordinate runs over [0.01, min(1, 1.6 - x)]
        iv = Interval(0.01, 1.0)
        val, err = sliced_cube_integral(2, iv, 1.6, with_error=True)
        with mpmath.workdps(30):
            g, c = mpmath.mpf(iv.g), mpmath.mpf(1.6)
            want = mpmath.quad(lambda x: mpmath.log(min(1, c - x) / g) / x, [g, c - 1, 1])
        assert abs(val - want) <= 1e-13
        assert abs(val - want) <= err
        assert abs(want - mpmath.mpf("21.0990525173181631")) < 1e-15

    @pytest.mark.parametrize("g, d", _DEEP + [
        (0.45, 1.0), (0.4, 0.62), (0.3, 1.0), (0.28, 0.5), (0.22, 1.0), (0.21, 0.55),
        (0.201, 1.0), (0.205, 0.3)])  # like limit-sweep's strata: supports 2 to 4
    @pytest.mark.parametrize("c", [0.45, 0.7, 1.0, 1.6])
    def test_top_two_orders_match_the_full_ladder(self, g, d, c):
        # orders r-1 and r of _moments against the ends of _ladder(r)'s
        # tables, within the error reported for the top order it returns
        r = support_bound(g)
        values, _ = _moments(r, g, d, c)
        levels, _ = _ladder(r, g, d, c)
        assert len(values) == len(levels)
        if not values:
            return
        _, err = sliced_cube_integral(len(values), Interval(g, d), c, with_error=True)
        for m in range(max(r - 1, 2), len(values) + 1):
            assert abs(values[m - 1] - float(levels[m - 1](c))) <= err, m

    def test_top_two_orders_read_the_last_table_once(self, monkeypatch):
        # one array call on level r-2 gives the integrand of level r-1 at
        # every node, from which both top orders are integrated
        calls, call = [], _PiecewiseCheb.__call__
        monkeypatch.setattr(_PiecewiseCheb, "__call__",
                            lambda table, t: calls.append(table) or call(table, t))
        values, _ = _moments(10, 1 / 10.3, 1.0, 1.0)
        assert len(values) == 10
        # the tables of orders 2..8, each read once: by the next build, and
        # order 8 by _kernel_pair
        assert len(calls) == 7 == len(set(map(id, calls)))

    def test_error_estimate_bounds_the_gap_on_the_q2_grid(self):
        # 60 x 31 windows of the q2 regime against the dilogarithm closed form
        # at 40 digits; without a term for the rounding of node abscissae the
        # estimate falls up to 1.7x below the gap (34 of the 1860 points)
        gs = np.linspace(1 / 3, 0.5, 61)[:-1].tolist()
        ds = np.linspace(0.5, 1.0, 31).tolist()
        with mpmath.workdps(40):
            li2, log = (lambda x: mpmath.polylog(2, x)), mpmath.log
            # the triangle z1 + z2 <= 1 when gamma + delta >= 1, else the box
            # minus the corner above z1 + z2 = 1
            triangle = {g: li2(g) - li2(1 - g) - log(g) * log(1 - g) + log(g) ** 2
                        for g in map(mpmath.mpf, gs)}
            corner = {d: log(d) * (log(d) - log(1 - d)) + li2(d) - li2(1 - d)
                      for d in map(mpmath.mpf, ds)}
            for g in gs:
                for d in ds:
                    mg, md = mpmath.mpf(g), mpmath.mpf(d)
                    want = triangle[mg] if mg + md >= 1 else log(md / mg) ** 2 - corner[md]
                    val, err = sliced_cube_integral(2, Interval(g, d), 1.0, with_error=True)
                    assert abs(val - want) <= err, (g, d)

    def test_non_integer_order_refused(self):
        with pytest.raises(DomainError, match="r must be an integer, got 2.5"):
            sliced_cube_integral(2.5, Interval(0.3, 0.8), 1.0)

    def test_error_estimate_returned(self):
        val, err = sliced_cube_integral(2, Interval(0.3, 0.8), 1.0,
                                        with_error=True)
        assert 0 <= err < 1e-9
        assert val == pytest.approx(q_limit(2, Interval(0.3, 0.8)), abs=0)

    @pytest.mark.parametrize("r, c", [
        (2, 1.0), (3, 1.0), (2, math.inf),  # r*gamma < c: the moments are read
        (3, 0.9), (4, 1.0), (0, 1.0),  # r*gamma >= c or r = 0: nothing is read
    ])
    def test_value_and_error_are_python_floats(self, r, c):
        val, err = sliced_cube_integral(r, Interval(0.3, 0.8), c, with_error=True)
        assert type(val) is float and type(err) is float

    def test_huge_order_above_the_slice_is_zero(self):
        # every order with r*gamma >= c vanishes; no level is built for it
        t0 = time.perf_counter()
        assert sliced_cube_integral(10**9, Interval(0.5, 1.0), 1.0,
                                    with_error=True) == (0.0, 0.0)
        assert time.perf_counter() - t0 < 0.01

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_top_order_near_rounding_is_clamped_at_zero(self, step):
        # q_20 on (1/20.3, 1] is 20! P(X = 20), about 1.1e-29; the ladder
        # reads -5.9e-29 and -5.8e-29 one ulp to either side of 1/20.3
        g = 1 / 20.3
        g = math.nextafter(g, g + step) if step else g
        val, err = sliced_cube_integral(20, Interval(g, 1), 1.0, with_error=True)
        assert val >= 0.0
        u = 1 / mpmath.mpf(g)
        assert err >= abs(val - math.factorial(20) * (rho(21, u) - rho(20, u)))

    @pytest.mark.parametrize("g, d, c, orders", [
        (0.26, 0.31, 1.0, 3), (Fraction(2, 7), Fraction(1, 3), 1.0, 3),
        (0.26, 0.31, math.inf, 6), (Fraction(2, 7), Fraction(1, 3), math.inf, 6),
        (0.1, 0.9, math.inf, 6),
    ])
    def test_box_under_the_slice_builds_nothing(self, g, d, c, orders, count_builds):
        # r*delta <= c: every order is ln(delta/gamma)^r, with no table, and
        # the error estimate covers the distance to it at 40 digits
        iv = Interval(g, d)
        mg, md = (mpmath.mpf(Fraction(x).numerator) / Fraction(x).denominator for x in (g, d))
        for r in range(1, orders + 1):
            val, err = sliced_cube_integral(r, iv, c, with_error=True)
            assert val.hex() == _box_moment(r, iv.g, iv.d).hex()
            with mpmath.workdps(40):
                assert err >= abs(val - mpmath.log(md / mg) ** r), r
            if c == 1.0:
                assert q_limit(r, iv).hex() == val.hex()
        assert count_builds == []

    def test_infinite_slice_is_the_full_box(self):
        iv = Interval(0.3, 0.8)
        assert sliced_cube_integral(2, iv, math.inf) == pytest.approx(
            math.log(0.8 / 0.3) ** 2, rel=1e-12)

    @pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2)])
    def test_fraction_slice_reads_as_its_float(self, c):
        # a Fraction slice once made the levels' arrays object arrays (TypeError)
        iv = Interval(0.3, 0.8)
        for r in range(1, 5):
            got = sliced_cube_integral(r, iv, c, with_error=True)
            want = sliced_cube_integral(r, iv, float(c), with_error=True)
            assert [x.hex() for x in got] == [x.hex() for x in want], r

    @pytest.mark.parametrize("g, d", [(0.05, 0.6), (0.1, 0.35), (0.19, 0.5),
                                      (1 / 8.3, 1 / 2.3), (0.26, 0.9), (1 / 10.3, 1.0)])
    def test_scale_invariance(self, g, d):
        # 1/(z_1...z_r) is scale-free: I_r(c; gamma, delta) = I_r(1; gamma/c, delta/c),
        # and delta/c caps at 1, as no z_i of a point under the slice 1 reaches it
        for c in (0.45, 0.7, 1.6, 2.5):
            scaled = Interval(g / c, min(d / c, 1.0))
            for r in range(1, 10):
                a, e1 = sliced_cube_integral(r, Interval(g, d), c, with_error=True)
                b, e2 = sliced_cube_integral(r, scaled, 1.0, with_error=True)
                assert abs(a - b) <= e1 + e2, (c, r, a, b, e1, e2)

    def test_order_150_near_the_cap_within_1e_3_relative(self):
        # 9.268e78 from a float prototype that steps J_m = q_m/m! on an aligned
        # grid; the ladder read 8.604e78 while it chopped its columns
        assert abs(q_limit(150, Interval(1 / 1000, 0.9)) - 9.268e78) <= 1e-3 * 9.268e78

    def test_domain(self):
        with pytest.raises(DomainError):
            sliced_cube_integral(-1, Interval(0.3, 0.8), 1.0)
        with pytest.raises(DomainError):
            sliced_cube_integral(2, Interval(0.3, 0.8), 0.0)
        for r in (0, 2):
            with pytest.raises(DomainError):
                sliced_cube_integral(r, Interval(0.3, 0.8), math.nan, with_error=True)
        for c in (1e6, math.inf):  # refused before ln(10)^2000 can overflow
            with pytest.raises(DomainError, match="ladder"):
                sliced_cube_integral(2000, Interval(0.1, 1), c)
        # 600/1000 < 1, so both are positive; the ladder reads -1.4e135 and
        # -1.6e282 against estimates of 3.2e125 and 1.1e273, once returned as 0.0
        for r in (300, 600):
            with pytest.raises(DomainError, match="lost its sign"):
                q_limit(r, Interval(1 / 1000, 0.9))
        # once (0.0, nan) after numpy RuntimeWarnings; the true value underflows
        val, err = sliced_cube_integral(999, Interval(1 / 999.5, 0.999), 1.0, with_error=True)
        assert val == 0.0 and math.isfinite(err)
        # past float64: order 500 reads 6.0e253; ln(d/g)^r once raised OverflowError
        with pytest.raises(DomainError, match="order 500 .* overflows float64"):
            sliced_cube_integral(500, Interval(0.001, 1), 1e6)


class TestQ2Oracle:
    # (gamma, delta) -> value frozen from scipy.integrate.dblquad on
    # 1/(x*y) over the window square intersected with {x + y <= 1},
    # cross-checked against the dilogarithm closed form at 1e-13.
    CASES = {
        (0.4, 1.0):  0.0932205874128116,
        (GAMMA_STAR, 1.0): 0.145577477321643,
        (1 / 3, 1.0): 0.294441353918483,
        (1 / 3, 0.5): 0.164401953893165,
        (0.34, 0.55): 0.212544424622279,
        (0.35, 0.6): 0.219335861321728,
        (1 / 3, 0.66): 0.294241340636809,
        (0.45, 1.0): 0.0214784523792105,
        (0.35, 1.0): 0.230404308559864,
    }

    @pytest.mark.parametrize("point", sorted(CASES, key=repr))
    def test_quadrature_matches_oracle(self, point):
        g, d = point
        assert q_limit(2, Interval(g, d)) == pytest.approx(
            self.CASES[point], abs=1e-11)

    @pytest.mark.parametrize("point", sorted(CASES, key=repr))
    def test_closed_form_matches_oracle(self, point):
        g, d = point
        assert q2_closed_form(Interval(g, d)) == pytest.approx(
            self.CASES[point], abs=1e-12)

    def test_square_identity(self):
        # gamma = 1/3, delta = 1/2: the slice is inactive on the square
        # except at a null boundary, so q2 = log(delta/gamma)^2.
        assert q2_closed_form(Interval(Fraction(1, 3), Fraction(1, 2))) == \
            pytest.approx(math.log(1.5) ** 2, abs=1e-15)

    def test_continuity_across_branch_boundary(self):
        # The triangle and box-minus-corner branches must agree on the
        # line gamma + delta = 1.
        for g in (0.34, 0.4, 0.45, 0.49):
            d = 1.0 - g
            lo = q2_closed_form(Interval(g, d - 1e-12))
            hi = q2_closed_form(Interval(g, d + 1e-12))
            assert lo == pytest.approx(hi, abs=1e-9)

    def test_domain_restricted(self):
        with pytest.raises(DomainError):
            q2_closed_form(Interval(0.2, 0.9))
        with pytest.raises(DomainError):
            q2_closed_form(Interval(0.35, 0.45))


class TestQRecurrence:
    def test_base_cases(self):
        assert Q_recurrence(0, 0.3) == 1.0
        assert Q_recurrence(1, 0.5) == pytest.approx(math.log(2), abs=1e-15)
        assert Q_recurrence(3, 0.4) == 0.0
        assert Q_recurrence(2, 0.5) == 0.0

    def test_k2_equals_full_window_moment(self):
        assert Q_recurrence(2, 0.4) == pytest.approx(
            q_limit(2, Interval(0.4, 1.0)), abs=1e-11)

    # Frozen from an independent mpmath nested-quadrature oracle.
    ORACLE = {
        (3, 0.3): 0.0048887450302,
        (3, 0.25): 0.089318080364,
        (3, 0.21): 0.33930521895,
        (3, 0.15): 1.5291139375,
        (4, 0.21): 0.00818461082,
        (4, 0.15): 0.4598975407,
    }

    @pytest.mark.parametrize("key", sorted(ORACLE))
    def test_oracle_values(self, key):
        k, g = key
        assert Q_recurrence(k, g) == pytest.approx(self.ORACLE[key],
                                                   abs=2e-10)

    def test_agrees_with_general_moment_path(self):
        # Two independent nested-integration routes to the same quantity.
        for k, g in [(2, 0.35), (3, 0.2), (3, 0.3), (4, 0.18)]:
            assert Q_recurrence(k, g) == pytest.approx(
                q_limit(k, Interval(g, 1.0)), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("k,g", [(5, 0.05), (5, 0.1), (5, 0.15),
                                     (6, 0.05), (6, 0.1), (6, 0.13)])
    def test_agrees_with_general_moment_path_k5_k6(self, k, g):
        assert Q_recurrence(k, g) == pytest.approx(
            q_limit(k, Interval(g, 1.0)), rel=1e-9, abs=1e-7)

    @pytest.mark.parametrize("k,g", [(4, 0.02), (5, 0.04), (6, 0.02)])
    def test_small_gamma_matches_general_moment_path(self, k, g):
        # the ladder's reported error must cover its distance to the oracle
        want = Q_recurrence(k, g)
        val, err = sliced_cube_integral(k, Interval(g, 1.0), 1.0, with_error=True)
        assert q_limit(k, Interval(g, 1.0)) == val
        assert abs(val - want) <= 1e-12 * want
        assert err >= abs(val - want)

    def test_near_threshold_scaling(self):
        # As gamma -> 1/k the moment collapses like the volume of a
        # shrinking simplex: Q_k ~ (1 - k*gamma)^k * k^k / k!.
        for k in (2, 3):
            ratios = []
            for eps in (1e-2, 1e-3):
                g = 1.0 / k - eps
                vol = (1.0 - k * g) ** k * k ** k / math.factorial(k)
                ratios.append(Q_recurrence(k, g) / vol)
            assert ratios[0] > ratios[1] > 1.0
            assert ratios[1] == pytest.approx(1.0, rel=5e-3)

    @pytest.mark.parametrize("eps, rel", [(1e-5, 1e-10), (1e-7, 1e-8)])
    def test_relative_digits_near_one_third(self, eps, rel):
        # Q_3 is about 120*eps^3 here (1.2e-19 at eps = 1e-7), so an absolute
        # gate would pass any value.  The 40-digit reference nests the
        # recurrence: Q_3(g) = int_g^{1-2g} Q_2(g/(1-z)) dz/z, with
        # Q_2(x) = int_x^{1-x} ln((1-y)/x) dy/y, its argument below 1/2 throughout.
        g = 1.0 / 3.0 - eps
        with mpmath.workdps(40):
            q2 = lambda x: mpmath.quad(lambda y: mpmath.log((1 - y) / x) / y, [x, 1 - x])
            x = mpmath.mpf(g)
            want = mpmath.quad(lambda z: q2(x / (1 - z)) / z, [x, 1 - 2 * x])
        assert abs(q_limit(3, Interval(g, 1.0)) - want) <= rel * want
        assert abs(Q_recurrence(3, g) - want) <= rel * want

    def test_monotone_decreasing_in_gamma(self):
        vals = [Q_recurrence(3, g) for g in (0.12, 0.18, 0.24, 0.3, 0.33)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            Q_recurrence(-1, 0.3)
        with pytest.raises(DomainError):
            Q_recurrence(2, 0.0)
        with pytest.raises(DomainError):
            Q_recurrence(2, 1.5)
        for k in (2.0, 2.5):
            with pytest.raises(DomainError, match="k must be an integer"):
                Q_recurrence(k, 0.3)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_the_steps_falling_moment(self, k):
        # the k-th falling moment of the (gamma, 1] pmf from _steps_pmf, a
        # route that shares no table or quadrature with the recurrence; the
        # largest gap measured was 2.1e-14.  s = 1/gamma - k + 1 >= 1.8 keeps
        # gamma away from 1/k, where Q_k falls like (1 - k*gamma)^k and the
        # pmf's absolute rounding swamps it.
        for s in np.geomspace(1.8, 16.0, 8).tolist():
            g = 1.0 / (s + k - 1)
            want = falling_moment(p_limit(Interval(g, 1.0)), k)
            assert abs(Q_recurrence(k, g) - want) <= 1e-13 * want, (k, g)

    @pytest.mark.parametrize("k, g", [(3, 0.02), (4, 0.05), (4, 0.095), (6, 0.02)])
    def test_piece_count_tracks_the_first_round(self, k, g, monkeypatch):
        # the closed-form count against the GK15 panels _integrate_Q evaluates
        panels, run = [], limit_integrals._gk15

        def counted(f, lo, hi):
            panels.append(lo.size)
            return run(f, lo, hi)

        monkeypatch.setattr(limit_integrals, "_gk15", counted)
        Q_recurrence(k, g)
        assert sum(panels) <= limit_integrals._recurrence_pieces(k, g) <= 1.25 * sum(panels)

    def test_count_refuses_what_the_level_loop_refused(self):
        # the closed form against the loop it replaced, which added the same
        # count level by level and stopped once past the cap; per k, 200
        # gammas across the cap and 100 within 1e-9 of it, relative.  Only a
        # count within an ulp or two of the cap itself can round to the other
        # side, so the 100 straddle that point and miss it by 1e-11 or more.
        cap = limit_integrals.RECURRENCE_MAX_PIECES

        def looped(k, g):
            total = 1.0 / g - k
            for j in range(2, k):
                s = (1.0 - (k - j) * g) / g - j + 1
                total += 33 * s * (s + 1) / 2
                if total > cap:
                    break
            return total

        for k in range(2, 40):
            # s = 1/g - k + 1 at which the count is the cap
            c = 16.5 * (k - 2)
            s_cap = cap + 1.0 if k == 2 else (
                (math.sqrt((c + 1) ** 2 + 4 * c * (cap + 1)) - c - 1) / (2 * c))
            ss = np.concatenate((np.geomspace(1.001, 4 * s_cap, 200),
                                 s_cap * (1 + 2e-11 * (np.arange(-50, 50) + 0.5))))
            for g in (1 / (ss + k - 1)).tolist():
                refused = limit_integrals._recurrence_pieces(k, g) > cap
                assert refused == (looped(k, g) > cap), (k, g)

    def test_oversized_is_refused_before_building(self):
        # (3, 0.001) would start 16.4M GK15 pieces, one (16.4M, 15) array of
        # nodes; (30, 0.005) ran for minutes
        code = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                "import time\n"
                "from cyclewindow.errors import DomainError\n"
                "from cyclewindow.limit_integrals import Q_recurrence, small_simplex_ratio\n"
                "for k, g in [(3, 0.001), (3, 0.002), (20, 0.01), (30, 0.005), (2, 1e-9)]:\n"
                "    for fn in (Q_recurrence, small_simplex_ratio):\n"
                "        t0 = time.perf_counter()\n"
                "        try:\n"
                "            fn(k, g)\n"
                "        except DomainError as e:\n"
                "            assert 'over 250000 GK15 pieces' in str(e)\n"
                "            assert time.perf_counter() - t0 < 1.0\n"
                "        else:\n"
                "            raise AssertionError((fn, k, g))\n"
                "print('refused')\n")
        env = dict(os.environ)
        src = str(Path(limit_integrals.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.stdout.strip() == "refused", proc.stderr


class TestSupportBound:
    def test_exact_fraction(self):
        assert support_bound(Fraction(1, 3)) == 3
        assert support_bound(Fraction(1, 4)) == 4

    def test_float_near_reciprocal(self):
        assert support_bound(1 / 3) == 3
        assert support_bound(0.2) == 5
        assert support_bound(0.26) == 3


def _richardson_dp(gamma, delta, n):
    """Limit pmf from exact_pmf at n, 2n, 4n, extrapolated twice in 1/n."""
    rows = [np.array(exact_pmf(m, normalized_window(m, gamma, delta)).as_floats())
            for m in (n, 2 * n, 4 * n)]
    size = max(map(len, rows))
    p1, p2, p4 = (np.pad(r, (0, size - len(r))) for r in rows)
    r1, r2 = 2 * p2 - p1, 2 * p4 - p2
    return (4 * r2 - r1) / 3


class TestPLimit:
    def test_quarter_to_third_matches_quasi_poisson(self):
        from cyclewindow.quasi_poisson import qp_pmf
        got = p_limit(Interval(Fraction(1, 4), Fraction(1, 3)))
        want = qp_pmf(3, math.log(4 / 3)).as_floats()
        assert len(got) == 5
        for a, b in zip(got.as_floats(), want):
            assert a == pytest.approx(b, abs=1e-10)
        assert got.as_floats()[4] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("g, d", [(0.26, 0.31), (0.26, 0.311),
                                      (Fraction(2, 7), Fraction(1, 3))])
    def test_box_under_the_slice_is_quasi_poisson_unbuilt(self, g, d, count_builds):
        # K*delta <= 1 with K = support_bound(gamma): every q_m = ln(delta/gamma)^m
        iv = Interval(g, d)
        k = support_bound(g)
        got = p_limit(iv)
        assert count_builds == []
        want = qp_pmf(k, math.log(iv.d / iv.g)).as_floats()
        assert len(got) == k + 1
        assert max(abs(a - b) for a, b in zip(got.as_floats(), want)) <= 1e-15
        levels, _ = _ladder(k, iv.g, iv.d, 1.0)  # the ladder gives the same bits
        assert got == pmf_from_falling_moments(
            MomentVector((1.0, *(float(level(1.0)) for level in levels))))
        count_builds.clear()
        p_limit(Interval(g / 2, 0.5))  # K*delta > 1 with K >= 4 still builds the ladder
        assert count_builds

    @pytest.mark.parametrize("g, d", [(0.4, 1.0), (0.45, 0.8), (0.3, 1.0), (0.3, 0.7),
                                      (0.22, 1.0), (0.21, 0.6), (0.19, 0.5), (1 / 10.3, 1.0)])
    def test_only_the_levels_below_the_top_are_tables(self, g, d, count_builds, monkeypatch):
        # support r with r*delta > 1: orders 2..r-2 are tables, orders r-1
        # and r are integrated in place, so supports 2 and 3 build none;
        # p_limit solves every window (gamma, 1] by one call of the steps, with none
        steps, step = [], limit_integrals._steps_pmf
        monkeypatch.setattr(limit_integrals, "_steps_pmf",
                            lambda *args: steps.append(args) or step(*args))
        r = support_bound(g)
        p_limit(Interval(g, d))
        assert (len(count_builds), len(steps)) == ((0, 1) if d == 1 else (max(r - 3, 0), 0))
        count_builds.clear()
        q_limit(r, Interval(g, d))
        assert len(count_builds) == max(r - 3, 0)

    def test_argmax_builds_no_table(self, count_builds):
        argmax_p(1, 0.34, 0.49)  # support 2 on the whole bracket
        assert count_builds == []

    @pytest.mark.parametrize("g, d", [(0.3, 1.0), (0.22, 0.6), (0.19, 0.5), (1 / 10.3, 1.0),
                                      (1 / 8.3, 1 / 2.3), (0.26, 0.5)])
    @pytest.mark.parametrize("c", [1.0, 0.7, 0.45, 0.5 - 1e-14])
    def test_moments_read_the_tables_bits(self, g, d, c):
        # order 1 is the log read at c; orders 2..r-2, and every order with
        # m*delta <= c, have the bits of the end of the full ladder's table;
        # the top two orders are integrated in place and agree with the
        # table within rounding
        r = support_bound(g)
        values, _ = _moments(r, g, d, c)
        levels, _ = _ladder(r, g, d, c)
        assert len(values) == len(levels)
        for m, (got, level) in enumerate(zip(values, levels), 1):
            want = float(level(c))
            if m == 1:
                assert got.hex() == want.hex(), (got, want)
            elif m < r - 1 or c >= m * d - _BND_EPS:
                assert got.hex() == level.end().hex(), (m, got, level.end())
            else:
                assert abs(got - want) <= 1e-18 + 1e-13 * abs(want), (m, got, want)
            if m * d <= c:
                assert got.hex() == _box_moment(m, g, d).hex()

    def test_third_to_half_truncates_support_at_two(self):
        # 3 * (1/3) = 1: three window cycles fit only on a null set, so the
        # third moment vanishes and the law is quasi-Poisson(2, ln(3/2)).
        from cyclewindow.quasi_poisson import qp_pmf
        got = p_limit(Interval(Fraction(1, 3), Fraction(1, 2)))
        want = qp_pmf(2, math.log(1.5)).as_floats()
        assert len(got) == 4
        for a, b in zip(got.as_floats(), want):
            assert a == pytest.approx(b, abs=1e-10)
        assert got.as_floats()[3] == pytest.approx(0.0, abs=1e-12)

    def test_at_gamma_star(self):
        got = p_limit(Interval(GAMMA_STAR, 1.0)).as_floats()
        want = (0.0987117544807, 0.828499506858, 0.0727887386608)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-9)

    def test_right_half(self):
        # gamma >= 1/2: at most one cycle, P1 = -log(gamma).
        got = p_limit(Interval(0.6, 1.0)).as_floats()
        assert got == (pytest.approx(1 + math.log(0.6), abs=1e-12),
                       pytest.approx(-math.log(0.6), abs=1e-12))

    def test_probabilities_sum_to_one(self):
        for g, d in [(0.1, 0.9), (0.15, 0.35), (0.22, 1.0)]:
            assert math.fsum(p_limit(Interval(g, d)).as_floats()) == \
                pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("g,d", [(0.3, 0.8), (0.22, 1.0), (0.15, 0.35),
                                     (Fraction(1, 4), Fraction(1, 3)), (0.11, 0.6)])
    def test_matches_inversion_of_per_order_moments(self, g, d):
        iv = Interval(g, d)
        q = [1.0] + [max(q_limit(j, iv), 0.0)
                     for j in range(1, support_bound(iv.gamma) + 1)]
        want = pmf_from_falling_moments(MomentVector(tuple(q))).as_floats()
        got = p_limit(iv).as_floats()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("g,exact", [(1 / 3 - 1e-15, Fraction(1, 3)),
                                         (0.25 - 1e-16, Fraction(1, 4))])
    def test_gamma_a_hair_below_reciprocal(self, g, exact):
        # the top order's slice is thinner than the level tables resolve
        got = p_limit(Interval(g, 1.0)).as_floats()
        want = p_limit(Interval(exact, 1)).as_floats()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a == pytest.approx(b, abs=1e-14)

    @pytest.mark.parametrize("g,d,n", [(Fraction(1, 50), 1, 2500),
                                       (Fraction(1, 100), 1, 2500),
                                       (Fraction(1, 80), Fraction(1, 40), 4000)])
    def test_small_gamma_matches_extrapolated_dp(self, g, d, n):
        t0 = time.perf_counter()
        got = np.array(p_limit(Interval(g, d)).as_floats())
        assert time.perf_counter() - t0 < 1.0
        want = _richardson_dp(g, d, n)
        size = max(len(got), len(want))
        got, want = (np.pad(p, (0, size - len(p))) for p in (got, want))
        assert np.abs(got - want).max() <= 1e-7

    def test_support_past_170_matches_extrapolated_dp(self):
        # the inversion divides by j!, which overflows a float past j = 170
        g = Fraction(1, 200)
        t0 = time.perf_counter()
        got = np.array(p_limit(Interval(g, 1)).as_floats())
        assert time.perf_counter() - t0 < 2.0
        want = _richardson_dp(g, 1, 5000)
        size = max(len(got), len(want))
        got, want = (np.pad(p, (0, size - len(p))) for p in (got, want))
        assert np.abs(got - want).max() <= 1e-7

    @pytest.mark.parametrize("g", [Fraction(1, 2000), 1e-6])
    def test_support_over_the_ladder_cap_is_refused(self, g):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="ladder"):
            p_limit(Interval(g, 1))
        assert time.perf_counter() - t0 < 5.0

    @pytest.mark.parametrize("g, d", [
        (Fraction(9, 10**10), Fraction(90000000005, 10**20)), (9e-10, 9.0000000005e-10),
        (Fraction(2, 3001), Fraction(1, 1500)),
    ])
    def test_box_under_the_slice_over_the_cap_is_refused(self, g, d):
        # K*delta <= 1, but K > LADDER_MAX_ORDER: refused before any moment
        # is computed (K = 1111111111 for the first two)
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="ladder"):
            p_limit(Interval(g, d))
        assert time.perf_counter() - t0 < 0.05

    # Dickman's rho(k) for k = 2..6 and 10, from a 50-digit Taylor series
    # about the midpoint of each unit piece (rho(2) = 1 - ln 2)
    _RHO = {2: 0.30685281944005469, 3: 0.048608388291131567, 4: 0.0049109256477608324,
            5: 3.5472470045603973e-4, 6: 1.9649696353955290e-5, 10: 2.7701718377259590e-11}

    @pytest.mark.parametrize("k", sorted(_RHO))
    def test_no_cycle_above_one_kth_is_dickman_rho(self, k):
        # on (1/k, 1], no window cycle means every cycle is shorter than
        # n/k, whose limiting probability is rho(k)
        got = p_limit(Interval(Fraction(1, k), 1)).as_floats()[0]
        assert abs(got - self._RHO[k]) <= 1e-15

    def test_rho_oracle_matches_dickman(self):
        with mpmath.workdps(RHO_DPS):
            assert abs(rho(1, 2) - (1 - mpmath.log(2))) < 1e-45
        for k in sorted(self._RHO):
            assert abs(rho(1, k) - self._RHO[k]) <= 1e-16 * self._RHO[k]

    @pytest.mark.parametrize("f", [0.05, 0.37, 0.8])
    @pytest.mark.parametrize("k", range(2, 31))
    def test_window_to_one_matches_the_rho_oracle(self, k, f):
        # on (gamma, 1], X <= j exactly when the (j+1)-th longest cycle is
        # shorter than gamma n, so P(X = j) = rho_{j+1}(1/gamma) - rho_j(1/gamma)
        iv = Interval(1 / (k + f), 1)
        got = p_limit(iv).as_floats()
        u = 1 / mpmath.mpf(iv.g)
        assert len(got) == k + 1
        for j, p in enumerate(got):
            assert abs(p - (rho(j + 1, u) - rho(j, u))) <= 1e-14, j

    @pytest.mark.parametrize("f", [0.05, 0.37, 0.8])
    @pytest.mark.parametrize("k", [31, 40, 50, 70, 100])
    def test_deep_window_to_one_matches_the_rho_oracle(self, k, f):
        # the steps' route: entries past 30 are below 1e-15 here, so they are
        # gated by range, and the oracle is built for orders up to 31 only
        iv = Interval(1 / (k + f), 1)
        got = p_limit(iv).as_floats()
        u = 1 / mpmath.mpf(iv.g)
        assert len(got) == k + 1
        for j, p in enumerate(got[:31]):
            assert abs(p - (rho(j + 1, u) - rho(j, u))) <= 1e-14, j
        assert all(0.0 <= p <= 1e-14 for p in got[31:])

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("k", range(4, 13))
    def test_reciprocal_boundary_matches_the_rho_oracle(self, k, exact):
        # gamma = 1/k: from k = 5 the steps' last piece is empty or an ulp wide; P_k = 0
        iv = Interval(Fraction(1, k) if exact else 1 / k, 1)
        got = p_limit(iv).as_floats()
        u = mpmath.mpf(k) if exact else 1 / mpmath.mpf(iv.g)
        assert len(got) == k + 1
        for j, p in enumerate(got):
            assert abs(p - (rho(j + 1, u) - rho(j, u))) <= 1e-14, j

    # rational windows with delta < 1 against window_pmf, and the largest gap
    # of p_limit's ladder measured on each
    _RATIONAL = [((1, 4), (1, 3), 7.5e-17), ((1, 5), (3, 5), 5.2e-17),
                 ((1, 20), (1, 10), 2.6e-17), ((1, 30), (1, 7), 1.1e-16),
                 ((1, 50), (1, 3), 3.2e-15), ((1, 100), (1, 5), 8.3e-15)]

    # the deep windows read 1.8e-13, 2.0e-13 and 4.3e-13 while the ladder
    # chopped its columns and graded only from m*gamma.  (2/201, 2/11] is
    # gated here only: on its 2211 pieces the oracle's floor divisions leave
    # its sum 1.5e-45 from 1, past the bound of the test below
    @pytest.mark.parametrize("g, d, gap", _RATIONAL + [((2, 201), (2, 11), 9.4e-15)])
    def test_interior_window_matches_the_window_oracle(self, g, d, gap):
        iv = Interval(Fraction(*g), Fraction(*d))
        got = p_limit(iv).as_floats()
        want = window_pmf(iv.gamma, iv.delta)
        assert len(got) == len(want) == support_bound(iv.gamma) + 1
        worst = max(abs(p - w) for p, w in zip(got, want))
        assert worst <= 1e-14
        assert worst <= max(2 * gap, 1e-15)

    @pytest.mark.parametrize("g, d", [w[:2] for w in _RATIONAL])
    def test_window_oracle_sums_to_one_with_mean_log_ratio(self, g, d):
        # the first falling moment of the limit is ln(delta/gamma)
        want = window_pmf(Fraction(*g), Fraction(*d))
        with mpmath.workdps(RHO_DPS):
            assert abs(mpmath.fsum(want) - 1) <= 1e-45
            mean = mpmath.fsum(j * p for j, p in enumerate(want))
            assert abs(mean - mpmath.log(mpmath.mpf(d[0]) * g[1] / (d[1] * g[0]))) <= 1e-43

    @pytest.mark.parametrize("g", [Fraction(1, 7), Fraction(2, 15)])
    def test_window_oracle_at_delta_one_is_the_rho_oracle(self, g):
        # two oracles that share no code: (gamma, 1] in t and rho_k at u = 1/gamma
        want = window_pmf(g, Fraction(1))
        with mpmath.workdps(RHO_DPS):
            u = mpmath.mpf(g.denominator) / g.numerator
            for j, p in enumerate(want):
                assert abs(p - (rho(j + 1, u) - rho(j, u))) <= 1e-45, j

    def test_one_pass_reads_every_piece(self):
        # one call of the steps at points across 40 pieces, integers and
        # points 1e-12 either side of them among them: each row is the
        # one-point p_limit of (1/u, 1] and the oracle's F_j(u); u = 1 is
        # the empty window, [1, 0, ...]
        ints = np.arange(1.0, 41.0)
        u = np.concatenate((ints, ints[1:] - 1e-12, ints[:-1] + 1e-12,
                            np.linspace(1.0, 40.0, 84)[1:-1]))
        u[1:] = 1 / (1 / u[1:])  # the u that p_limit of (1/u, 1] reads
        assert len(u) == 200
        rows = limit_integrals._steps_pmf(u, 40)
        assert rows.shape == (200, 41)
        for x, row in zip(u.tolist(), rows.tolist()):
            want = (1.0,) if x == 1 else p_limit(Interval(1 / x, 1)).as_floats()
            want += (0.0,) * (41 - len(want))
            assert max(abs(a - b) for a, b in zip(row, want)) <= 1e-15, x
            rhos = [rho(k, x) if k < x else 1 for k in range(42)]  # rho_k = 1 on [0, k]
            for j, p in enumerate(row):
                assert abs(p - (rhos[j + 1] - rhos[j])) <= 1e-14, (x, j)

    def test_constant_piece_reads_one_then_zeros(self):
        # u in [0, 1], where F_j = [j = 0]: the row [1, 0, ...] exactly, in
        # one call with later pieces, and alone (no piece is stepped)
        u = [0.0, 0.25, 0.5, 1 - 1e-16, 1.0, 2.5]
        rows = limit_integrals._steps_pmf(u, 3).tolist()
        assert rows[:5] == [[1.0, 0.0, 0.0, 0.0]] * 5
        assert rows[5] == list(p_limit(Interval(1 / 2.5, 1)).as_floats()) + [0.0]
        assert limit_integrals._steps_pmf([0.0, 0.5], 0).tolist() == [[1.0], [1.0]]

    @pytest.mark.parametrize("g", [1 / 5.3, 1 / 6.7, 1 / 8.2, 1 / 10.34, 1 / 12.5, 1 / 15.05,
                                   1 / 17.9, 1 / 20.3])
    def test_steps_match_the_ladder_moments(self, g):
        # the steps' pmf against the ladder's q_1..q_4, two engines that
        # share only the Chebyshev nodes
        p = p_limit(Interval(g, 1.0))
        for r in range(1, 5):
            want = q_limit(r, Interval(g, 1.0))
            assert abs(falling_moment(p, r) - want) <= 1e-13 * want, r

    @pytest.mark.parametrize("g", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 0.6, 0.75,
                                   0.99, 0.45, 0.3, 0.22, 1 / 3.9, 1 / 4.5])
    def test_steps_match_the_ladder_at_supports_1_to_4(self, g):
        # from the constant piece [0, 1], with no closed-form start: the
        # ladder's inverted moments, entry by entry
        r = support_bound(g)
        got = p_limit(Interval(g, 1)).as_floats()
        want = limit_integrals._ladder_pmf(r, float(g), 1.0).as_floats()
        assert 1 <= r <= 4 and len(got) == len(want) == r + 1
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15

    def test_steps_below_the_rounding_floor_raise(self, monkeypatch):
        # a wrong step matrix drives entries far below 0; like the moment
        # inversion, the steps refuse them rather than clamp them away
        monkeypatch.setattr(limit_integrals, "_STEP", -limit_integrals._STEP)
        with pytest.raises(DomainError, match="rounding floor"):
            p_limit(Interval(1 / 10.3, 1.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [982, 998])
    def test_support_near_the_cap_does_not_overflow(self, k):
        # the ladder's levels overflow float64 here; the steps' values lie in
        # [0, 1], and the mean is the integral of dx/x over (gamma, 1]
        t0 = time.perf_counter()
        got = p_limit(Interval(1 / (k + 0.5), 1)).as_floats()
        assert time.perf_counter() - t0 < 1.0
        assert len(got) == k + 1
        assert min(got) >= 0.0
        assert abs(math.fsum(got) - 1.0) <= 1e-12
        assert abs(math.fsum(j * p for j, p in enumerate(got)) - math.log(k + 0.5)) <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("d", [0.9, 0.5])
    def test_delta_below_one_near_the_cap_does_not_overflow(self, d):
        # the ladder's levels overflowed float64 here when every order up to
        # 990 was built; the cut stops at the first order whose tail is below 1e-17
        g = 1 / 990.5
        t0 = time.perf_counter()
        got = p_limit(Interval(g, d)).as_floats()
        assert time.perf_counter() - t0 < 0.1
        assert len(got) == 991
        assert abs(math.fsum(j * p for j, p in enumerate(got)) - math.log(d / g)) <= 1e-12

    # q_2 of (1/990.5, 0.9] to 30 digits by mpmath: ln(d/g) ln((1 - d)/g) plus
    # the integral of ln((1 - z)/g)/z over [1 - d, d], at the floats g and d
    NEAR_CAP_Q2 = 45.177206080905771799

    def test_near_the_cap_q2_within_1e_14_relative(self):
        got = q_limit(2, Interval(1 / 990.5, 0.9))
        assert abs(got - self.NEAR_CAP_Q2) <= 1e-14 * self.NEAR_CAP_Q2

    # q_3 to 30 digits by mpmath at the float ends: the integral over x in
    # [g, d] of I_2(1 - x)/x, with I_2(c) the integral of ln(min(d, c - y)/g)/y
    # over [g, min(d, c - g)], split at the kinks; the ladder once read 8.1e-11
    # and 5.0e-12 relative off
    @pytest.mark.parametrize("d, want", [(0.9, 292.695712303141929612),
                                         (0.5, 238.426168120526980060)])
    def test_near_the_cap_q3_within_1e_14_relative(self, d, want):
        got = q_limit(3, Interval(1 / 990.5, d))
        assert abs(got - want) <= 1e-14 * want

    def test_near_the_cap_pmf_second_moment_within_1e_12_relative(self):
        # once 1.75e-9: level 2's last piece [gamma + delta, 1] was not graded
        # from its kink, one gamma right of a singular point of its integrand
        got = falling_moment(p_limit(Interval(1 / 990.5, 0.9)), 2)
        assert abs(got - self.NEAR_CAP_Q2) <= 1e-12 * self.NEAR_CAP_Q2

    def test_order_cut_moves_no_entry_past_its_tail(self):
        # (1/100.5, 1/5.5) keeps orders to m < 100; against the inversion of all 100
        r, g, d = 100, 1 / 100.5, 1 / 5.5
        values, _ = _moments(r, g, d, 1.0)
        q = [1.0] + [max(v, 0.0) for v in values] + [0.0] * (r - len(values))
        want = pmf_from_falling_moments(MomentVector(tuple(q))).as_floats()
        got = p_limit(Interval(g, d)).as_floats()
        assert len(got) == len(want) == r + 1
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-17

    def test_deep_window_box_moments(self):
        # gamma near 1/20, delta near 1/10: support 20, 18 nested levels.
        # While r * delta <= 1 the slice never binds, so q_r = log(delta/gamma)^r.
        g, d = 1 / 20.5, 1 / 10.3
        p = p_limit(Interval(g, d))
        assert len(p) == 21
        for r in range(1, 11):
            assert falling_moment(p, r) == pytest.approx(
                math.log(d / g) ** r, abs=1e-12)


class TestP1Derivative:
    def test_zero_at_gamma_star(self):
        assert abs(p1_derivative(GAMMA_STAR)) < 1e-12

    def test_finite_difference(self):
        h, x = 1e-5, 0.45
        iv = lambda g: Interval(g, 1.0)
        fd = (p_limit(iv(x + h))[1] - p_limit(iv(x - h))[1]) / (2 * h)
        assert p1_derivative(x) == pytest.approx(fd, abs=1e-6)

    def test_value(self):
        x = 0.4
        want = (-1 + 2 * (math.log(0.6) - math.log(0.4))) / 0.4
        assert p1_derivative(x) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(-0.4726744594591599, abs=1e-12)

    def test_domain(self):
        for bad in (0.3, 1 / 3, 0.5, 0.7):
            with pytest.raises(DomainError):
                p1_derivative(bad)


class TestPSlope:
    @pytest.mark.parametrize("g, i", [(0.4, 1), (0.2, 1), (0.2, 2), (0.13, 0), (0.13, 3),
                                      (0.07, 4), (0.6, 0), (0.6, 1)])
    def test_matches_central_differences(self, g, i):
        # at 0.6, g' = 1.5 >= 1: the pmf of (g', 1] is read as [1, 0, ...]
        h = 1e-5
        p = lambda x: p_limit(Interval(x, 1.0))[i]
        assert abs(limit_integrals._p_slope(i, g) - (p(g + h) - p(g - h)) / (2 * h)) <= 1e-7

    @pytest.mark.parametrize("g", [0.34, 0.4, 0.45, 0.49])
    def test_is_p1_derivative_on_the_third_to_half(self, g):
        assert limit_integrals._p_slope(1, g) == pytest.approx(p1_derivative(g), abs=1e-14)


class TestGammaStar:
    def test_value(self):
        assert gamma_star() == pytest.approx(GAMMA_STAR, abs=1e-12)
        assert gamma_star() == pytest.approx(0.37754066879814544, abs=1e-12)
        assert gamma_star() == 1 / (1 + math.sqrt(math.e))

    def test_above_inverse_e(self):
        assert gamma_star() > math.exp(-1)

    def test_is_stationary_point(self):
        g = gamma_star()
        assert abs(p1_derivative(g)) < 1e-10


class TestArgmaxP:
    def test_single_cycle_peak(self):
        got = argmax_p(1, 1 / 3, 0.5)
        assert got == pytest.approx(GAMMA_STAR, abs=1e-5)

    def test_benchmark_bracket_lands_on_gamma_star(self):
        assert abs(argmax_p(1, 0.34, 0.49) - gamma_star()) <= 1e-12

    def test_zero_cycles_maximized_at_right_edge(self):
        assert argmax_p(0, 0.5, 1.0) >= 1.0 - 1e-6

    def test_two_cycle_peak_at_left_edge(self):
        got = argmax_p(2, 0.25, 0.5)
        assert got == pytest.approx(0.25, abs=1e-4)
        val = p_limit(Interval(got, 1.0))[2]
        assert val == pytest.approx(0.361432593, abs=1e-4)

    def test_deep_lower_bracket(self):
        # one p_limit per point: a ladder based at lo = 1/1500 would need
        # 1500 levels, past LADDER_MAX_ORDER
        t0 = time.perf_counter()
        got = argmax_p(1, 1 / 1500, 0.5)
        assert time.perf_counter() - t0 < 1.0
        assert got == pytest.approx(gamma_star(), abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            argmax_p(1, 0.5, 0.4)
        with pytest.raises(DomainError):
            argmax_p(4, 0.3, 0.5)  # index beyond support at lo
        with pytest.raises(DomainError, match="must be an integer"):
            argmax_p(1.5, 0.34, 0.49)  # once a TypeError


class TestSmallSimplexRatio:
    def test_k1_closed_form(self):
        for g in (0.1, 0.4, 0.8):
            assert small_simplex_ratio(1, g) == pytest.approx(
                -math.log(g) / (1 - g), rel=1e-12)

    def test_frozen_values(self):
        assert small_simplex_ratio(2, 0.35) == pytest.approx(
            2.560047873, abs=1e-7)
        assert small_simplex_ratio(2, 0.4999) == pytest.approx(
            2.00026672, abs=1e-6)
        assert small_simplex_ratio(3, 1 / 3 - 1e-3) == pytest.approx(
            4.51016762, abs=1e-6)

    def test_bounds(self):
        for k, g in [(1, 0.3), (2, 0.2), (2, 0.45), (3, 0.1), (3, 0.3)]:
            val = small_simplex_ratio(k, g)
            lo = k ** k / math.factorial(k)
            hi = g ** (-k) / math.factorial(k)
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            small_simplex_ratio(0, 0.3)
        with pytest.raises(DomainError):
            small_simplex_ratio(2, 0.5)
        with pytest.raises(DomainError):
            small_simplex_ratio(3, 0.4)
        with pytest.raises(DomainError, match="k must be an integer"):
            small_simplex_ratio(2.5, 0.3)


class TestEwensLambda:
    def test_sigma_one_reduces_to_log_ratio(self):
        iv = Interval(0.25, 0.75)
        assert ewens_lambda(iv, 1.0) == pytest.approx(math.log(3), abs=1e-12)

    def test_interior_window_closed_form(self):
        # integral of (1-x)/x on [1/4, 1/2] = log(2) - 1/4
        got = ewens_lambda(Interval(0.25, 0.5), 2.0)
        assert got == pytest.approx(math.log(2) - 0.25, abs=1e-12)

    def test_singular_upper_endpoint(self):
        got = ewens_lambda(Interval(0.5, 1.0), 0.5)
        assert got == pytest.approx(1.76274717403909, abs=1e-10)

    def test_narrow_window(self):
        got = ewens_lambda(Interval(Fraction(1, 4), Fraction(1, 3)), 2.0)
        assert got == pytest.approx(0.204348739118448, abs=1e-12)

    @staticmethod
    def _to_one(g, sigma):
        # the (gamma, 1] integral at 50 digits: with t = 1 - x it is the
        # incomplete beta B(1 - gamma; sigma, 0) = x^s/s 2F1(s, 1; s + 1; x)
        with mpmath.workdps(50):
            x, s = 1 - mpmath.mpf(g), mpmath.mpf(sigma)
            return x ** s / s * mpmath.hyp2f1(s, 1, s + 1, x)

    GAMMAS = (1e-3, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999)
    SIGMAS = (1e-3, 0.01, 0.5, 1.0, 2.0, 7.5, 50.0, 300.0)

    def test_to_one_within_1e_13_relative(self):
        # one integral in logit coordinates.  The tail sum once stopped at an
        # absolute 1e-17, which cost a small value its digits: 4.6e-11
        # relative at (0.9, 1] and 2.4e-6 at (0.999, 1], both at sigma = 7.5,
        # and an absolute head tolerance read 1.1e-2 at (0.1, 1] and (0.25, 1]
        # at sigma = 300; the tail series and gamma*2^k breakpoints that
        # followed read 2.2e-13 on this grid and the next.  Values below
        # 1e-250, near the subnormal range, are out of scope.
        for g in self.GAMMAS:
            for sigma in self.SIGMAS:
                want = self._to_one(g, sigma)
                if want >= 1e-250:
                    got = ewens_lambda(Interval(g, 1.0), sigma)
                    assert abs(got - want) <= 1e-13 * want, (g, sigma)

    def test_below_one_within_1e_13_relative(self):
        # (0.1, 0.9995] at sigma = 300 read 4.9e-2 at an absolute tolerance
        for g in self.GAMMAS:
            for d in [0.9995] + ([2 * g] if 2 * g < 0.95 else []):
                for sigma in self.SIGMAS:
                    with mpmath.workdps(50):
                        want = self._to_one(g, sigma) - self._to_one(d, sigma)
                    if want >= 1e-250:
                        got = ewens_lambda(Interval(g, d), sigma)
                        assert abs(got - want) <= 1e-13 * want, (g, d, sigma)

    @pytest.mark.parametrize("g,d", [(0.3, 0.3 + 1e-9), (0.25, 0.2501), (1e-3, 1e-3 + 1e-12),
                                     (0.9, 0.9 + 1e-10), (0.999, 0.9990001)])
    def test_narrow_window_within_1e_13_relative(self, g, d):
        # the integrand is nearly constant across the window, so the value
        # has the relative error of its logit width: logit delta - logit
        # gamma from two rounded logits read 4.3e-8 at (0.3, 0.3 + 1e-9]
        for sigma in self.SIGMAS:
            with mpmath.workdps(50):
                want = self._to_one(g, sigma) - self._to_one(d, sigma)
            if want >= 1e-250:
                got = ewens_lambda(Interval(g, d), sigma)
                assert abs(got - want) <= 1e-13 * want, (g, d, sigma)

    @pytest.mark.parametrize("g", [1e-20, 1e-100, 1e-300])
    @pytest.mark.parametrize("d", [0.9, 1.0])
    def test_tiny_gamma_within_1e_14_relative(self, g, d):
        # Halving alone could not reach the 1/x pole within MAX_DEPTH, so
        # these raised ToleranceNotMet, and the gamma*2^k breakpoints that
        # followed read 2.7e-14.  The 40-digit reference splits off ln(d/g)
        # and integrates the bounded rest ((1-x)^(sigma-1) - 1)/x.
        for sigma in (0.5, 1.0, 2.0, 7.5):
            with mpmath.workdps(40):
                x0, x1, s = mpmath.mpf(g), mpmath.mpf(d), mpmath.mpf(sigma)
                rest = lambda x: mpmath.expm1((s - 1) * mpmath.log1p(-x)) / x
                want = mpmath.log(x1 / x0) + mpmath.quad(rest, [x0, x1 / 2, x1])
            got = ewens_lambda(Interval(g, d), sigma)
            assert abs(got - want) <= 1e-14 * want, (g, d, sigma)

    @pytest.mark.parametrize("sigma", [5e-324, 1e-308, 4.6e-307])
    def test_sigma_past_float64_refused(self, sigma):
        # about 1/sigma on (gamma, 1]: 5e-324 once returned inf, and the
        # quadrature cannot run once the cut 42/sigma is past half the range
        with pytest.raises(DomainError, match="sigma"):
            ewens_lambda(Interval(0.25, 1.0), sigma)

    @pytest.mark.parametrize("sigma", [4.8e-307, 1e-300, 1e-200])
    def test_tiny_sigma_within_1e_14_relative(self, sigma):
        # just above the refusal, and delta < 1, where the cut never binds
        want = self._to_one(0.25, sigma)
        got = ewens_lambda(Interval(0.25, 1.0), sigma)
        assert abs(got - want) <= 1e-14 * want
        # x^-1 (1 - x)^-1 integrates to the logit difference, ln 3 here
        assert ewens_lambda(Interval(0.25, 0.5), sigma) == pytest.approx(math.log(3), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            ewens_lambda(Interval(0.25, 0.5), 0.0)
        with pytest.raises(DomainError):
            ewens_lambda(Interval(0.25, 0.5), -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_refused(self, sigma):
        with pytest.raises(DomainError):
            ewens_lambda(Interval(Fraction(1, 4), Fraction(1, 3)), sigma)


class TestScipyCrossCheck:
    """Independent double-quadrature oracle computed live (scipy)."""

    @pytest.mark.parametrize("g,d", [(0.3, 0.8), (0.38, 1.0), (0.45, 0.55)])
    def test_q2_against_dblquad(self, g, d):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        want, est = scipy_integrate.dblquad(
            lambda y, x: 1.0 / (x * y), g, d,
            lambda x: g, lambda x: max(g, min(d, 1.0 - x)),
            epsabs=1e-12, epsrel=1e-12)
        assert est < 1e-8
        assert q_limit(2, Interval(g, d)) == pytest.approx(want, abs=1e-7)
