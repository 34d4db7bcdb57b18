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
from rho_oracle import RHO_DPS, rho

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
    """(m, bounds, integrand) of every table of orders 2..r-1, from its own levels.

    p_limit((g, d)) builds those up to order r - 2; order r - 1 is a table of
    the full ladder, which emit_figure_data builds.
    """
    r = support_bound(g)
    levels, _ = _ladder(r - 1, g, d, 1.0)
    return [(m,) + limit_integrals._layout(m, g, d, 1.0, levels[m - 2])
            for m in range(2, len(levels) + 1)]


def _unchopped(bounds, fn):
    """_antiderivative's (coef, tail) with all 34 columns kept, rebuilt step by step."""
    coef = _interp_pieces(bounds, fn)
    width = np.diff(np.asarray(bounds, dtype=float))
    anti = coef @ quadrature._CHEB_INTEG * (0.5 * width)[:, None]
    rise = anti.sum(axis=1)
    anti[:, 0] += np.concatenate(([0.0], np.cumsum(rise[:-1])))
    return anti, width * np.abs(coef[:, -2:]).sum(axis=1)


class TestChoppedLevels:
    @pytest.mark.parametrize("g, d", _DEEP)
    def test_stored_rows_are_bit_identical_to_numpy(self, g, d):
        # a chopped level reads the stored, shorter rows as numpy would
        m, bounds, fn = _level_builds(g, d)[2]
        coef, _ = quadrature._antiderivative(bounds, fn)
        assert coef.shape[1] < 34
        table = _PiecewiseCheb(bounds, coef, left=0.0, right=None)
        rng = np.random.default_rng(20260815)
        for a, b, cheb in zip(bounds, bounds[1:], _chebs(bounds, coef)):
            ts = rng.uniform(a, b, 2000)
            assert [v.hex() for v in table(ts).tolist()] == \
                [float(cheb(t)).hex() for t in ts.tolist()], (m, a, b)

    @pytest.mark.parametrize("g, d", _DEEP)
    def test_change_is_within_the_mass_added_to_the_tail(self, g, d):
        rng = np.random.default_rng(20260815)
        for m, bounds, fn in _level_builds(g, d):
            coef, tail = quadrature._antiderivative(bounds, fn)
            full, full_tail = _unchopped(bounds, fn)
            keep = coef.shape[1]
            assert coef.tobytes() == full[:, :keep].tobytes(), m
            added = tail - full_tail
            # the dropped terms of each piece, |T_k| <= 1, bound its change
            dropped = np.abs(full[:, keep:]).sum(axis=1)
            assert np.all(dropped <= added * (1 + 1e-9)), m
            ts = np.concatenate([rng.uniform(a, b, 2000) for a, b in zip(bounds, bounds[1:])])
            want = _PiecewiseCheb(bounds, full, 0.0, None)(ts)
            got = _PiecewiseCheb(bounds, coef, 0.0, None)(ts)
            # plus the two Clenshaw runs' own rounding, a few ulps of the table
            rounding = 4 * np.spacing(np.abs(want).max())
            assert np.all(np.abs(got - want) <= added.max() + rounding), m

    @pytest.mark.parametrize("g, d", _DEEP[1:])
    def test_deep_windows_store_at_most_24_rows(self, g, d):
        # about 16 to 22 of the 34 columns stand above rounding there
        for m, bounds, fn in _level_builds(g, d):
            assert quadrature._antiderivative(bounds, fn)[0].shape[1] <= 24, m

    @pytest.mark.parametrize("g, d", _DEEP)
    def test_p_limit_tables_store_at_most_24_rows(self, g, d, count_builds):
        # level r-1 of (1/20.3, 1/10.4) peaks at 3.7e-16 and keeps all 34
        # columns, but p_limit builds no table above order r-2.  p_limit
        # solves (1/10.3, 1] by steps, with no table, so the ladder's own pmf
        # builds that window's r-3 tables
        r = support_bound(g)
        p_limit(Interval(g, d))
        if d == 1:
            assert not count_builds
            limit_integrals._ladder_pmf(r, g, d)
        assert len(count_builds) == r - 3
        for bounds, fn in count_builds:
            assert quadrature._antiderivative(bounds, fn)[0].shape[1] <= 24

    def test_keeps_two_columns_of_a_zero_table(self):
        coef, tail = quadrature._antiderivative([0.0, 0.5, 1.0], np.zeros_like)
        assert coef.shape == (2, 2) and not coef.any() and not tail.any()


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

    @pytest.mark.parametrize("k, g", [(3, 0.02), (4, 0.05), (4, 0.095), (6, 0.02)])
    def test_piece_count_tracks_the_first_round(self, k, g, monkeypatch):
        # the closed-form count against the pieces integrate_many starts with
        pieces, run = [], limit_integrals.integrate_many

        def counted(f, los, his, breakpoints):
            pieces.append(sum(len(quadrature._pieces(a, b, bps))
                              for a, b, bps in zip(los, his, breakpoints)))
            return run(f, los, his, breakpoints=breakpoints)

        monkeypatch.setattr(limit_integrals, "integrate_many", counted)
        Q_recurrence(k, g)
        assert sum(pieces) <= limit_integrals._recurrence_pieces(k, g) <= 1.25 * sum(pieces)

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
