"""Limiting moments, closed forms, recurrences, and derived quantities.

Reference values were frozen from independent oracles: direct scipy
nested/double quadrature over the defining integrals, mpmath dilogarithms,
and high-precision evaluation of the analytic formulas.
"""

import math
import random
from fractions import Fraction

import pytest

from cyclewindow.errors import DomainError
from cyclewindow.limit_integrals import (
    Interval, Q_recurrence, _interp_pieces, _PiecewiseCheb, argmax_p,
    ewens_lambda, gamma_star, p1_derivative, p_limit, q2_closed_form, q_limit,
    sliced_cube_integral, small_simplex_ratio, support_bound,
)
from cyclewindow.quadrature import QuadratureConfig
from cyclewindow.quasi_poisson import (
    MomentVector, falling_moment, pmf_from_falling_moments,
)

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


class TestPiecewiseCheb:
    def test_bit_identical_to_numpy_in_every_piece(self):
        # A level-like table: kink at 0.3, pieces of uneven width.
        bounds = [0.15, 0.3, 0.42, 0.9]
        level = lambda t: math.log(t / 0.15) * math.log(max(t, 0.3) / 0.3 + 1.0)
        chebs = _interp_pieces(bounds, level)
        table = _PiecewiseCheb(bounds, chebs, left=0.0, right=None)
        rng = random.Random(20260815)
        for a, b, cheb in zip(bounds, bounds[1:], chebs):
            for _ in range(2000):
                t = rng.uniform(a, b)
                assert table(t) == float(cheb(t))

    def test_outside_range(self):
        bounds = [0.2, 0.5]
        table = _PiecewiseCheb(bounds, _interp_pieces(bounds, math.exp),
                               left=0.0, right=None)
        assert table(0.1) == 0.0
        assert table(0.7) == table(0.5)


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

    def test_error_estimate_returned(self):
        val, err = sliced_cube_integral(2, Interval(0.3, 0.8), 1.0,
                                        with_error=True)
        assert 0 <= err < 1e-9
        assert val == pytest.approx(q_limit(2, Interval(0.3, 0.8)), abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            sliced_cube_integral(-1, Interval(0.3, 0.8), 1.0)
        with pytest.raises(DomainError):
            sliced_cube_integral(2, Interval(0.3, 0.8), 0.0)


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


class TestSupportBound:
    def test_exact_fraction(self):
        assert support_bound(Fraction(1, 3)) == 3
        assert support_bound(Fraction(1, 4)) == 4

    def test_float_near_reciprocal(self):
        assert support_bound(1 / 3) == 3
        assert support_bound(0.2) == 5
        assert support_bound(0.26) == 3


class TestPLimit:
    def test_quarter_to_third_matches_quasi_poisson(self):
        from cyclewindow.quasi_poisson import qp_pmf
        got = p_limit(Interval(Fraction(1, 4), Fraction(1, 3)))
        want = qp_pmf(3, math.log(4 / 3)).as_floats()
        assert len(got) == 5
        for a, b in zip(got.as_floats(), want):
            assert a == pytest.approx(b, abs=1e-10)
        assert got.as_floats()[4] == pytest.approx(0.0, abs=1e-12)

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


class TestGammaStar:
    def test_value(self):
        assert gamma_star() == pytest.approx(GAMMA_STAR, abs=1e-12)
        assert gamma_star() == pytest.approx(0.37754066879814544, abs=1e-12)

    def test_above_inverse_e(self):
        assert gamma_star() > math.exp(-1)

    def test_is_stationary_point(self):
        g = gamma_star()
        assert abs(p1_derivative(g)) < 1e-10


class TestArgmaxP:
    def test_single_cycle_peak(self):
        got = argmax_p(1, 1 / 3, 0.5)
        assert got == pytest.approx(GAMMA_STAR, abs=1e-5)

    def test_zero_cycles_maximized_at_right_edge(self):
        assert argmax_p(0, 0.5, 1.0) >= 1.0 - 1e-6

    def test_two_cycle_peak_at_left_edge(self):
        got = argmax_p(2, 0.25, 0.5)
        assert got == pytest.approx(0.25, abs=1e-4)
        val = p_limit(Interval(got, 1.0))[2]
        assert val == pytest.approx(0.361432593, abs=1e-4)

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
