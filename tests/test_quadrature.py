"""Adaptive quadrature engine: rule construction, refinement, failure modes."""

import inspect
import math
import time

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev, chebvander

from cyclewindow.errors import DomainError, ToleranceNotMet
from cyclewindow.quadrature import (
    GK15_GAUSS_WEIGHTS, GK15_NODES, GK15_WEIGHTS, MAX_DEPTH, MAX_LIVE_PANELS,
    _antiderivative, _integral, _interp_pieces, _PiecewiseCheb, integrate, integrate_simpson,
)


class TestRuleConstruction:
    def test_node_count_and_range(self):
        assert len(GK15_NODES) == 15
        assert all(-1.0 < x < 1.0 for x in GK15_NODES)
        assert all(w > 0 for w in GK15_WEIGHTS)

    def test_weights_sum_to_interval_length(self):
        assert math.isclose(math.fsum(GK15_WEIGHTS), 2.0, abs_tol=1e-14)
        assert math.isclose(math.fsum(GK15_GAUSS_WEIGHTS), 2.0, abs_tol=1e-14)

    def test_symmetry(self):
        xs = sorted(GK15_NODES)
        for lo_x, hi_x in zip(xs, reversed(xs)):
            assert abs(lo_x + hi_x) < 1e-14

    @pytest.mark.parametrize("deg", range(24))
    def test_polynomial_exactness_through_degree_23(self, deg):
        # exact moment of x^deg on [-1, 1]
        want = 0.0 if deg % 2 else 2.0 / (deg + 1)
        got = math.fsum(w * x**deg for x, w in zip(GK15_NODES, GK15_WEIGHTS))
        assert abs(got - want) < 5e-15

    def test_degree_24_not_exact(self):
        got = math.fsum(w * x**24 for x, w in zip(GK15_NODES, GK15_WEIGHTS))
        assert abs(got - 2.0 / 25) > 1e-10

    def test_embedded_gauss_exact_through_13(self):
        for deg in range(14):
            want = 0.0 if deg % 2 else 2.0 / (deg + 1)
            got = math.fsum(
                w * x**deg for x, w in zip(GK15_NODES, GK15_GAUSS_WEIGHTS))
            assert abs(got - want) < 5e-15

    def test_matches_a_40_digit_construction(self):
        # the same G7-K15 pair by another route: monomial E_8, mpmath roots
        nodes, w_kron, w_gauss = _gk15_reference()
        assert max(abs(mpmath.mpf(a) - b) for a, b in zip(GK15_NODES, nodes)) < 3e-16
        assert max(abs(mpmath.mpf(a) - b) for a, b in zip(GK15_WEIGHTS, w_kron)) < 1e-15
        assert max(abs(mpmath.mpf(a) - b) for a, b in zip(GK15_GAUSS_WEIGHTS, w_gauss)) < 1e-15


def _gk15_reference():
    """Sorted nodes, Kronrod weights and Gauss weights of (G7, K15) at 40 digits.

    E_8 = x^8 + c_6 x^6 + c_4 x^4 + c_2 x^2 + c_0 with the integral of
    E_8 P_7 x^k zero for k = 1, 3, 5, 7; its roots come from the quartic in
    x^2.  Gauss weights are 2/((1 - x^2) P_7'(x)^2).
    """
    with mpmath.workdps(40):
        p7 = lambda t: mpmath.legendre(7, t)
        moment = lambda q: mpmath.quad(lambda t: p7(t) * t**q, [-1, 1], method="gauss-legendre")
        a = mpmath.matrix([[moment(p + k) for p in (0, 2, 4, 6)] for k in (1, 3, 5, 7)])
        c0, c2, c4, c6 = mpmath.lu_solve(a, mpmath.matrix([-moment(8 + k) for k in (1, 3, 5, 7)]))
        ys = mpmath.polyroots([1, c6, c4, c2, c0], maxsteps=100, extraprec=100)
        kron_only = [s * mpmath.sqrt(mpmath.re(y)) for y in ys for s in (-1, 1)]
        # Newton from the asymptotic guesses cos(pi (4i - 1)/(4n + 2)), i = 1..n
        gauss = [mpmath.findroot(p7, math.cos(math.pi * (4 * i - 1) / 30), solver="newton")
                 for i in range(1, 8)]
        nodes = sorted(kron_only + gauss)
        vander = mpmath.matrix([[mpmath.legendre(j, x) for x in nodes] for j in range(15)])
        w_kron = mpmath.lu_solve(vander, mpmath.matrix([2] + [0] * 14))
        w_gauss = [2 / ((1 - x**2) * mpmath.diff(p7, x) ** 2) if x in gauss else 0 for x in nodes]
        return nodes, list(w_kron), w_gauss


# A step at x = 1/3 with no breakpoint cannot meet tol 1e-15 by MAX_DEPTH.
_STEP = lambda x: 1.0 if x > 1 / 3 else 0.0


class TestConfig:
    def test_defaults(self):
        assert inspect.signature(integrate).parameters["tol"].default == 1e-11
        assert MAX_DEPTH == 40

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0},
        {"tol": -1e-3},
        {"tol": math.nan},
    ])
    def test_invalid_config_rejected(self, kwargs):
        for call in (lambda: integrate(math.exp, 0.0, 1.0, **kwargs),
                     lambda: integrate_simpson(math.exp, 0.0, 1.0, **kwargs)):
            with pytest.raises(DomainError):
                call()


class TestIntegrate:
    def test_smooth(self):
        val, err = integrate(math.exp, 0.0, 1.0)
        assert abs(val - (math.e - 1.0)) < 1e-13
        assert err < 1e-11

    def test_log_singularity_integrand(self):
        # endpoint-singular but integrable; GK nodes are interior
        val, _ = integrate(lambda x: math.log(x), 0.0, 1.0)
        assert abs(val - (-1.0)) < 1e-9

    def test_kink_with_breakpoint(self):
        f = lambda x: math.sqrt(abs(x - 1 / 3))
        want = (2 / 3) * ((1 / 3) ** 1.5 + (2 / 3) ** 1.5)
        val, _ = integrate(f, 0.0, 1.0, breakpoints=[1 / 3])
        assert abs(val - want) < 1e-12

    def test_breakpoints_outside_range_ignored(self):
        val, _ = integrate(math.exp, 0.0, 1.0, breakpoints=[-5.0, 0.0, 1.0, 7.0])
        assert abs(val - (math.e - 1.0)) < 1e-12

    def test_empty_range(self):
        assert integrate(math.exp, 1.0, 1.0) == (0.0, 0.0)
        assert integrate(math.exp, 2.0, 1.0) == (0.0, 0.0)

    def test_simpson_rule(self):
        val, err = integrate_simpson(math.exp, 0.0, 1.0, 1e-10)
        assert abs(val - (math.e - 1.0)) < 1e-10
        assert err < 1e-10

    @pytest.mark.parametrize("rule", [integrate, integrate_simpson],
                             ids=["gauss-kronrod-15", "adaptive-simpson"])
    def test_tol_below_rounding_returns(self, rule):
        # tol 1e-300 is far below eps*|integral|; the rounding floor accepts
        val, err = rule(lambda x: 1e6 * math.exp(x), 0.0, 1.0, 1e-300)
        want = 1e6 * (math.e - 1.0)
        assert abs(val - want) <= 1e-13 * want
        assert err <= 1e-13 * want

    def test_tolerance_not_met_carries_diagnostics(self):
        with pytest.raises(ToleranceNotMet) as info:
            integrate(_STEP, 0.0, 1.0, 1e-15)
        exc = info.value
        assert exc.achieved is not None and exc.achieved > exc.requested
        assert exc.value is not None

    def test_deep_refinement_succeeds_on_needle(self):
        val, _ = integrate(lambda x: 1.0 / (1e-6 + (x - 0.5) ** 2), 0.0, 1.0, 1e-9)
        want = 2.0 / 1e-3 * math.atan(0.5 / 1e-3)
        assert abs(val - want) < 1e-6

    @pytest.mark.parametrize("rule, points", [(integrate, 15), (integrate_simpson, 5)],
                             ids=["gauss-kronrod-15", "adaptive-simpson"])
    def test_noisy_integrand_hits_live_panel_cap(self, rule, points):
        # every panel splits until 2^17 are live: 2^17 - 1 panels of 15 calls
        # (GK15) or 5 (Simpson), about 2 s at most on a 2-vCPU host
        rng = np.random.default_rng(20260815)
        calls = 0

        def noisy(x):
            nonlocal calls
            calls += 1
            return rng.random()

        started = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match=f"more than {MAX_LIVE_PANELS} live panels"):
            rule(noisy, 0.0, 1.0, 1e-11)
        assert calls == points * (2 * MAX_LIVE_PANELS - 1)
        assert time.perf_counter() - started < 5.0

    def test_needle_stops_at_the_rounding_floor(self):
        # without the floor this refined into rounding noise down to
        # MAX_DEPTH, holding 38,018 live panels; with it, 107 panels
        calls = 0

        def needle(x):
            nonlocal calls
            calls += 1
            return 1.0 / (1e-6 + (x - 0.5) ** 2)

        val, _ = integrate(needle, 0.0, 1.0)
        assert abs(val - 2.0 / 1e-3 * math.atan(0.5 / 1e-3)) < 1e-9
        assert calls <= 1605

    @pytest.mark.parametrize("rule", [integrate, integrate_simpson],
                             ids=["gauss-kronrod-15", "adaptive-simpson"])
    def test_nan_integrand_raises(self, rule):
        with pytest.raises(ToleranceNotMet, match="non-finite"):
            rule(lambda x: float("nan"), 0.0, 1.0, 1e-11)

    @pytest.mark.parametrize("rule", [integrate, integrate_simpson],
                             ids=["gauss-kronrod-15", "adaptive-simpson"])
    def test_infinite_integrand_raises(self, rule):
        f = lambda x: math.inf if x > 0.7 else 1.0
        with pytest.raises(ToleranceNotMet, match="non-finite"):
            rule(f, 0.0, 1.0, 1e-11)


# (bounds, fn) pairs with kinks at interior bounds
_KINKED = {
    "log": ([0.15, 0.3, 0.42, 0.9],
            lambda t: np.log(t / 0.15) * np.log(np.maximum(t, 0.3) / 0.3 + 1.0)),
    "graded": ([0.02, 0.04, 0.06, 0.1, 0.18, 0.34, 0.66, 1.0],
               lambda t: np.log(t / 0.01) / t),
    "sqrt": ([0.0, 0.2, 0.5, 0.9, 1.4], lambda t: np.sqrt(np.abs(t - 0.5)) + t),
    "cos": ([0.0, 1.0, 2.5, 3.0, 10.0], lambda t: np.cos(3.0 * t)),
}


class TestIntegral:
    @pytest.mark.parametrize("k", range(33))
    def test_integrates_every_chebyshev_polynomial(self, k):
        # Fejer's first rule on 33 nodes is exact through degree 32
        (value,), _ = _integral([-1.0, 1.0], lambda x: chebvander(x, 32)[:, k])
        assert abs(value - (0.0 if k % 2 else 2.0 / (1 - k * k))) <= 1e-15

    def test_samples_the_interpolation_nodes(self):
        seen = []
        sample = lambda t: seen.append(t.copy()) or np.cos(t)
        bounds = _KINKED["cos"][0]
        _integral(bounds, sample)
        _interp_pieces(bounds, sample)
        assert seen[0].tobytes() == seen[1].tobytes()

    @pytest.mark.parametrize("name", sorted(_KINKED))
    def test_value_matches_the_antiderivative_table(self, name):
        bounds, fn = _KINKED[name]
        (value,), _ = _integral(bounds, fn)
        table = _PiecewiseCheb(bounds, _antiderivative(bounds, fn)[0], 0.0, None)
        scale = max(abs(table(b)) for b in bounds)
        assert abs(value - table(bounds[-1])) <= 4 * np.spacing(scale)

    @pytest.mark.parametrize("name", sorted(_KINKED))
    def test_end_is_the_value_at_the_last_bound(self, name):
        # on antiderivative tables, the ones end() reads
        bounds, fn = _KINKED[name]
        coef = _antiderivative(bounds, fn)[0]
        want = float(Chebyshev(coef[-1], domain=bounds[-2:])(bounds[-1]))
        got = _PiecewiseCheb(bounds, coef, None, None).end()
        assert abs(got - want) <= 4 * np.spacing(abs(want)), (got, want)
        assert _PiecewiseCheb(bounds, coef, None, 2.5).end() == 2.5

    def test_stack_gives_each_integrand_and_one_summed_tail(self):
        # k integrands on one layout, one after another in one array: each
        # value is that integrand's alone, and the tail sums all k tails
        bounds = _KINKED["sqrt"][0]
        fns = [fn for _, fn in _KINKED.values()]
        alone = [_integral(bounds, fn) for fn in fns]
        values, tail = _integral(bounds, lambda t: np.concatenate([fn(t) for fn in fns]))
        assert len(values) == len(fns)
        for got, ((want,), _) in zip(values, alone):
            assert abs(got - want) <= 4 * np.spacing(abs(want))
        want = sum(t for _, t in alone)
        assert abs(tail - want) <= 4 * np.spacing(want)

    @pytest.mark.parametrize("name", ["sqrt", "cos"])
    def test_tail_matches_the_summed_table_tails(self, name):
        # functions whose c_31 and c_32 stand above rounding noise
        bounds, fn = _KINKED[name]
        _, tail = _integral(bounds, fn)
        want = float(_antiderivative(bounds, fn)[1].sum())
        assert abs(tail - want) <= 1e-17 + 0.01 * want
