"""Dilogarithm and Buchstab function."""

import math
import threading
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rho_oracle import RHO_DPS, rho

from cyclewindow.errors import DomainError
from cyclewindow.special_fn import (
    RealInterval, buchstab, buchstab_max_residual, dilog,
)

PI2_6 = math.pi**2 / 6


class TestDilog:
    def test_endpoints(self):
        assert dilog(0.0) == 0.0
        assert abs(dilog(1.0) - PI2_6) < 1e-15

    @pytest.mark.parametrize("x", [0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99])
    def test_against_mpmath(self, x):
        want = float(mpmath.polylog(2, x))
        assert abs(dilog(x) - want) < 1e-13

    def test_series_reflection_seam(self):
        # both evaluation branches meet at 1/2
        lo = dilog(0.5 - 1e-13)
        hi = dilog(0.5 + 1e-13)
        assert abs(hi - lo) < 1e-11

    def test_monotone_increasing(self):
        xs = [i / 40 for i in range(41)]
        vals = [dilog(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(deadline=None, max_examples=200)
    def test_reflection_identity(self, x):
        lhs = dilog(x) + dilog(1.0 - x) + math.log(x) * math.log1p(-x)
        assert abs(lhs - PI2_6) < 5e-14

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0, -5.0])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            dilog(x)


class TestBuchstab:
    def test_reciprocal_on_first_interval(self):
        for u in [1.0, 1.25, 1.5, 1.75, 2.0]:
            assert buchstab(u) == 1.0 / u

    def test_known_values(self):
        # omega(3) has the closed form (1 + ln 2)/3
        assert abs(buchstab(3.0) - (1 + math.log(2)) / 3) < 1e-10
        for u, want in [(2.5, 0.562186043243266), (3.5, 0.560828864451589),
                        (4.0, 0.561458241406838), (5.0, 0.561454468268457)]:
            assert abs(buchstab(u) - want) < 1e-10

    def test_first_step_matches_its_closed_form(self):
        # u*omega(u) = 1 + ln(u - 1) on [2, 3], one step from the constant piece
        for u in [2.0 + j / 64 for j in range(65)]:
            assert abs(u * buchstab(u) - (1 + math.log(u - 1))) <= 1e-14, u

    def test_matches_the_rho_oracle(self):
        # u*omega(u) = sum_j 2^j P_j((1/(u - 1), 1]), P_j = rho_{j+1} - rho_j at
        # u - 1: at every integer join of [2, 30] and two points inside each piece
        with mpmath.workdps(RHO_DPS):
            for u in [k + f for k in range(2, 30) for f in (0.0, 0.25, 0.7)] + [30.0]:
                v = u - 1
                rhos = [rho(k, v) if k < v else 1 for k in range(int(v) + 2)]  # 1 on [0, k]
                want = sum(2**j * (rhos[j + 1] - rhos[j]) for j in range(int(v) + 1)) / u
                assert abs(buchstab(u) - want) <= 1e-15, u

    def test_continuity_at_piece_joins(self):
        for u in (2.0, 3.0, 4.0):
            left = buchstab(u - 1e-9)
            right = buchstab(u + 1e-9)
            assert abs(left - right) < 1e-7

    def test_approaches_limit_constant(self):
        # omega(u) -> e^{-euler_gamma}; already within 1e-4 by u = 6
        limit = math.exp(-0.5772156649015329)
        assert abs(buchstab(6.0) - limit) < 1e-4
        assert abs(buchstab(8.0) - limit) < 1e-5

    def test_domain(self):
        with pytest.raises(DomainError):
            buchstab(0.5)

    @pytest.mark.parametrize("u", [math.inf, math.nan])
    def test_non_finite_refused_promptly(self, u):
        t0 = time.perf_counter()
        with pytest.raises(DomainError):
            buchstab(u)
        assert time.perf_counter() - t0 < 1.0

    def test_huge_u_is_prompt_and_at_the_limit(self):
        t0 = time.perf_counter()
        val = buchstab(1e6)
        assert time.perf_counter() - t0 < 1.0
        assert abs(val - math.exp(-0.5772156649015329)) < 1e-12

    def test_residual_small(self):
        res = buchstab_max_residual(RealInterval(2.0, 6.0), 17)
        assert res <= 1e-10

    def test_residual_domain(self):
        with pytest.raises(DomainError):
            buchstab_max_residual(RealInterval(1.0, 3.0), 5)

    def test_concurrent_table_growth(self):
        # call from several threads at once: buchstab keeps no state, so every
        # thread must get its own value, whatever the others are doing
        errs = []

        def worker(u):
            try:
                v = buchstab(u)
                if not 0.5 < v < 0.6:
                    errs.append(v)
            except Exception as exc:  # pragma: no cover
                errs.append(exc)

        threads = [threading.Thread(target=worker, args=(9.0 + i / 7,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errs == []


class TestRealInterval:
    def test_order_enforced(self):
        with pytest.raises(DomainError):
            RealInterval(2.0, 1.0)

    def test_finite_enforced(self):
        with pytest.raises(DomainError):
            RealInterval(0.0, math.inf)
