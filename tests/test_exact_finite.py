"""Exact finite-n ground truth: moments, DP distribution, brute force."""

import math
from fractions import Fraction

import pytest

from cyclewindow.errors import DomainError
from cyclewindow.exact_finite import (
    CycleSpec, IntWindow, brute_force_pmf, exact_falling_moment, exact_pmf,
    joint_falling_moment, normalized_window,
)
from cyclewindow.quasi_poisson import falling_moment


def padded(pmf, size):
    probs = tuple(pmf.probs)
    return probs + (Fraction(0),) * (size - len(probs))


class TestJointFallingMoment:
    def test_single_length(self):
        assert joint_falling_moment(10, CycleSpec(((3, 2),))) == Fraction(1, 9)

    def test_cutoff(self):
        assert joint_falling_moment(5, CycleSpec(((3, 2),))) == 0

    def test_product(self):
        spec = CycleSpec(((2, 2), (3, 1)))
        assert joint_falling_moment(12, spec) == Fraction(1, 12)

    def test_cutoff_boundary_inclusive(self):
        assert joint_falling_moment(6, CycleSpec(((3, 2),))) == Fraction(1, 9)

    def test_duplicate_lengths_rejected(self):
        with pytest.raises(DomainError):
            CycleSpec(((3, 1), (3, 2)))

    def test_length_exceeding_n(self):
        with pytest.raises(DomainError):
            joint_falling_moment(4, CycleSpec(((5, 1),)))


class TestExactPmf:
    def test_n1(self):
        assert exact_pmf(1, IntWindow(1, 1)).probs == (Fraction(0), Fraction(1))

    def test_n2_fixed_points(self):
        got = exact_pmf(2, IntWindow(1, 1))
        assert got.probs == (Fraction(1, 2), Fraction(0), Fraction(1, 2))

    def test_s4_window(self):
        got = exact_pmf(4, IntWindow(2, 4))
        assert got.probs == (Fraction(1, 24), Fraction(20, 24), Fraction(3, 24))

    def test_window_above_n_is_point_mass(self):
        got = exact_pmf(5, IntWindow(7, 9))
        assert got.probs == (Fraction(1),)

    def test_matches_brute_force_all_small_windows(self):
        for n in range(1, 7):
            for a in range(1, n + 1):
                for b in range(a, n + 1):
                    w = IntWindow(a, b)
                    dp, bf = exact_pmf(n, w), brute_force_pmf(n, w)
                    size = max(len(dp), len(bf))
                    assert padded(dp, size) == padded(bf, size), (n, a, b)

    def test_support_bound(self):
        pmf = exact_pmf(20, IntWindow(6, 20))
        assert len(pmf) == 20 // 6 + 1
        assert pmf[3] > 0

    def test_rational_mode_boundary(self):
        assert isinstance(exact_pmf(10, IntWindow(2, 5))[0], Fraction)
        assert isinstance(exact_pmf(201, IntWindow(50, 70))[0], float)
        assert isinstance(exact_pmf(201, IntWindow(50, 70), rational=True)[0],
                          Fraction)

    def test_float_mode_tracks_rational(self):
        w = IntWindow(63, 83)
        exact = exact_pmf(250, w, rational=True)
        approx = exact_pmf(250, w, rational=False)
        assert max(abs(float(p) - q) for p, q in zip(exact.probs, approx.probs)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_pmf(0, IntWindow(1, 1))
        with pytest.raises(DomainError):
            IntWindow(0, 3)
        with pytest.raises(DomainError):
            IntWindow(5, 3)


class TestBruteForce:
    def test_s3_fixed_points(self):
        got = brute_force_pmf(3, IntWindow(1, 1))
        assert got.probs == (Fraction(2, 6), Fraction(3, 6), Fraction(0),
                             Fraction(1, 6))

    def test_n1(self):
        assert brute_force_pmf(1, IntWindow(1, 1)).probs == (Fraction(0),
                                                             Fraction(1))

    def test_cost_guard(self):
        with pytest.raises(DomainError):
            brute_force_pmf(10, IntWindow(1, 1))


class TestExactFallingMoment:
    def test_r0(self):
        assert exact_falling_moment(7, IntWindow(3, 5), 0) == 1

    def test_harmonic_mean(self):
        want = Fraction(1, 6) + Fraction(1, 7) + Fraction(1, 8) + \
            Fraction(1, 9) + Fraction(1, 10)
        assert exact_falling_moment(10, IntWindow(6, 10), 1) == want
        assert want == Fraction(1627, 2520)

    def test_s4_mean(self):
        assert exact_falling_moment(4, IntWindow(2, 4), 1) == Fraction(13, 12)

    def test_mean_identity_general(self):
        for n, a, b in [(12, 3, 7), (25, 5, 25), (30, 1, 10)]:
            want = sum(Fraction(1, k) for k in range(a, b + 1))
            assert exact_falling_moment(n, IntWindow(a, b), 1) == want

    @pytest.mark.parametrize("n", [6, 13, 30])
    def test_agrees_with_pmf_moments(self, n):
        windows = [(1, n), (2, n // 2 + 1), (max(1, n // 4), max(2, n // 3))]
        for a, b in windows:
            w = IntWindow(a, b)
            pmf = exact_pmf(n, w)
            for r in range(5):
                assert exact_falling_moment(n, w, r) == falling_moment(pmf, r)

    def test_agrees_with_rational_dp_at_n300(self):
        w = IntWindow(20, 300)
        assert exact_falling_moment(300, w, 3) == \
            falling_moment(exact_pmf(300, w, rational=True), 3)

    def test_single_length_window_matches_joint(self):
        for n in (10, 17, 30):
            for k in (2, 3, 5):
                for r in (1, 2, 3):
                    got = exact_falling_moment(n, IntWindow(k, k), r)
                    if k * r <= n:
                        assert got == joint_falling_moment(n, CycleSpec(((k, r),)))
                    else:
                        assert got == 0

    def test_empty_window_moments(self):
        assert exact_falling_moment(5, IntWindow(7, 9), 1) == 0
        assert exact_falling_moment(5, IntWindow(7, 9), 0) == 1


class TestNormalizedWindow:
    def test_fraction_inputs_exact(self):
        assert normalized_window(500, Fraction(1, 4), Fraction(1, 3)) == \
            IntWindow(125, 166)
        assert normalized_window(1000, Fraction(1, 4), Fraction(1, 3)) == \
            IntWindow(250, 333)
        assert normalized_window(2000, Fraction(1, 4), Fraction(1, 3)) == \
            IntWindow(500, 666)

    def test_float_inputs_snap_at_integer_products(self):
        # 0.2 * 5 sits a hair above 1 in binary; must still give a = 1
        assert normalized_window(5, 0.2, 0.3) == IntWindow(1, 1)
        assert normalized_window(2000, 0.25, 1 / 3) == IntWindow(500, 666)

    def test_empty_window_sentinel(self):
        w = normalized_window(10, 0.85, 0.89)
        assert w == IntWindow(11, 11)
        assert exact_pmf(10, w).probs == (Fraction(1),)

    def test_full_upper(self):
        assert normalized_window(10, 0.95, 1.0) == IntWindow(10, 10)

    def test_domain(self):
        with pytest.raises(DomainError):
            normalized_window(0, 0.25, 0.5)
