"""Quasi-Poisson family, falling moments, and moment inversion."""

import math
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclewindow.errors import DomainError, InvalidMomentsError
from cyclewindow.limit_integrals import _ladder
from cyclewindow.quasi_poisson import (
    INVERSION_MAX_ORDER, MomentVector, Pmf, _is_exact, binomial_matrices, falling_moment,
    pmf_from_falling_moments, qp_pmf,
)

LAM43 = math.log(4 / 3)


def fixed_point_distribution(r):
    # brute force over all r! permutations
    counts = [0] * (r + 1)
    for perm in permutations(range(r)):
        counts[sum(1 for i, v in enumerate(perm) if i == v)] += 1
    total = math.factorial(r)
    return tuple(Fraction(c, total) for c in counts)


class TestQpPmf:
    def test_worked_example(self):
        pmf = qp_pmf(3, LAM43)
        want = (0.7497, 0.2168, 0.0295, 0.0040)
        for got, w in zip(pmf.probs, want):
            assert abs(got - w) < 1e-4

    def test_lambda_zero_point_mass(self):
        for r in (1, 2, 5):
            pmf = qp_pmf(r, 0.0)
            assert pmf[0] == 1.0
            assert all(p == 0.0 for p in pmf.probs[1:])

    def test_r2_lambda_one(self):
        pmf = qp_pmf(2, 1.0)
        assert abs(pmf[0] - 0.5) < 1e-14
        assert abs(pmf[1]) < 1e-14
        assert abs(pmf[2] - 0.5) < 1e-14

    def test_moments_recover_lambda_powers(self):
        for r in range(1, 11):
            for tenths in range(11):
                lam = tenths / 10
                pmf = qp_pmf(r, lam)
                assert abs(math.fsum(pmf.probs) - 1.0) < 1e-12
                assert all(p >= 0 for p in pmf.probs)
                for k in range(r + 1):
                    assert abs(falling_moment(pmf, k) - lam**k) < 1e-12

    def test_second_highest_entry_identity(self):
        # pi_{r-1}(r, lam) = lam^{r-1} (1 - lam) / (r-1)!
        for r in (2, 3, 5, 8):
            for lam in (0.0, 0.3, 0.7, 1.0):
                want = lam ** (r - 1) * (1 - lam) / math.factorial(r - 1)
                assert abs(qp_pmf(r, lam)[r - 1] - want) < 1e-14

    def test_matches_fixed_point_distribution(self):
        for r in range(1, 7):
            pmf = qp_pmf(r, 1.0)
            brute = fixed_point_distribution(r)
            for got, w in zip(pmf.probs, brute):
                assert abs(got - float(w)) < 1e-12

    def test_exact_rational_mode(self):
        pmf = qp_pmf(3, Fraction(1, 4))
        assert all(isinstance(p, Fraction) for p in pmf.probs)
        assert sum(pmf.probs) == 1
        assert falling_moment(pmf, 2) == Fraction(1, 16)

    @pytest.mark.parametrize("r,lam", [(0, 0.5), (-1, 0.5), (3, -0.01), (3, 1.01),
                                       (100_000, 0.5), (3.0, 0.5), (2.5, 0.5)])
    def test_domain(self, r, lam):
        with pytest.raises(DomainError):
            qp_pmf(r, lam)

    def test_large_r_is_refused_before_building_moments(self):
        t0 = time.perf_counter()
        with pytest.raises(DomainError):
            qp_pmf(4_000_000, 0.5)
        assert time.perf_counter() - t0 < 0.05


class TestFallingMoment:
    def test_lambda_squared(self):
        assert abs(falling_moment(qp_pmf(3, 0.2), 2) - 0.04) < 1e-15

    def test_point_mass_mean(self):
        pmf = Pmf((0, 0, 0, 0, 0, 1))
        assert falling_moment(pmf, 1) == 5

    def test_enumeration_mean(self):
        pmf = Pmf((Fraction(1, 24), Fraction(20, 24), Fraction(3, 24)))
        assert falling_moment(pmf, 1) == Fraction(13, 12)

    def test_k_zero(self):
        assert falling_moment(Pmf((0.25, 0.75)), 0) == 1

    def test_k_beyond_support(self):
        assert falling_moment(Pmf((0.25, 0.75)), 5) == 0

    def test_negative_k(self):
        with pytest.raises(DomainError):
            falling_moment(Pmf((1.0,)), -1)
        with pytest.raises(DomainError, match="must be an integer"):
            falling_moment(qp_pmf(3, 0.5), 1.5)  # once a TypeError


class TestInversion:
    def test_quasi_poisson_round_trip(self):
        mv = MomentVector((1.0, LAM43, LAM43**2, LAM43**3))
        got = pmf_from_falling_moments(mv)
        want = qp_pmf(3, LAM43)
        for g, w in zip(got.probs, want.probs):
            assert abs(g - w) < 1e-14

    def test_constant_two(self):
        got = pmf_from_falling_moments(MomentVector((1, 2, 2, 0)))
        assert tuple(got.probs) == (0, 0, 1, 0)

    def test_printed_rounded_moments_give_printed_p_values(self):
        # inputs and outputs quoted to the precision of the source table
        got = pmf_from_falling_moments(MomentVector((1.0, 0.974076, 0.145698)))
        for g, w in zip(got.probs, (0.0987, 0.8285, 0.0728)):
            assert abs(g - w) < 2e-4

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=10)
           .filter(lambda ws: sum(ws) > 0))
    @settings(deadline=None, max_examples=150)
    def test_round_trip_random_pmf(self, weights):
        total = sum(weights)
        pmf = Pmf(tuple(Fraction(w, total) for w in weights))
        moments = MomentVector(tuple(
            falling_moment(pmf, k) for k in range(len(pmf))))
        back = pmf_from_falling_moments(moments)
        assert tuple(back.probs) == tuple(pmf.probs)

    def test_clamp_window(self):
        # moments of a point mass at 1, with q1 bumped by 5e-10: p_0 lands in
        # [-1e-9, 0) and is clamped, then renormalized
        got = pmf_from_falling_moments(MomentVector((1.0, 1.0 + 5e-10, 0.0)))
        assert got[0] == 0.0
        assert abs(got[1] - 1.0) < 1e-9

    def test_invalid_moments_rejected(self):
        with pytest.raises(InvalidMomentsError):
            pmf_from_falling_moments(MomentVector((1, 2, 0)))

    def test_order_past_the_cap_is_refused(self):
        with pytest.raises(DomainError, match="moment inversion stops"):
            pmf_from_falling_moments(MomentVector((1.0,) + (0.0,) * (INVERSION_MAX_ORDER + 1)))

    def test_moment_vector_validation(self):
        with pytest.raises(DomainError):
            MomentVector((0.5, 0.2))
        with pytest.raises(DomainError):
            MomentVector((1.0, -0.1))
        with pytest.raises(DomainError):
            MomentVector(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_moment_vector_refuses_non_finite(self, bad):
        with pytest.raises(DomainError, match="not finite"):
            MomentVector((1.0, bad))

    def test_support_past_170_inverts_exactly(self):
        # j! overflows a float past 170; the float moments 0.5^j are exact
        # binary rationals, so the float and Fraction inversions agree
        got = qp_pmf(200, 0.5).as_floats()
        want = qp_pmf(200, Fraction(1, 2)).as_floats()
        assert len(got) == 201
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-16
        assert got[3] == pytest.approx(math.exp(-0.5) * 0.5**3 / 6, rel=1e-14)

    @pytest.mark.parametrize("gamma,delta,support", [
        (0.3, 1.0, 3), (1 / 20.3, 1 / 10.4, 20), (1 / 100, 1.0, 100), (1 / 150, 1.0, 150)],
        ids=["support3", "support20", "support100", "support150"])
    def test_float_inversion_is_the_exact_inversion_rounded(self, gamma, delta, support):
        # the float moments p_limit inverts, against the same values read as
        # Fractions: clamped and renormalized in integers, each entry is
        # rounded once, so the two agree to the last bit
        levels, _ = _ladder(support, gamma, delta, 1.0)
        q = [1.0] + [max(float(level(1.0)), 0.0) for level in levels]
        q += [0.0] * (support + 1 - len(q))  # orders past the last level are 0
        got = pmf_from_falling_moments(MomentVector(tuple(q))).as_floats()
        want = pmf_from_falling_moments(MomentVector(tuple(map(Fraction, q)))).as_floats()
        assert len(got) == support + 1
        assert got == want


class TestBinomialMatrices:
    def test_n0(self):
        m, n = binomial_matrices(0)
        assert m == [[1]] and n == [[1]]

    def test_n2_entries(self):
        m, n = binomial_matrices(2)
        assert m == [[1, 1, 1], [0, 1, 2], [0, 0, 1]]
        assert n == [[1, -1, 1], [0, 1, -2], [0, 0, 1]]

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_product_is_identity(self, n):
        m, minv = binomial_matrices(n)
        size = n + 1
        for i in range(size):
            for j in range(size):
                got = sum(m[i][k] * minv[k][j] for k in range(size))
                assert got == (1 if i == j else 0)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            binomial_matrices(21)
        with pytest.raises(DomainError):
            binomial_matrices(-1)
        with pytest.raises(DomainError, match="must be an integer"):
            binomial_matrices(2.5)  # once a TypeError


class TestPmfType:
    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            Pmf((-0.1, 1.1))

    def test_sum_enforced(self):
        with pytest.raises(DomainError):
            Pmf((0.5, 0.4))
        with pytest.raises(DomainError):
            Pmf((Fraction(1, 2), Fraction(1, 3)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Pmf(())

    @pytest.mark.parametrize("probs", [(math.nan, math.nan), (1.0, math.nan),
                                       (math.inf, 0.0)])
    def test_non_finite_rejected(self, probs):
        with pytest.raises(DomainError, match="not finite"):
            Pmf(probs)

    def test_total_variation_pads_support(self):
        a = Pmf((1.0,))
        b = Pmf((0.5, 0.25, 0.25))
        assert abs(a.total_variation(b) - 0.5) < 1e-15
        assert a.total_variation(a) == 0.0


@pytest.mark.parametrize("x, exact", [
    (0.5, False), (np.float64(0.5), False), (2.0, False),
    (3, True), (np.int64(3), True), (Fraction(1, 3), True), (True, True),
])
def test_is_exact_truth_table(x, exact):
    # floats are answered before the slower Rational ABC check
    assert _is_exact(x) is exact
