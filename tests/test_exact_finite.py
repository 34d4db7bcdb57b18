"""Exact finite-n ground truth: moments, DP distribution, brute force."""

import itertools
import math
import operator
import time
from fractions import Fraction

import numpy as np
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


def direct_rows(top, w):
    """P_0..P_top by P_m(i) = (1/m) sum_k P_{m-k}(i - [k in w]), no prefix sums."""
    rows = [[Fraction(1)]]
    for m in range(1, top + 1):
        row = [Fraction(0)] * (m // w.a + 1)
        for k in range(1, m + 1):
            hit = int(w.a <= k <= w.b)
            for i, p in enumerate(rows[m - k]):
                row[i + hit] += p
        rows.append([p / m for p in row])
    return rows


def cauchy_sum(n, w, r):
    """Sum of prod 1/k_i over ordered r-tuples of window lengths with sum <= n."""
    lengths = range(w.a, min(w.b, n) + 1)  # a longer cycle fits in no tuple
    return sum((Fraction(1, math.prod(ks)) for ks in itertools.product(lengths, repeat=r)
                if sum(ks) <= n), Fraction(0))


def convolution_moment(n, w, r):
    """E[(X)_r], r >= 1, by convolving ordered tuples of window lengths.

    f_j(s) = sum_{a <= k <= min(b, s)} f_{j-1}(s-k)/k from f_1 = 1/k, carried
    as integers over d**j, d = lcm of the lengths; the moment is the sum of
    f_{r-1}(t) times the window's harmonic sum up to n - t.
    """
    a, b = w.a, min(w.b, n)
    d = math.lcm(*range(a, b + 1))
    inv = [d // k if a <= k <= b else 0 for k in range(n + 1)]
    rev = inv[::-1]  # inv[s - t] = rev[n - s + t]
    f = inv if r > 1 else [1]
    for j in range(1, r - 1):
        f = [0] * min((j + 1) * a, n + 1) + [
            sum(map(operator.mul, f[(lo := max(j * a, s - b)):s - a + 1],
                    rev[n - s + lo:n - a + 1]))
            for s in range((j + 1) * a, n + 1)]
    harmonic = list(itertools.accumulate(inv))
    return Fraction(sum(map(operator.mul, f, reversed(harmonic))), d**r)


def row_major_pmf(n, w, rational):
    """exact_pmf's block fill on an (n+1) x support table, one row per m."""
    a, b = w.a, w.b
    support = n // a + 1
    if rational:
        dtype, one, div = object, math.factorial(n), operator.ifloordiv
    else:
        dtype, one, div = np.float64, 1.0, operator.itruediv
    cum = np.zeros((n + 1, support), dtype)
    u = np.zeros(support, dtype)
    u[0] = cum[1, 0] = one
    for s in range(1, n + 1, a):
        e = min(s + a, n + 1)
        k = (e - 1) // a + 1
        m = np.arange(s, e, dtype=dtype)
        q = m * (m + 1)
        if e > n:
            q[-1] = n
        d = np.zeros((e - s, k + 1), dtype)
        win = d[:, 1:k]
        win[max(a - s, 0):] = cum[max(s - a, 0) + 1:e - a + 1, :k - 1]
        if e > b + 1:
            win[max(b + 1 - s, 0):] -= cum[max(s - b, 1):e - b, :k - 1]
        div(win, q[:, None])
        d = d[:, :-1] - d[:, 1:]
        d[0] += u[:k]
        np.cumsum(d, axis=0, out=d)
        c = len(m) - (e > n)
        cum[s + 1:s + 1 + c, :k] = d[:c] * (m[:c] + 1)[:, None]
        u[:k] = d[-1]
    if rational:
        return tuple(Fraction(x, one) for x in u)
    return tuple(np.maximum(u, 0.0).tolist())


def check_against_direct(n, w, want):
    exact = exact_pmf(n, w, rational=True).probs
    approx = exact_pmf(n, w, rational=False).probs
    assert exact == tuple(want), (n, w)
    assert max(abs(float(p) - q) for p, q in zip(want, approx)) <= 1e-14, (n, w)
    assert min(approx) >= 0.0, (n, w)


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

    @pytest.mark.parametrize("entries, match", [(((0, 1),), "cycle length 0"),
                                                (((3, 0),), "multiplicity exponent 0")])
    def test_non_positive_entries_rejected(self, entries, match):
        with pytest.raises(DomainError, match=match):
            CycleSpec(entries)


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

    @pytest.mark.parametrize("a, b", [(200, 2000), (500, 700)])
    def test_float_mode_tracks_rational_at_n2000(self, a, b):
        exact = exact_pmf(2000, IntWindow(a, b), rational=True)
        approx = exact_pmf(2000, IntWindow(a, b), rational=False)
        assert max(abs(float(p) - q) for p, q in zip(exact.probs, approx.probs)) < 1e-14

    @pytest.mark.parametrize("n, w, rational", [
        (10**6, IntWindow(1, 10**6), None),
        (5000, IntWindow(1, 5000), True),
    ])
    def test_oversized_table_refused(self, n, w, rational):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=f"n = {n} with support {n + 1}"):
            exact_pmf(n, w, rational=rational)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n, a, b, rational", [
        (20000, 5000, 6666, False), (20000, 1000, 2000, False), (600, 60, 600, True),
        (600, 60, 600, False), (3000, 1, 40, False), (150, 2, 9, True), (150, 2, 9, False),
        (1, 1, 1, True), (1, 1, 1, False), (1, 1, 3, False),
        (1275, 5, 12, False), (1285, 5, 12, False),
    ])
    def test_matches_row_major_fill(self, n, a, b, rational):
        # exact_pmf's (support, n+1) table is laid out along m up to support 256
        # (n = 1275 above) and along i past it (n = 1285); each cell takes the
        # same operations, in the same order
        w = IntWindow(a, b)
        assert exact_pmf(n, w, rational=rational).probs == row_major_pmf(n, w, rational)

    def test_domain(self):
        with pytest.raises(DomainError):
            exact_pmf(0, IntWindow(1, 1))
        with pytest.raises(DomainError):
            IntWindow(0, 3)
        with pytest.raises(DomainError):
            IntWindow(5, 3)


class TestDirectRecursion:
    """exact_pmf against the direct O(n^2) recursion, every window up to n = 30.

    n runs over all of 1..30, so n = ka - 1, ka and ka + 1, where a block of
    a sizes m ends, are covered for every a <= 15.
    """

    @pytest.mark.parametrize("a", range(1, 32))
    def test_every_window_to_n30(self, a):
        for b in range(a, 32):
            w = IntWindow(a, b)
            rows = direct_rows(30, w)
            for n in range(max(b - 1, 1), 31):
                check_against_direct(n, w, rows[n])

    @pytest.mark.parametrize("a", [7, 13])
    def test_block_edges_beyond_n30(self, a):
        for w in (IntWindow(a, 2 * a), IntWindow(a, 4 * a + 1)):
            rows = direct_rows(4 * a + 1, w)
            for k in (3, 4):
                for n in (k * a - 1, k * a, k * a + 1):
                    check_against_direct(n, w, rows[n])

    @pytest.mark.parametrize("a", [1, 2, 7])
    def test_live_columns_beyond_n30(self, a):
        # at a <= 2 a column opens every row or every other row, b = 50 lies
        # past n, and n = ka, ka + 1, ka + 2 end on blocks of a, one and two rows
        ns = [n for n in range(31, 45) if n % a <= 2]
        for w in (IntWindow(a, a + 3), IntWindow(a, 50)):
            rows = direct_rows(max(ns), w)
            for n in ns:
                check_against_direct(n, w, rows[n])


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

    @pytest.mark.parametrize("n, r, match", [(0, 2, "n >= 1"), (7, -1, "r >= 0")])
    def test_domain(self, n, r, match):
        with pytest.raises(DomainError, match=match):
            exact_falling_moment(n, IntWindow(3, 5), r)

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

    @pytest.mark.parametrize("n,a,b,r", [(20000, 10, 20000, 2), (100000, 1, 100000, 2),
                                         (3000, 1, 3000, 10), (10000, 1, 10000, 3)])
    def test_oversized_call_is_refused_at_once(self, n, a, b, r):
        # the first two ran past 30 s before the work was estimated up front;
        # the last two estimate 3.1e9 and 7.6e9 and took 3.6 s and 5.3 s when admitted
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match=f"n = {n}, window \\[{a}, {b}\\] and r = {r}"):
            exact_falling_moment(n, IntWindow(a, b), r)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n,a,b,r", [(800, 1, 400, 10), (1500, 2, 750, 4),
                                         (1000, 1, 500, 7), (1000, 2, 1000, 4)])
    def test_once_oversized_call_runs_at_once(self, n, a, b, r):
        # the convolution took 4 to 7 s on these; the recurrence takes milliseconds
        t0 = time.perf_counter()
        got = exact_falling_moment(n, IntWindow(a, b), r)
        assert time.perf_counter() - t0 < 1.0
        assert got > 0

    @pytest.mark.parametrize("n", [37, 120, 300])
    def test_recurrence_matches_convolution(self, n):
        windows = [(1, n + 5), (1, n // 3), (2, n // 2), (n // 10, n), (5, 40),
                   (1, 1), (3, 3), (7, 7), (n // 4, n // 4)]
        for a, b in windows:
            w = IntWindow(a, b)
            for r in range(1, 9):
                assert exact_falling_moment(n, w, r) == convolution_moment(n, w, r), (n, a, b, r)

    def test_sparse_first_pass_is_allowed(self):
        # only the pair (1000, 1000) fits in n = 2000: a wide window at the
        # edge of n stays cheap, as f_2 is the single entry 1/10**6
        w = IntWindow(1000, 2000)
        got = exact_falling_moment(2000, w, 2)
        assert got == falling_moment(exact_pmf(2000, w, rational=True), 2)
        assert got == Fraction(1, 10**6)
        # the cost model charges pass 2 its one entry, not all of s <= n
        assert exact_falling_moment(20000, IntWindow(10000, 20000), 2) == Fraction(1, 10**8)

    @pytest.mark.parametrize("n,a,b,r", [(6000, 3000, 6000, 3), (6000, 3001, 6000, 2),
                                         (10, 1, 1, 20000), (10, 11, 11, 1)])
    def test_tuples_past_n_give_zero_at_once(self, n, a, b, r):
        # r*a > n: no r-tuple of window lengths fits, whatever the cost of d
        t0 = time.perf_counter()
        assert exact_falling_moment(n, IntWindow(a, b), r) == 0
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_window_against_cauchy_sum(self, n):
        # b runs past n, and every r with r*a > n must give exactly 0
        for a in range(1, n + 2):
            for b in range(a, n + 3):
                w = IntWindow(a, b)
                for r in range(5):
                    got = exact_falling_moment(n, w, r)
                    assert got == cauchy_sum(n, w, r), (n, a, b, r)
                    if r * a > n:
                        assert got == 0, (n, a, b, r)

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

    @pytest.mark.parametrize("gamma,delta", [(math.nan, 1), (0.25, math.nan), (math.inf, 1),
                                             (0.25, math.inf), (-1, Fraction(1, 2)),
                                             (0, 1), (0.5, 0.5), (0.5, 0.25), (0.25, 1.5)])
    def test_refuses_what_interval_refuses(self, gamma, delta):
        with pytest.raises(DomainError):
            normalized_window(10, gamma, delta)


class TestNonIntegerArguments:
    # a float size or order was taken as a bound (IntWindow(1.5, 3) gave the
    # law of [2, 3] by brute force) or failed with TypeError deep inside
    @pytest.mark.parametrize("a, b", [(1.5, 3), (2, 3.5), (2.0, 3), (Fraction(2), 3)])
    def test_int_window(self, a, b):
        with pytest.raises(DomainError, match="must be an integer"):
            IntWindow(a, b)

    def test_normalized_window(self):
        with pytest.raises(DomainError, match="n must be an integer, got 10.5"):
            normalized_window(10.5, 1 / 4, 1 / 2)

    def test_exact_falling_moment(self):
        with pytest.raises(DomainError, match="r must be an integer, got 2.5"):
            exact_falling_moment(10, IntWindow(2, 5), 2.5)
        with pytest.raises(DomainError, match="n must be an integer, got 10.5"):
            exact_falling_moment(10.5, IntWindow(2, 5), 2)

    def test_exact_and_brute_force_pmf(self):
        with pytest.raises(DomainError, match="n must be an integer, got 5.5"):
            exact_pmf(5.5, IntWindow(2, 3))
        with pytest.raises(DomainError, match="n must be an integer, got 5.5"):
            brute_force_pmf(5.5, IntWindow(2, 3))

    @pytest.mark.parametrize("entries", [((3, 1.5),), ((2.5, 1),), ((3.0, 1),)])
    def test_cycle_spec(self, entries):
        # ((3, 1.5),) gave joint_falling_moment 0.19245 and ((2.5, 1),) gave 2/5
        with pytest.raises(DomainError, match="must be an integer"):
            CycleSpec(entries)

    def test_joint_falling_moment(self):
        with pytest.raises(DomainError, match="n must be an integer, got 10.5"):
            joint_falling_moment(10.5, CycleSpec(((3, 1),)))

    def test_numpy_integers_are_accepted(self):
        w = IntWindow(np.int64(2), np.int32(3))
        assert exact_pmf(np.int64(5), w) == brute_force_pmf(5, IntWindow(2, 3))
        assert normalized_window(np.int64(10), 0.25, 0.5) == IntWindow(3, 5)
        assert exact_falling_moment(10, w, np.int64(2)) == exact_falling_moment(10, w, 2)
        spec = CycleSpec(((np.int64(3), np.int32(2)),))
        assert joint_falling_moment(np.int64(10), spec) == Fraction(1, 9)
