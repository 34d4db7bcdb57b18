"""Monte Carlo sampler: exactness of the cycle-length law, reproducibility."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cyclewindow.errors import DomainError
from cyclewindow.exact_finite import IntWindow, exact_pmf
from cyclewindow.limit_integrals import Interval
from cyclewindow.sampler import (
    CycleLengths, EstimateResult, estimate_pmf, sample_cycle_lengths,
)


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


def ewens_window_law(n, a, b, theta):
    """Law of the count of cycles with length in [a, b] under Ewens(theta).

    Weighted cycle-type enumeration: a type with c_k cycles of length k and
    K cycles in all has probability theta^K n! / ((theta)_n prod k^c_k c_k!).
    """
    def partitions(m, top):
        if m == 0:
            yield []
            return
        for k in range(min(m, top), 0, -1):
            for rest in partitions(m - k, k):
                yield [k] + rest

    rising = math.prod(theta + i for i in range(n))
    law = {}
    for parts in partitions(n, n):
        weight = theta ** len(parts) * math.factorial(n) / rising
        for k in set(parts):
            weight /= k ** parts.count(k) * math.factorial(parts.count(k))
        hits = sum(a <= k <= b for k in parts)
        law[hits] = law.get(hits, 0.0) + weight
    return [law.get(i, 0.0) for i in range(max(law) + 1)]


class TestSingleDraws:
    def test_n1_is_deterministic(self):
        for sigma in (0.5, 1.0, 3.0):
            draw = sample_cycle_lengths(1, sigma, gen(0))
            assert draw.lengths == (1,) and draw.n == 1

    def test_lengths_partition_n(self):
        g = gen(42)
        for n in (2, 5, 17, 100):
            for sigma in (0.3, 1.0, 2.5):
                for _ in range(20):
                    draw = sample_cycle_lengths(n, sigma, g)
                    assert sum(draw.lengths) == n
                    assert all(1 <= l <= n for l in draw.lengths)

    def test_uniform_two_cycle_probability(self):
        # For n = 2, sigma = 1: P(single 2-cycle) = 1/2.
        g = gen(7)
        m = 40_000
        hits = sum(sample_cycle_lengths(2, 1.0, g).lengths == (2,)
                   for _ in range(m))
        se = math.sqrt(0.25 / m)
        assert abs(hits / m - 0.5) < 4 * se

    def test_weighted_three_fixed_points(self):
        # For n = 3, sigma = 2: P(all fixed points) = sigma^3/((sigma)(
        # sigma+1)(sigma+2)) = 8/24 = 1/3.
        g = gen(8)
        m = 40_000
        hits = sum(sample_cycle_lengths(3, 2.0, g).lengths.count(1) == 3
                   for _ in range(m))
        p = 1 / 3
        se = math.sqrt(p * (1 - p) / m)
        assert abs(hits / m - p) < 4 * se

    def test_first_length_uniform_chi_square(self):
        # Uniform case: the first stick has the exact discrete uniform law
        # on {1..n}.  Chi-square with a 1e-4 quantile threshold.
        n, m = 50, 100_000
        threshold = 94.577  # chi2.isf(1e-4, df=49)
        for seed in (11, 12, 13):
            g = gen(seed)
            counts = np.zeros(n, dtype=np.int64)
            for _ in range(m):
                counts[sample_cycle_lengths(n, 1.0, g).lengths[0] - 1] += 1
            expected = m / n
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert stat < threshold, (seed, stat)

    def test_weighted_single_draw_matches_exact_law(self):
        # sigma = 2, n = 4: the fixed-point count has an exactly
        # computable law by weighted enumeration of cycle types, with
        # total weight 120: (24, 32, 48, 0, 16)/120 on {0..4}.
        m = 60_000
        g = gen(77)
        counts = np.zeros(5, dtype=np.int64)
        for _ in range(m):
            draw = sample_cycle_lengths(4, 2.0, g)
            counts[draw.lengths.count(1)] += 1
        want = (Fraction(24, 120), Fraction(32, 120), Fraction(48, 120),
                Fraction(0), Fraction(16, 120))
        for k in range(5):
            p = float(want[k])
            se = math.sqrt(p * (1 - p) / m)
            assert abs(counts[k] / m - p) <= 4 * se + 1e-9, k

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_cycle_lengths(0, 1.0, gen(0))
        with pytest.raises(DomainError):
            sample_cycle_lengths(5, 0.0, gen(0))
        with pytest.raises(DomainError):
            sample_cycle_lengths(5, -2.0, gen(0))


class TestEstimatePmf:
    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_matches_weighted_cycle_type_enumeration(self, sigma):
        # n = 6, window [1/3, 1/2] -> cycle lengths 2..3
        res = estimate_pmf(6, Interval(Fraction(1, 3), Fraction(1, 2)), sigma,
                           60_000, seed=17)
        want = ewens_window_law(6, 2, 3, sigma)
        assert math.fsum(want) == pytest.approx(1.0, abs=1e-12)
        assert len(res.pmf_hat) == len(want)
        for k, (p, w) in enumerate(zip(res.pmf_hat, want)):
            se = math.sqrt(w * (1 - w) / res.samples)
            assert abs(p - w) <= 4 * se + 1e-9, (sigma, k)

    def test_huge_sigma_gives_only_fixed_points(self):
        # P(a non-fixed point) is about n^2/sigma; the hazard stays finite
        res = estimate_pmf(50, Interval(0.01, 0.03), 1e20, 2_000, seed=6)
        assert res.counts[50] == 2_000

    def test_matches_exact_weighted_law(self):
        # n = 4, sigma = 2, window [1, 1]: fixed-point count law is
        # (24, 32, 48, 0, 16)/120 by weighted cycle-type enumeration.
        res = estimate_pmf(4, Interval(0.2, 0.3), 2.0, 50_000, seed=99)
        want = (Fraction(24, 120), Fraction(32, 120), Fraction(48, 120),
                Fraction(0), Fraction(16, 120))
        assert len(res.pmf_hat) == 5
        for k, p in enumerate(res.pmf_hat):
            w = float(want[k])
            se = math.sqrt(w * (1 - w) / res.samples)
            assert abs(p - w) <= 4 * se + 1e-9, k

    def test_mean_matches_harmonic_sum(self):
        # E[#cycles with length in [a, b]] = sum_{k=a}^{b} 1/k exactly.
        res = estimate_pmf(100, Interval(0.2, 0.5), 1.0, 100_000, seed=11)
        want = math.fsum(1 / k for k in range(20, 51))
        assert abs(res.mean - want) < 4 * res.mean_stderr

    def test_agrees_with_exact_dp(self):
        n = 60
        res = estimate_pmf(n, Interval(0.25, 0.5), 1.0, 80_000, seed=3)
        exact = exact_pmf(n, IntWindow(15, 30), rational=True)
        for k, p in enumerate(res.pmf_hat):
            w = float(exact[k]) if k < len(exact) else 0.0
            se = math.sqrt(w * (1 - w) / res.samples)
            assert abs(p - w) <= 4 * se + 1e-7, k

    def test_ewens_mean_telescopes(self):
        # For general sigma the mean over [a, b] is
        # sum_k sigma/(k) * prod-free telescoped ratio (n-k+1)/(n+1) at
        # sigma = 2 (computed exactly for the check).
        n, a, b = 60, 15, 20
        want = float(sum(Fraction(2, k) * Fraction(n - k + 1, n + 1)
                         for k in range(a, b + 1)))
        res = estimate_pmf(n, Interval(0.25, 1 / 3), 2.0, 60_000, seed=5)
        assert abs(res.mean - want) < 4 * res.mean_stderr

    def test_bit_identical_reruns(self):
        a = estimate_pmf(200, Interval(0.25, 0.5), 1.0, 5_000, seed=4242)
        b = estimate_pmf(200, Interval(0.25, 0.5), 1.0, 5_000, seed=4242)
        assert a.counts == b.counts
        assert a.pmf_hat == b.pmf_hat

    def test_worker_split_is_deterministic(self):
        a = estimate_pmf(100, Interval(0.2, 0.6), 1.0, 4_000, seed=9,
                         workers=2)
        b = estimate_pmf(100, Interval(0.2, 0.6), 1.0, 4_000, seed=9,
                         workers=2)
        assert a.counts == b.counts

    def test_point_mass_window(self):
        res = estimate_pmf(1, Interval(0.5, 1.0), 1.0, 100, seed=1)
        assert res.counts == (0, 100)
        assert res.pmf_hat == (0.0, 1.0)

    def test_empty_window(self):
        res = estimate_pmf(10, Interval(0.85, 0.89), 1.0, 500, seed=2)
        assert res.counts[0] == 500
        assert res.pmf_hat[0] == 1.0

    def test_domain(self):
        iv = Interval(0.25, 0.5)
        with pytest.raises(DomainError):
            estimate_pmf(0, iv, 1.0, 100, seed=0)
        with pytest.raises(DomainError):
            estimate_pmf(10, iv, 0.0, 100, seed=0)
        with pytest.raises(DomainError):
            estimate_pmf(10, iv, 1.0, 0, seed=0)
        with pytest.raises(DomainError):
            estimate_pmf(10, iv, 1.0, 100, seed=0, workers=0)


    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_refused(self, sigma):
        with pytest.raises(DomainError):
            estimate_pmf(10, Interval(0.25, 0.5), sigma, 100, seed=0)
        with pytest.raises(DomainError):
            sample_cycle_lengths(10, sigma, gen(0))


class TestResultTypes:
    def test_cycle_lengths_must_partition(self):
        with pytest.raises(DomainError):
            CycleLengths((2, 2), 5)

    def test_estimate_result_counts_must_sum(self):
        with pytest.raises(DomainError):
            EstimateResult(counts=(1, 2), samples=4, pmf_hat=(0.25, 0.5),
                           stderr=(0.1, 0.1), seed=0)

    def test_estimate_result_pmf_must_normalize(self):
        with pytest.raises(DomainError):
            EstimateResult(counts=(1, 3), samples=4, pmf_hat=(0.3, 0.5),
                           stderr=(0.1, 0.1), seed=0)
