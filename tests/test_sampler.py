"""Monte Carlo sampler: exactness of the cycle-length law, reproducibility."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from cyclewindow import sampler
from cyclewindow.errors import DomainError
from cyclewindow.exact_finite import IntWindow, exact_pmf, normalized_window
from cyclewindow.limit_integrals import Interval
from cyclewindow.sampler import (
    CycleLengths, EstimateResult, _hazard_inverse, estimate_pmf, sample_cycle_lengths,
)


def gen(seed):
    return np.random.Generator(np.random.Philox(seed))


def ewens_cycle_type_law(n, theta):
    """{cycle type, longest first: probability} under Ewens(theta) on [n].

    A type with c_k cycles of length k and K cycles in all has probability
    theta^K n! / ((theta)_n prod k^c_k c_k!).
    """
    def partitions(m, top):
        if m == 0:
            yield ()
            return
        for k in range(min(m, top), 0, -1):
            for rest in partitions(m - k, k):
                yield (k,) + rest

    rising = math.prod(theta + i for i in range(n))
    law = {}
    for parts in partitions(n, n):
        weight = theta ** len(parts) * math.factorial(n) / rising
        for k in set(parts):
            weight /= k ** parts.count(k) * math.factorial(parts.count(k))
        law[parts] = weight
    return law


def ewens_window_law(n, a, b, theta):
    """Law of the count of cycles with length in [a, b] under Ewens(theta)."""
    law = {}
    for parts, weight in ewens_cycle_type_law(n, theta).items():
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

    @pytest.mark.parametrize("n, sigma", [(3.0, 1.0), (2.5, 1.0), (2.5, 2.0)])
    def test_non_integer_n_refused(self, n, sigma):
        # 3.0 returned CycleLengths with n=3.0; 2.5 raised a bare ValueError or TypeError
        with pytest.raises(DomainError, match=f"n must be an integer, got {n}"):
            sample_cycle_lengths(n, sigma, gen(0))


class TestStickBreaking:
    """The one construction of sample_cycle_lengths, at every sigma."""

    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 2.5, 20.0])
    def test_cycle_types_chi_square(self, n, sigma):
        # Full cycle types against the exact Ewens law; types expected fewer
        # than 5 times are pooled into one cell.
        m = 20_000
        law = ewens_cycle_type_law(n, sigma)
        seen = dict.fromkeys(law, 0)
        g = gen(1000 * n + round(100 * sigma))
        for _ in range(m):
            seen[tuple(sorted(sample_cycle_lengths(n, sigma, g).lengths, reverse=True))] += 1
        cells, pooled = [], [0.0, 0]
        for t, p in law.items():
            if m * p < 5:
                pooled[0] += m * p
                pooled[1] += seen[t]
            else:
                cells.append((m * p, seen[t]))
        if pooled[0] > 0:
            cells.append(tuple(pooled))
        stat = math.fsum((got - want) ** 2 / want for want, got in cells)
        assert stat < chi2.isf(1e-4, len(cells) - 1), (stat, len(cells))

    @pytest.mark.parametrize("n, sigma", [(10**8, 0.5), (10**8, 2.0), (10**18, 1.0)])
    def test_large_n_draws_fast(self, n, sigma):
        # the Chinese-restaurant loop this replaced took one step per element
        started = time.perf_counter()
        draw = sample_cycle_lengths(n, sigma, gen(5))
        assert sum(draw.lengths) == n
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_n_past_int64_refused(self, sigma):
        # numpy's binomial takes n - 1 up to 2^63 - 1; 10^30 raised its bare ValueError
        for n in (2**63 + 1, 10**30):
            with pytest.raises(DomainError, match="need 1 <= n <= 2"):
                sample_cycle_lengths(n, sigma, gen(0))
        assert sum(sample_cycle_lengths(2**63, sigma, gen(0)).lengths) == 2**63

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_window_counts_match_the_walk_and_the_dp(self, sigma):
        # The single draws and estimate_pmf's Feller walk share no code, so
        # each checks the other; at sigma = 1 the DP is exact.
        n, iv, m = 2000, Interval(Fraction(1, 4), Fraction(1, 3)), 20_000
        w = normalized_window(n, iv.gamma, iv.delta)
        g = gen(31)
        counts = np.zeros(n // w.a + 1)
        for _ in range(m):
            counts[sum(w.a <= k <= w.b for k in sample_cycle_lengths(n, sigma, g).lengths)] += 1
        p = counts / m
        if sigma == 1.0:
            want, var = np.array([float(x) for x in exact_pmf(n, w)]), 0.0
        else:
            ref = estimate_pmf(n, iv, sigma, 200_000, seed=31)
            want, var = np.array(ref.pmf_hat), np.array(ref.stderr) ** 2
        se = np.sqrt(p * (1 - p) / m + var)
        assert len(want) == len(p)
        assert np.all(np.abs(p - want) <= 4 * se + 1e-9), (p, want, se)


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

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    @pytest.mark.parametrize("n,gamma,delta", [
        (12, Fraction(1, 20), Fraction(1, 4)),  # a = 1: the walk runs down to 1
        (10, Fraction(1, 2), Fraction(1)),      # b = n
        (7, Fraction(2, 7), Fraction(3, 7)),
        (1, Fraction(1, 2), Fraction(1)),       # n = 1
        (10, Fraction(17, 20), Fraction(89, 100)),  # empty: sentinel [n+1, n+1]
    ])
    def test_walk_down_matches_exact_law(self, n, gamma, delta, sigma):
        w = normalized_window(n, gamma, delta)
        want = ewens_window_law(n, w.a, w.b, sigma)
        res = estimate_pmf(n, Interval(gamma, delta), sigma, 60_000, seed=23)
        assert len(res.pmf_hat) == n // w.a + 1
        for k, p in enumerate(res.pmf_hat):
            q = want[k] if k < len(want) else 0.0
            se = math.sqrt(q * (1 - q) / res.samples)
            assert abs(p - q) <= 4 * se + 1e-9, (k, p, q)

    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    def test_variates_stop_below_the_window(self, sigma):
        # A draw takes one exponential per opening at i in [max(a, 2), n],
        # independent Bernoulli(p_i) with p_i = sigma/(sigma+i-1), plus the
        # one that lands below: far fewer than the sigma*ln n of a full walk.
        n, samples = 2000, 50_000
        res = estimate_pmf(n, Interval(Fraction(1, 4), Fraction(1, 3)), sigma,
                           samples, seed=41)
        p = [sigma / (sigma + i - 1) for i in range(500, n + 1)]
        mean = 1 + math.fsum(p)
        se = math.sqrt(math.fsum(q * (1 - q) for q in p) / samples)
        assert abs(res.variates / samples - mean) <= 4 * se
        assert mean < 0.5 * sigma * math.log(n)

    def test_large_n_is_refused_before_allocating(self):
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="n = 1000000000"):
            estimate_pmf(10**9, Interval(0.25, 0.5), 1.0, 100, seed=0)
        assert time.perf_counter() - t0 < 1.0

    def test_subnormal_hazard_is_refused_fast(self):
        # at sigma = 1e-310 the hazard total is subnormal and (4n - 1)/h overflows float64;
        # the one bucket the walk once fell back to took n compare passes per lookup, 1.2 s here
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="n = 400000: .*past float64"):
            estimate_pmf(4 * 10**5, Interval(0.25, 0.5), 1e-310, 1000, 0)
        assert time.perf_counter() - t0 < 0.1

    def test_hazard_and_guide_are_refused_before_building(self):
        # 8n hazard, 8n key and 8(4n+1) guide bytes, 16 KiB and the result entries:
        # n = 5,592,055 fits in 256 MiB, this does not.
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="n = 5592056 needs 2.7e[+]08 bytes"):
            estimate_pmf(5_592_056, Interval(0.25, 0.5), 1.0, 100, seed=0)
        assert time.perf_counter() - t0 < 1.0

    def test_counted_bytes_cover_the_peak(self):
        # the bytes the cap counts at n = 10^6, with 5 result entries, against what the call
        # allocates at its peak: the guide's build, where hazard, keys and guide are live together
        n, iv = 10**6, Interval(0.25, 0.5)
        estimate_pmf(100, iv, 1.0, 10, seed=0)  # first-call imports and caches
        tracemalloc.start()
        try:
            estimate_pmf(n, iv, 1.0, 10, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 48 * n <= peak <= 48 * n + 8 + 104 * 5 + 2**14

    def test_result_entries_are_refused_before_building(self):
        # a = 1 gives n + 1 result entries at 104 bytes each: 9.1e8 bytes in all at n = 6e6
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="n = 6000000 needs 9.1e[+]08 bytes"):
            estimate_pmf(6_000_000, Interval(1e-7, 1.0), 1.0, 10, 0)
        assert time.perf_counter() - t0 < 1.0

    # Values recorded from the binary-search walk the guide lookup replaced; the last three
    # from the boolean-indexed walk that np.compress and take replaced.
    @pytest.mark.parametrize("args, counts, variates", [
        ((2000, Interval(Fraction(1, 4), Fraction(1, 3)), 1.0, 50_000, 20260815),
         (37479, 10821, 1511, 189, 0), 119530),
        ((2000, Interval(Fraction(1, 4), Fraction(1, 3)), 2.0, 50_000, 20260815),
         (32575, 14379, 2831, 215, 0), 188249),
        # more draws than one _ROW_CAP chunk
        ((10**5, Interval(Fraction(1, 10), Fraction(1, 2)), 0.7, 70_000, 9),
         (20480, 27965, 10107, 8072, 3013, 349, 14, 0, 0, 0, 0), 182560),
        # delta = 1: b = n, the tally's top end, is hit when the first step lands on 1
        ((2000, Interval(Fraction(1, 2), 1), 1.0, 50_000, 20260815), (15375, 34625, 0), 84755),
        # a = 1, so stop = 2 and every walk runs to the bottom; 3001 entries
        ((3000, Interval(1e-4, Fraction(1, 2)), 1.0, 50_000, 20260815),
         (19, 145, 668, 1554, 2969, 4803, 6260, 7062, 6942, 6125, 4851, 3443, 2258, 1399, 765,
          403, 211, 76, 20, 20, 3, 4) + (0,) * 2979, 428260),
        ((2000, Interval(Fraction(1, 10), Fraction(1, 2)), 0.3, 50_000, 20260815),
         (27594, 17360, 2946, 1710, 369, 21, 0, 0, 0, 0, 0), 84644),
    ])
    def test_stream_is_pinned(self, args, counts, variates):
        res = estimate_pmf(*args)
        assert res.counts == counts
        assert res.variates == variates

    def test_guide_is_built_once_per_call(self, monkeypatch):
        builds, searches = [], []
        build, search = sampler._hazard_inverse, np.searchsorted
        monkeypatch.setattr(sampler, "_hazard_inverse", lambda h: builds.append(1) or build(h))
        monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(1) or search(*a, **k))
        estimate_pmf(3000, Interval(0.25, 0.5), 1.0, 70_000, seed=3)  # two _ROW_CAP chunks
        assert len(builds) == 1
        assert len(searches) <= 1

    def test_partition_check_survives_python_dash_o(self):
        # An inversion that always answers the last position stops descending
        # after one step, so without the check the walk would never end.
        code = ("import numpy as np\n"
                "from cyclewindow import sampler\n"
                "from cyclewindow.limit_integrals import Interval\n"
                "sampler._hazard_inverse = lambda h: lambda x: np.full(len(x), len(h) - 1)\n"
                "sampler.estimate_pmf(50, Interval(0.25, 0.5), 1.0, 100, seed=0)\n")
        src = str(Path(sampler.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True, env=env, timeout=60)
        assert "RuntimeError: Feller walk: a step did not move down" in proc.stderr

    def test_bit_identical_reruns(self):
        a = estimate_pmf(200, Interval(0.25, 0.5), 1.0, 5_000, seed=4242)
        b = estimate_pmf(200, Interval(0.25, 0.5), 1.0, 5_000, seed=4242)
        assert a.counts == b.counts
        assert a.pmf_hat == b.pmf_hat
        assert a.variates == b.variates

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
            estimate_pmf(10, iv, 1.0, 100, seed=-1)


    @pytest.mark.parametrize("n, samples, seed, name", [
        (100.5, 10, 1, "n"), (100, 10.5, 1, "samples"), (100, 10, 1.5, "seed"),
    ])
    def test_non_integer_arguments_refused(self, n, samples, seed, name):
        # these failed with TypeError from inside numpy, or not at all
        with pytest.raises(DomainError, match=f"{name} must be an integer"):
            estimate_pmf(n, Interval(0.25, 0.5), 1.0, samples, seed)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    def test_non_finite_sigma_refused(self, sigma):
        with pytest.raises(DomainError):
            estimate_pmf(10, Interval(0.25, 0.5), sigma, 100, seed=0)
        with pytest.raises(DomainError):
            sample_cycle_lengths(10, sigma, gen(0))


def hazard_of(n, sigma):
    """The cumulative hazard table estimate_pmf builds."""
    return np.concatenate(([0.0], np.cumsum(np.log1p(float(sigma) / np.arange(1, n)))))


class TestHazardInverse:
    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 1.0, 2.0, 37.0, 1e20, 1e-310])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 2000])
    def test_matches_searchsorted(self, n, sigma):
        # Random drops, every hazard value and bucket edge, and their neighbours.  A guide
        # built on the grid j*hazard[-1]/(4n-1) rather than on the keys int(hazard*inv_h)
        # starts past the answer here at (3, 1e-3), (50, 1) and (2000, 0.5).  At sigma =
        # 1e-310 the scale overflows from n = 2 on, and the table is refused.
        hazard = hazard_of(n, sigma)
        m, h = 4 * n, float(hazard[-1])
        inv_h = (m - 1) / h if h > 0 else 1.0
        assert (inv_h == math.inf) == (sigma == 1e-310 and n > 1)
        if inv_h == math.inf:
            with pytest.raises(DomainError, match=f"n = {n}: .*past float64"):
                _hazard_inverse(hazard)
            return
        rng = np.random.default_rng(n)
        base = np.concatenate((rng.uniform(-1.0, h, 5000), hazard, np.arange(m + 1) / inv_h))
        q = np.concatenate((base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf)))
        q = q[q <= h]  # a walk never drops above hazard[-1]
        assert np.array_equal(_hazard_inverse(hazard)(q), np.searchsorted(hazard, q, side="left"))

    @pytest.mark.parametrize("sigma", [1e-16, 1e-12, 1e-300])
    def test_drops_far_below_zero_read_position_zero(self, sigma):
        # inv_h is about 4n/(sigma ln n), so a drop of -44, about the least a walk sees (a
        # standard exponential stays below 45), scales past the int64 range at sigma = 1e-16;
        # the cast's RuntimeWarning would fail the test
        hazard = hazard_of(2000, sigma)
        q = np.array([-44.0, -1.0, -1e-300, 0.0, hazard[1], hazard[-1]])
        assert np.array_equal(_hazard_inverse(hazard)(q), np.searchsorted(hazard, q, side="left"))

    @pytest.mark.parametrize("sigma", [5.5e-306, 1e-305, 1e-304])
    def test_drops_past_the_float_range_read_position_zero(self, sigma):
        # just above the refused sigma inv_h nears 1.8e308, so a drop of -44 scales past
        # float64 itself; that overflow's RuntimeWarning would fail the test
        hazard = hazard_of(2000, sigma)
        q = np.array([-44.0, -1.0, -1e-300, 0.0, hazard[1], hazard[-1]])
        assert np.array_equal(_hazard_inverse(hazard)(q), np.searchsorted(hazard, q, side="left"))


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
