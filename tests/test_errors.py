"""The shared argument gates: every entry point that takes a bounded integer
or a sigma refuses a bad one with the same DomainError text."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cyclewindow.errors import DomainError, require_int, require_sigma
from cyclewindow.exact_finite import (
    CycleSpec, IntWindow, exact_falling_moment, exact_pmf, joint_falling_moment,
    normalized_window,
)
from cyclewindow.limit_integrals import Interval, Q_recurrence, ewens_lambda, small_simplex_ratio
from cyclewindow.quasi_poisson import Pmf, binomial_matrices, falling_moment
from cyclewindow.sampler import estimate_pmf, sample_cycle_lengths

IV = Interval(0.25, 0.5)

# each refusal of an integer below its floor, with the text it has always had
FLOOR_REFUSALS = {
    "normalized_window n": (lambda: normalized_window(0, 0.25, 0.5), "need n >= 1, got 0"),
    "joint_falling_moment n": (lambda: joint_falling_moment(0, CycleSpec(((1, 1),))),
                               "need n >= 1, got 0"),
    "exact_pmf n": (lambda: exact_pmf(-3, IntWindow(1, 2)), "need n >= 1, got -3"),
    "exact_falling_moment n": (lambda: exact_falling_moment(0, IntWindow(1, 2), 1),
                               "need n >= 1, got 0"),
    "exact_falling_moment r": (lambda: exact_falling_moment(5, IntWindow(1, 2), -1),
                               "need r >= 0, got -1"),
    "Q_recurrence k": (lambda: Q_recurrence(-1, 0.25), "need k >= 0, got -1"),
    "small_simplex_ratio k": (lambda: small_simplex_ratio(0, 0.25), "need k >= 1, got 0"),
    "falling_moment k": (lambda: falling_moment(Pmf((1.0,)), -2), "need k >= 0, got -2"),
    "binomial_matrices n": (lambda: binomial_matrices(-1), "need n >= 0, got -1"),
    "estimate_pmf n": (lambda: estimate_pmf(0, IV, 1.0, 10, 0), "need n >= 1, got 0"),
    "estimate_pmf samples": (lambda: estimate_pmf(10, IV, 1.0, 0, 0),
                             "need samples >= 1, got 0"),
    "estimate_pmf seed": (lambda: estimate_pmf(10, IV, 1.0, 10, -1), "need seed >= 0, got -1"),
}


@pytest.mark.parametrize("call, message", FLOOR_REFUSALS.values(), ids=FLOOR_REFUSALS)
def test_floor_refusal_message(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


SIGMA_ENTRIES = {
    "estimate_pmf": lambda sigma: estimate_pmf(10, IV, sigma, 10, 0),
    "sample_cycle_lengths": lambda sigma: sample_cycle_lengths(10, sigma, np.random.default_rng(0)),
    "ewens_lambda": lambda sigma: ewens_lambda(IV, sigma),
}


@pytest.mark.parametrize("sigma", [0.0, -1.0, -0.0, math.inf, math.nan, Fraction(10**400), 10**400,
                                   Fraction(1, 10**400)],
                         ids=["zero", "negative", "negative-zero", "inf", "nan",
                              "fraction-past-float64", "int-past-float64", "fraction-below-float64"])
@pytest.mark.parametrize("entry", SIGMA_ENTRIES.values(), ids=SIGMA_ENTRIES)
def test_sigma_refusal_message(entry, sigma):
    # a sigma whose float overflows raised a bare OverflowError from all three; one whose
    # float is 0 ran estimate_pmf at sigma = 0 and sample_cycle_lengths into ZeroDivisionError
    with pytest.raises(DomainError) as exc:
        entry(sigma)
    assert str(exc.value) == f"need finite sigma > 0, got {sigma}"


def test_require_int_checks_the_type_before_the_floor():
    with pytest.raises(DomainError, match=r"^n must be an integer, got 0\.5$"):
        require_int(1, n=0.5)
    require_int(n=-5)  # no floor
    require_int(0, n=np.int64(0), r=True)


@pytest.mark.parametrize("sigma", [1, 2.5, Fraction(1, 3), np.float64(7.0), 10**300])
def test_require_sigma_returns_the_float(sigma):
    s = require_sigma(sigma)
    assert type(s) is float and s == float(sigma)
