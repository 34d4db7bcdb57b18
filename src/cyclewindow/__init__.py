"""Distribution of the number of cycles of a random permutation of [n] having
length in a normalized window [gamma*n, delta*n]: exact finite-n computation,
the n -> infinity limit, and seeded Monte Carlo, cross-validated against each
other."""

__version__ = "0.1.0"

from .errors import DomainError, InvalidMomentsError, ToleranceNotMet
from .quadrature import integrate, integrate_simpson
from .special_fn import RealInterval, buchstab, buchstab_max_residual, dilog
from .quasi_poisson import (
    MomentVector, Pmf, binomial_matrices, falling_moment,
    pmf_from_falling_moments, qp_pmf,
)
from .exact_finite import (
    CycleSpec, IntWindow, brute_force_pmf, exact_falling_moment, exact_pmf,
    joint_falling_moment, normalized_window,
)
from .limit_integrals import (
    Interval, Q_recurrence, argmax_p, ewens_lambda, gamma_star, p1_derivative,
    p_limit, q2_closed_form, q_limit, sliced_cube_integral, small_simplex_ratio,
)
from .sampler import CycleLengths, EstimateResult, estimate_pmf, sample_cycle_lengths

__all__ = [
    "__version__",
    "DomainError", "InvalidMomentsError", "ToleranceNotMet",
    "integrate", "integrate_simpson",
    "RealInterval", "buchstab", "buchstab_max_residual", "dilog",
    "Pmf", "MomentVector", "qp_pmf", "falling_moment",
    "pmf_from_falling_moments", "binomial_matrices",
    "CycleSpec", "IntWindow", "joint_falling_moment", "exact_pmf",
    "brute_force_pmf", "exact_falling_moment", "normalized_window",
    "Interval", "sliced_cube_integral", "q_limit", "q2_closed_form",
    "Q_recurrence", "p_limit", "p1_derivative", "gamma_star", "argmax_p",
    "small_simplex_ratio", "ewens_lambda",
    "CycleLengths", "EstimateResult", "sample_cycle_lengths", "estimate_pmf",
]
