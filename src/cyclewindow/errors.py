"""Exception types shared across the package, and the argument checks."""

import math
from numbers import Integral


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InvalidMomentsError(ValueError):
    """A falling-moment vector is not the moment sequence of any pmf on {0..r}."""


class ToleranceNotMet(RuntimeError):
    """Adaptive refinement could not reach its tolerance.

    Raised when the summed error estimate exceeds the tolerance after the
    depth budget is spent, when a panel estimate is not finite, and when one
    integral needs more live panels than the refinement allows.

    Carries the best available value and the achieved error estimate (None
    when refinement stopped early) so a caller can decide whether the
    partial answer is still usable.
    """

    def __init__(self, message, value=None, achieved=None, requested=None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved
        self.requested = requested


def require_int(floor=None, /, **values):
    """Raise DomainError naming the first of values that is not an integer, or is below floor."""
    for name, x in values.items():
        if not isinstance(x, Integral):
            raise DomainError(f"{name} must be an integer, got {x!r}")
        if floor is not None and x < floor:
            raise DomainError(f"need {name} >= {floor}, got {x}")


def require_sigma(sigma):
    """float(sigma), or DomainError unless it is positive and finite; an overflow is not finite."""
    try:
        s = float(sigma)
    except OverflowError:
        s = math.inf
    if not 0 < s < math.inf:
        raise DomainError(f"need finite sigma > 0, got {sigma}")
    return s
