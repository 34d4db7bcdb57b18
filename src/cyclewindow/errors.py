"""Exception types shared across the package, and the integer-argument check."""

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


def require_int(**values):
    """Raise DomainError naming the first of values that is not an integer."""
    for name, x in values.items():
        if not isinstance(x, Integral):
            raise DomainError(f"{name} must be an integer, got {x!r}")
