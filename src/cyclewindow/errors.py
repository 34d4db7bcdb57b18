"""Exception types shared across the package."""


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
