"""Exception types shared across the toolkit."""


class ScenarioError(Exception):
    """Base class for all domain errors raised by this package."""


class SchemaError(ScenarioError):
    """Scene or trajectory does not conform to the expected schema."""


class GridAlignmentError(ScenarioError):
    """A time argument is not aligned with the trajectory grid."""


class RangeError(ScenarioError):
    """A numeric argument is outside its admissible range."""


class DomainExceededError(ScenarioError):
    """The requested grid extends past the model family's time domain."""

    def __init__(self, message: str, t_sup: float):
        super().__init__(message)
        self.t_sup = t_sup


class TruncationError(ScenarioError):
    """Model members contradicted each other before the grid end.

    Carries the truncated result so callers that opted out of truncation
    can still inspect what was computable; None when the members
    contradict at the first grid point.
    """

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class OwnershipError(ScenarioError):
    """Two models write the same dimension without a shared declaration."""


class OutOfSpaceError(ScenarioError):
    """A parameter vector lies outside the parameter space."""

    def __init__(self, message: str, axis: str):
        super().__init__(message)
        self.axis = axis


class ComplexityError(ScenarioError):
    """A computation would exceed the configured size guard."""


class HorizonError(ScenarioError):
    """An expansion or stream step goes past the instance horizon."""


class LengthError(ScenarioError):
    """A trajectory has the wrong number of samples for this operation."""


class ScheduleError(ScenarioError):
    """A maneuver schedule does not fit into the requested grid."""


class UnsatisfiableError(ScenarioError):
    """The abstract scenario admits no concrete scenario."""


class RejectionBudgetError(ScenarioError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message: str, acceptance_rate: float):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate
