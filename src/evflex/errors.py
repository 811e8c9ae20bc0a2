"""Exception and warning types shared across the package.

Each input rule raises its own class, whoever calls it: a wrong shape, an
empty array or two objects on different (T, m) DimensionMismatch (only
core's _floats and _check_same_grid raise it), a non-finite, out-of-range
or non-numeric number (or a ragged array) DomainError, a float or boolean
count NotAnInteger, an energy outside its domain, NaN and infinity
included, EnergyOutOfRange and unsorted input NotMonotone. Every class is
a ValueError (NotAnInteger is also a TypeError) and declares the CLI's
exit code and stderr label for it.
"""


class EVFlexError(ValueError):
    """Base class for all evflex errors."""
    exit_code = 1
    label = "error"


class EnergyOutOfRange(EVFlexError):
    """Requested energy is negative or exceeds what the horizon can deliver."""


class DimensionMismatch(EVFlexError):
    """An array of the wrong shape or an empty one, or two objects on different (T, m)."""
    exit_code = 2


class NegativeEntry(EVFlexError):
    """A profile entry is negative beyond tolerance."""
    exit_code = 2


class NotMonotone(EVFlexError):
    """An input vector was required to be sorted non-increasing but is not."""


class NegativeBudget(EVFlexError):
    """A transport budget must be non-negative."""


class DomainError(EVFlexError):
    """Argument outside the mathematical domain of the operation."""
    exit_code = 2


class NotAnInteger(DomainError, TypeError):
    """A count was given as a float, a boolean or another non-integer."""


class BudgetInfeasible(EVFlexError):
    """The requested ball radius is smaller than the unavoidable projection cost."""
    label = "infeasible"

    def __init__(self, epsilon: float, projection_cost: float):
        self.epsilon = epsilon
        self.projection_cost = projection_cost
        super().__init__(
            f"epsilon={epsilon!r} is below the projection cost {projection_cost!r}"
        )


class InsufficientData(EVFlexError):
    """Not enough usable points to fit the concentration constants."""
    label = "infeasible"


class NumericalFailure(EVFlexError):
    """A computation broke its own guarantee: a worst case outside the ball
    after budget accounting, or a transport solve that did not converge."""


class ParseError(EVFlexError):
    """A file named on the command line cannot be read or written, or is malformed."""
    exit_code = 2


class ValidationError(EVFlexError):
    """Scenario content breaks a model invariant."""
    exit_code = 3


class RangeWarning(UserWarning):
    """Emitted when a ball radius leaves the validity range of the tail bound."""
