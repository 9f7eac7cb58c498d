"""Exception types shared across the package, and the one check that a
count, index or seed is an integer in range."""

import numbers


class PureBirthError(Exception):
    """Base class for all errors raised by this package."""


class MissingParameter(PureBirthError):
    """A parameter required by the chosen rate family was not supplied."""


class OutOfRange(PureBirthError, ValueError):
    """A parameter value is outside its admissible range."""


class CapRequired(PureBirthError):
    """A power-law model has an unbounded state space and needs a state cap."""


class StateOutOfRange(PureBirthError):
    """A state is not an integer in [start, absorbing/cap]."""


class WrongFamily(PureBirthError):
    """The operation is defined only for a different rate family."""


class ToleranceNotMet(PureBirthError):
    """A numerical result failed its own checks: a forward solution's
    probability mass is off by more than the mass-defect limit or a
    probability is negative beyond roundoff, or the partial-fraction law
    of the absorption time is too ill-conditioned to evaluate (its rates
    repeat, or lie so close that its coefficients cancel)."""


def require_integer(name, value, lo):
    """Raise OutOfRange unless value is a numbers.Integral >= lo; a bool
    is a flag passed by mistake, not a count."""
    if not (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= lo):
        raise OutOfRange(f"{name} must be an integer >= {lo}, got {value!r}")
