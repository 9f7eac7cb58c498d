"""Exception types shared across the package, and its one integer test,
is_integer, that every state, index, count and seed must pass: a Python or
numpy integer, not a bool, which is a flag passed by mistake."""

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


def is_integer(value) -> bool:
    """The package's integer test (see the module docstring)."""
    # a plain int first: the abstract-class test costs about 1 us
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def require_integer(name, value, lo):
    """Raise OutOfRange unless value is an integer >= lo."""
    if not (is_integer(value) and value >= lo):
        raise OutOfRange(f"{name} must be an integer >= {lo}, got {value!r}")
