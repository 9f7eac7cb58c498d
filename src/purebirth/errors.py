"""Exception types shared across the package."""


class PureBirthError(Exception):
    """Base class for all errors raised by this package."""


class MissingParameter(PureBirthError):
    """A parameter required by the chosen rate family was not supplied."""


class OutOfRange(PureBirthError, ValueError):
    """A parameter value is outside its admissible range."""


class CapRequired(PureBirthError):
    """A power-law model has an unbounded state space and needs a state cap."""


class StateOutOfRange(PureBirthError):
    """A state index is outside [start, absorbing/cap]."""


class WrongFamily(PureBirthError):
    """The operation is defined only for a different rate family."""


class RepeatedRates(PureBirthError):
    """Transient rates are not pairwise distinct; the hypoexponential
    closed form does not apply. Use the forward solver instead."""


class ToleranceNotMet(PureBirthError):
    """A numerical result failed its own checks: a forward solution's
    probability mass is off by more than the mass-defect limit or a
    probability is negative beyond roundoff, or the partial-fraction law
    of the absorption time is too ill-conditioned to evaluate."""
