"""Exception types shared across the package (a missing model value is
MissingParameter, a cap-less power law's included; a value out of range
OutOfRange; a bad state StateOutOfRange; a numerical result that misses
its checks ToleranceNotMet), and its input rules:
is_integer and require_integer for every state, index, count and seed (a
Python or numpy integer), require_finite for every real parameter (a finite
Python or numpy real number; an int too large for a float is not), and
require_times for times (finite real numbers >= 0, taken as one float
array; a str, bool, None, object or ragged value is refused).  A bool is
never a number: it is a flag passed by mistake.
Each rule raises OutOfRange, never a TypeError, on a value it refuses, and
names the value by describe."""

import math
import numbers

import numpy as np


class PureBirthError(Exception):
    """Base class for all errors raised by this package."""


class MissingParameter(PureBirthError):
    """A parameter required by the chosen rate family was not supplied."""


class OutOfRange(PureBirthError, ValueError):
    """A parameter value is outside its admissible range."""


class StateOutOfRange(PureBirthError):
    """A state is not an integer in [start, absorbing/cap]."""


class ToleranceNotMet(PureBirthError):
    """A numerical result failed its own checks, or could not meet them in
    bounded time: a forward solution's probability mass is off by more
    than the mass-defect limit or a probability is negative beyond
    roundoff; a forward call that inversion cannot solve within abs_tol
    would take uniformization more work than its budget; or the
    partial-fraction law of the absorption time is too ill-conditioned to
    evaluate (its rates repeat, or lie so close that its coefficients
    cancel)."""


def is_integer(value) -> bool:
    """The package's integer test (see the module docstring)."""
    # a plain int first: the abstract-class test costs about 1 us
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def describe(value) -> str:
    """repr(value) for a refusal's message, but an integer of more than 20
    digits by its digit count: Python prints none of more than 4300."""
    # int first: abs of numpy's most negative int64 overflows
    magnitude = abs(int(value)) if is_integer(value) else 0
    if magnitude < 10 ** 20:
        return repr(value)
    # log10 may round across a power of ten; the two tests correct that
    digits = int(math.log10(magnitude))
    digits += (magnitude >= 10 ** digits) + (magnitude >= 10 ** (digits + 1))
    return f"<{'negative ' if value < 0 else ''}integer of {digits} digits>"


def require_integer(name, value, lo):
    """Raise OutOfRange unless value is an integer >= lo."""
    if not (is_integer(value) and value >= lo):
        raise OutOfRange(
            f"{name} must be an integer >= {lo}, got {describe(value)}")


def require_finite(name, value):
    """value, once it is a finite number; OutOfRange otherwise."""
    # a plain float first, as in is_integer
    try:
        finite = ((type(value) is float or isinstance(value, numbers.Real)
                   and not isinstance(value, bool)) and math.isfinite(value))
    except OverflowError:  # an int too large for a float, not described
        raise OutOfRange(f"{name} must be a finite number, got one too "
                         "large for a float") from None
    if not finite:
        raise OutOfRange(f"{name} must be a finite number, got {value!r}")
    return value


# what require_times asks of its value, by the ndim it requires
_SHAPES = {None: "finite and >= 0", 0: "a finite number >= 0",
           1: "a 1-d sequence of finite numbers >= 0"}


def require_times(name, value, ndim=None):
    """value as a float array (a float64 array itself, not a copy) once it
    holds times, in ndim dimensions when ndim is given; else OutOfRange."""
    try:
        t = np.asarray(value)
    except ValueError:  # a ragged sequence, refused below as an object
        t = np.asarray(None)
    if t.dtype.kind in "iuf" and ndim in (None, t.ndim):
        t = t.astype(float, copy=False)
        bad = ~(np.isfinite(t) & (t >= 0))
        if not bad.any():
            return t
        value = float(t[bad].flat[0])
    raise OutOfRange(f"{name} must be {_SHAPES[ndim]}, got {value!r}")
