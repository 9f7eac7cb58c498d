"""Per-state infection rate families for the pure-birth chain.

Three families are supported:

* ``hypergeometric``: a closed population of N individuals in which contacts
  arrive as a Poisson process with rate lambda, the contacted pair is uniform
  over all N-choose-2 pairs, and an infected/susceptible contact transmits
  with probability p.  The birth rate in state k (k infected) is
  ``2 k (N-k) lambda p / (N (N-1))``.
* ``yule``: the same mixing model with the contact rate scaled with the
  population, ``lambda = N mu``.
* ``powerlaw``: rates ``c * k**exponent`` on an unbounded state space,
  truncated at an explicit ``state_cap`` for computation; a model without
  one is refused as MissingParameter, like any other missing value.

One rule, checked when a model is built, decides which rates every engine
accepts: the largest rate is finite, and so is 37 m / lambda_min, with m
the number of transient states and lambda_min the smallest rate.  37
(53 ln 2 = 36.74, rounded up) bounds the -ln U that the Monte Carlo sampler
draws, so no sampled absorption time overflows; and every rate is a normal
float, which the engines may divide by.

RateModel is the one place that takes a model's values: each value a
family uses is checked and stored as a float (N and the cap as an int), so
every rate vector is float64.

Models are immutable; every operation here is a pure function of
(model, state) and safe to call concurrently.  ``rate_vector`` gives the
rates of the states from a start state on as one numpy array.  It takes
only an integer start state in [1, absorbing] and raises StateOutOfRange
otherwise, by ``check_start``; every engine takes its states through one
of the two.  The family formulas are evaluated in one place, by numpy
(``_rates``), so the rule above checks the very numbers the engines divide
by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (MissingParameter, OutOfRange, StateOutOfRange,
                     describe, is_integer, require_finite, require_integer)

HYPERGEOMETRIC = "hypergeometric"
YULE = "yule"
POWERLAW = "powerlaw"

@dataclass(frozen=True)
class RateModel:
    """An immutable family of per-state birth rates, checked when built.

    Every model, whether built here, by :func:`build_rate_model` or by the
    family-specific constructors, passes the same checks, and stores each
    value its family uses as a float, or N and the cap as an int.  It
    raises:

    * OutOfRange: a family name other than hypergeometric, yule and
      powerlaw, a rate parameter that is not a finite positive number, p
      outside (0, 1], N or the cap not an integer >= 2 that a float can
      hold (a numeric string or an integral float is not), a non-finite
      exponent, a time_unit that is not a str, or rates that break the
      rule of the module docstring;
    * MissingParameter: a parameter required by the family is None, the
      cap of a powerlaw model (whose state space is unbounded) included.

    The messages name the parameters by their keys in build_rate_model.
    """

    family: str
    population: Optional[int] = None
    contact_rate: Optional[float] = None
    per_capita_rate: Optional[float] = None
    transmission_prob: Optional[float] = None
    coefficient: Optional[float] = None
    exponent: Optional[float] = None
    state_cap: Optional[int] = None
    time_unit: str = "time"

    def __post_init__(self):
        if not isinstance(self.time_unit, str):
            raise OutOfRange(
                f"time_unit must be a str, got {describe(self.time_unit)}")
        family = self.family
        if family == POWERLAW:
            _positive(self, "coefficient", "c")
            _real(self, "exponent", "exponent")
            # the state space is unbounded; computation needs the cap
            _count(self, "state_cap", "cap")
        elif family in (HYPERGEOMETRIC, YULE):
            _count(self, "population", "N")
            p = _real(self, "transmission_prob", "p")
            if not 0.0 < p <= 1.0:
                raise OutOfRange(f"p must lie in (0, 1], got {p}")
            if family == HYPERGEOMETRIC:
                _positive(self, "contact_rate", "lambda")
            else:
                _positive(self, "per_capita_rate", "mu")
        else:
            raise OutOfRange(f"unknown rate family: {family!r}")
        _check_rates(self)

    @property
    def absorbing_state(self) -> int:
        """Largest reachable state: N for finite families, the cap otherwise."""
        if self.family == POWERLAW:
            return self.state_cap
        return self.population

    @property
    def effective_contact_rate(self) -> Optional[float]:
        """Contact rate lambda; for the yule family this is N * mu."""
        if self.family == YULE:
            return self.population * self.per_capita_rate
        return self.contact_rate


def hypergeometric_mixing(population, contact_rate, transmission_prob,
                          time_unit="time"):
    """Pair-sampling mixing model with contact rate lambda."""
    return RateModel(HYPERGEOMETRIC, population=population,
                     contact_rate=contact_rate,
                     transmission_prob=transmission_prob, time_unit=time_unit)


def yule_scaled(population, per_capita_rate, transmission_prob,
                time_unit="time"):
    """Mixing model with population-scaled contact rate lambda = N * mu."""
    return RateModel(YULE, population=population,
                     per_capita_rate=per_capita_rate,
                     transmission_prob=transmission_prob, time_unit=time_unit)


def power_law(coefficient, exponent, state_cap=None, time_unit="time"):
    """Rates c * k**exponent, truncated at state_cap."""
    return RateModel(POWERLAW, coefficient=coefficient, exponent=exponent,
                     state_cap=state_cap, time_unit=time_unit)


# the key in a flat parameter record of each field that a family uses
_KEYS = {
    HYPERGEOMETRIC: {"population": "N", "contact_rate": "lambda",
                     "transmission_prob": "p"},
    YULE: {"population": "N", "per_capita_rate": "mu",
           "transmission_prob": "p"},
    POWERLAW: {"coefficient": "c", "exponent": "exponent", "state_cap": "cap"},
}


def build_rate_model(spec: dict) -> RateModel:
    """Translate a flat parameter record into a checked model.

    Recognized keys: ``family``, ``N``, ``lambda``, ``mu``, ``p``, ``c``,
    ``exponent``, ``cap``, ``time_unit``; keys that the family does not
    use are ignored.  The others are passed to RateModel as they are, so
    it takes and refuses exactly what RateModel does; an unknown family
    is refused before any value is read.

    Raises:
        MissingParameter: no family, or a key required by the family is
            absent (the cap too, for powerlaw).
        OutOfRange: an unknown family, or any check of RateModel.
    """
    if spec.get("family") is None:
        raise MissingParameter("family is required")
    family = spec["family"]
    keys = _KEYS[family] if family in (HYPERGEOMETRIC, YULE, POWERLAW) else {}
    return RateModel(family=family, time_unit=spec.get("time_unit") or "time",
                     **{field: spec.get(key) for field, key in keys.items()})


def _check_rates(model):
    """Raise OutOfRange unless the model's rates pass the rule of the
    module docstring."""
    last = model.absorbing_state - 1
    # c k^exponent is monotone in k and k (N - k) peaks at N // 2, so the
    # extreme rates are among these states' rates
    states = np.array([1.0, last, model.absorbing_state // 2])
    with np.errstate(over="ignore"):
        rates = _rates(model, states).tolist()
    largest, smallest = max(rates), min(rates)
    if not math.isfinite(largest):
        raise OutOfRange(f"the largest rate overflows a float ({largest})")
    if not (smallest > 0 and math.isfinite(37.0 * last / smallest)):
        raise OutOfRange("a holding time overflows a float: the smallest "
                         f"rate is {smallest!r}")


def _rates(model, k, out=None):
    """Birth rates lambda_k at the states of the float array k, written to
    out, a new array when None.

    Each rate is rounded as the family's expression is, to the bit: c k^e
    as c * k ** e, and 2 k (N - k) lambda p / (N (N - 1)) as that product
    taken left to right.  Doubling is exact, so (N - k), doubled, times k
    rounds as 2k times (N - k), with no temporary beside out.
    """
    if model.family == POWERLAW:
        rates = np.positive(k, out=out)
        rates **= model.exponent  # dispatched as k ** exponent is
        rates *= model.coefficient
        return rates
    n = model.population
    rates = np.subtract(n, k, out=out)
    rates *= 2.0
    rates *= k
    rates *= model.effective_contact_rate
    rates *= model.transmission_prob
    rates /= n * (n - 1.0)
    return rates


def check_start(model: RateModel, start) -> int:
    """The model's absorbing/cap state, once start is an integer in
    [1, absorbing]; StateOutOfRange otherwise."""
    absorbing = model.absorbing_state
    if not (is_integer(start) and 1 <= start <= absorbing):
        raise StateOutOfRange(
            f"start_state {describe(start)} is not an integer in "
            f"[1, {absorbing}]")
    return absorbing


def rate_vector(model: RateModel, start: int = 1) -> np.ndarray:
    """Rates lambda_k of the states start, ..., absorbing - 1, in numpy;
    empty when start is the absorbing/cap state, whose rate is zero."""
    return _rates(model, np.arange(start, check_start(model, start),
                                   dtype=float))


# the helpers below check a field, named by its key in build_rate_model,
# and store it converted

def _present(model, field, key):
    value = getattr(model, field)
    if value is None:
        raise MissingParameter(
            f"{key} is required for the {model.family} family")
    return value


def _real(model, field, key):
    """The field as a float, once it is a finite number."""
    value = float(require_finite(key, _present(model, field, key)))
    object.__setattr__(model, field, value)
    return value


def _positive(model, field, key):
    value = _real(model, field, key)
    if not value > 0.0:
        raise OutOfRange(f"{key} must be positive, got {value}")


def _count(model, field, key):
    """The field as an int, once it is an integer >= 2 a float can hold."""
    value = _present(model, field, key)
    require_integer(key, value, 2)
    object.__setattr__(model, field, int(require_finite(key, value)))
