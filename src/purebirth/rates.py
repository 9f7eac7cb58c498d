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
  truncated at an explicit ``state_cap`` for computation.

One rule, checked when a model is built, decides which rates every engine
accepts: the largest rate is finite, and so is 37 m / lambda_min, with m
the number of transient states and lambda_min the smallest rate.  37
(53 ln 2 = 36.74, rounded up) bounds the -ln U that the Monte Carlo sampler
draws, so no sampled absorption time overflows; and every rate is a normal
float, which the engines may divide by.

Models are immutable; every operation here is a pure function of
(model, state) and safe to call concurrently.  ``rate_vector`` gives the
rates of the states from a start state on as one numpy array.  It takes
only an integer start state in [1, absorbing] and raises StateOutOfRange
otherwise; every engine takes its states through it.  The family formulas
are evaluated in one place, by numpy, so the rule above checks the very
numbers the engines divide by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (CapRequired, MissingParameter, OutOfRange,
                     StateOutOfRange, is_integer, require_finite,
                     require_integer, too_large_for_a_float)

HYPERGEOMETRIC = "hypergeometric"
YULE = "yule"
POWERLAW = "powerlaw"

@dataclass(frozen=True)
class RateModel:
    """An immutable family of per-state birth rates, checked when built.

    Every model, whether built here, by :func:`build_rate_model` or by the
    family-specific constructors, passes the same checks, and raises:

    * OutOfRange: a family name other than hypergeometric, yule and
      powerlaw, a non-finite or nonpositive rate parameter, p outside
      (0, 1], N or the cap not an integer >= 2 that a float can hold, a
      non-finite exponent, or rates that break the rule of the module
      docstring;
    * MissingParameter: a parameter required by the family is None;
    * CapRequired: a powerlaw model without a state cap.

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
        family = self.family
        if family == POWERLAW:
            _positive("c", self.coefficient, family)
            require_finite("exponent",
                           _present("exponent", self.exponent, family))
            if self.state_cap is None:
                # every power-law state space is unbounded; computation
                # needs a cap
                raise CapRequired("powerlaw models require a state cap "
                                  "(unbounded state space)")
            require_integer("cap", self.state_cap, 2)
            require_finite("cap", self.state_cap)
        elif family in (HYPERGEOMETRIC, YULE):
            require_integer("N", _present("N", self.population, family), 2)
            require_finite("N", self.population)
            p = require_finite("p",
                               _present("p", self.transmission_prob, family))
            if not 0.0 < p <= 1.0:
                raise OutOfRange(f"p must lie in (0, 1], got {p}")
            if family == HYPERGEOMETRIC:
                _positive("lambda", self.contact_rate, family)
            else:
                _positive("mu", self.per_capita_rate, family)
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
    return build_rate_model({
        "family": HYPERGEOMETRIC,
        "N": population,
        "lambda": contact_rate,
        "p": transmission_prob,
        "time_unit": time_unit,
    })


def yule_scaled(population, per_capita_rate, transmission_prob,
                time_unit="time"):
    """Mixing model with population-scaled contact rate lambda = N * mu."""
    return build_rate_model({
        "family": YULE,
        "N": population,
        "mu": per_capita_rate,
        "p": transmission_prob,
        "time_unit": time_unit,
    })


def power_law(coefficient, exponent, state_cap=None, time_unit="time"):
    """Rates c * k**exponent, truncated at state_cap."""
    return build_rate_model({
        "family": POWERLAW,
        "c": coefficient,
        "exponent": exponent,
        "cap": state_cap,
        "time_unit": time_unit,
    })


def build_rate_model(spec: dict) -> RateModel:
    """Translate a flat parameter record into a checked model.

    Recognized keys: ``family`` (passed to RateModel as it is), ``N``,
    ``lambda``, ``mu``, ``p``, ``c``, ``exponent``, ``cap``,
    ``time_unit``; keys that the family does not use are ignored.  N and
    cap are taken as integers, the others as floats (a numeric string
    too, but never a bool), and the model then checks itself
    (RateModel).

    Raises:
        MissingParameter: no family, or a key required by the family is
            absent.
        OutOfRange: an unknown family, N or cap not an integer, or any
            check of RateModel.
        CapRequired: powerlaw family without a state cap.
    """
    if spec.get("family") is None:
        raise MissingParameter("family is required")
    family = spec["family"]
    time_unit = spec.get("time_unit") or "time"
    if family == POWERLAW:
        return RateModel(family=POWERLAW, coefficient=_float(spec, "c"),
                         exponent=_float(spec, "exponent"),
                         state_cap=_int(spec, "cap"), time_unit=time_unit)
    if family not in (HYPERGEOMETRIC, YULE):
        return RateModel(family=family)  # refuses the name, before a value
    lam = _float(spec, "lambda") if family == HYPERGEOMETRIC else None
    mu = _float(spec, "mu") if family == YULE else None
    return RateModel(family=family, population=_int(spec, "N"),
                     contact_rate=lam, per_capita_rate=mu,
                     transmission_prob=_float(spec, "p"),
                     time_unit=time_unit)


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


def _rates(model, k):
    """Birth rates lambda_k at the states of the float array k."""
    if model.family == POWERLAW:
        return model.coefficient * k ** model.exponent
    n = model.population
    lam = model.effective_contact_rate
    return 2.0 * k * (n - k) * lam * model.transmission_prob / (n * (n - 1.0))


def rate_vector(model: RateModel, start: int = 1) -> np.ndarray:
    """Rates lambda_k of the states start, ..., absorbing - 1, in numpy;
    empty when start is the absorbing/cap state, whose rate is zero."""
    absorbing = model.absorbing_state
    if not (is_integer(start) and 1 <= start <= absorbing):
        raise StateOutOfRange(
            f"start_state {start} is not an integer in [1, {absorbing}]")
    return _rates(model, np.arange(start, absorbing, dtype=float))


def _float(spec, key):
    """spec[key] as a float, once float() takes it and it is not a bool;
    None when absent."""
    value = spec.get(key)
    if value is None:
        return None
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except OverflowError:  # an int too large for a float
        raise too_large_for_a_float(key) from None
    except (TypeError, ValueError):
        pass
    raise OutOfRange(f"{key} must be a number, got {value!r}")


def _int(spec, key):
    """spec[key] as an int when it is integral; otherwise as a float, for
    RateModel to refuse; None when absent."""
    if is_integer(spec.get(key)):
        return int(spec[key])
    value = _float(spec, key)
    return int(value) if value is not None and value.is_integer() else value


def _present(key, value, family):
    if value is None:
        raise MissingParameter(f"{key} is required for the {family} family")
    return value


def _positive(key, value, family):
    if not require_finite(key, _present(key, value, family)) > 0.0:
        raise OutOfRange(f"{key} must be positive, got {value}")
