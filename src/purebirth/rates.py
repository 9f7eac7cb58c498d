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
                     StateOutOfRange, is_integer)

HYPERGEOMETRIC = "hypergeometric"
YULE = "yule"
POWERLAW = "powerlaw"

_FAMILY_ALIASES = {
    "hypergeometric": HYPERGEOMETRIC,
    "hypergeometricmixing": HYPERGEOMETRIC,
    "mixing": HYPERGEOMETRIC,
    "yule": YULE,
    "yulescaled": YULE,
    "powerlaw": POWERLAW,
    "power_law": POWERLAW,
    "power-law": POWERLAW,
}


@dataclass(frozen=True)
class RateModel:
    """A validated family of per-state birth rates.

    Use :func:`build_rate_model` or the family-specific constructors rather
    than instantiating this directly.
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


def normalize_family(name: str) -> str:
    key = str(name).strip().lower()
    if key not in _FAMILY_ALIASES:
        raise OutOfRange(f"unknown rate family: {name!r}")
    return _FAMILY_ALIASES[key]


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
    """Validate a flat parameter record and return an immutable model.

    Recognized keys: ``family``, ``N``, ``lambda``, ``mu``, ``p``, ``c``,
    ``exponent``, ``cap``, ``time_unit``.

    Raises:
        MissingParameter: a key required by the family is absent.
        OutOfRange: a non-finite input, N < 2, p outside (0, 1], a
            nonpositive parameter, a largest rate that overflows a float,
            or a smallest rate for which a holding time could (the rate
            rule in the module docstring).
        CapRequired: powerlaw family without a state cap.
    """
    if "family" not in spec or spec["family"] is None:
        raise MissingParameter("family is required")
    family = normalize_family(spec["family"])
    time_unit = spec.get("time_unit") or "time"

    if family in (HYPERGEOMETRIC, YULE):
        n = _require(spec, "N", family)
        n = _as_int(n, "N")
        if n < 2:
            raise OutOfRange(f"N must be >= 2, got {n}")
        p = _require_float(spec, "p", family)
        if not 0.0 < p <= 1.0:
            raise OutOfRange(f"p must lie in (0, 1], got {p}")
        if family == HYPERGEOMETRIC:
            lam = _require_float(spec, "lambda", family)
            if lam <= 0.0:
                raise OutOfRange(f"lambda must be positive, got {lam}")
            return _checked(RateModel(
                family=HYPERGEOMETRIC, population=n, contact_rate=lam,
                transmission_prob=p, time_unit=time_unit))
        mu = _require_float(spec, "mu", family)
        if mu <= 0.0:
            raise OutOfRange(f"mu must be positive, got {mu}")
        return _checked(RateModel(family=YULE, population=n,
                                  per_capita_rate=mu, transmission_prob=p,
                                  time_unit=time_unit))

    # powerlaw
    c = _require_float(spec, "c", family)
    if c <= 0.0:
        raise OutOfRange(f"c must be positive, got {c}")
    exponent = _require_float(spec, "exponent", family)
    cap = spec.get("cap")
    if cap is None:
        # every power-law state space is unbounded; computation needs a cap
        raise CapRequired(
            "powerlaw models require a state cap (unbounded state space)")
    cap = _as_int(cap, "cap")
    if cap < 2:
        raise OutOfRange(f"cap must be >= 2, got {cap}")
    return _checked(RateModel(family=POWERLAW, coefficient=c,
                              exponent=exponent, state_cap=cap,
                              time_unit=time_unit))


def _checked(model):
    """The model, once its rates pass the rule of the module docstring."""
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
    return model


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


def _require(spec, key, family):
    value = spec.get(key)
    if value is None:
        raise MissingParameter(f"{key} is required for the {family} family")
    return value


def _require_float(spec, key, family):
    value = float(_require(spec, key, family))
    if not math.isfinite(value):
        raise OutOfRange(f"{key} must be finite, got {value}")
    return value


def _as_int(value, name):
    if not math.isfinite(float(value)):
        raise OutOfRange(f"{name} must be finite, got {value}")
    as_int = int(value)
    if as_int != float(value):
        raise OutOfRange(f"{name} must be an integer, got {value}")
    return as_int
