"""Closed-form results for the absorption time of the pure-birth chain.

The time T to full infection is a sum of independent exponential holding
times, one per transient state, so its mean is the sum of reciprocal rates
and its variance the sum of squared reciprocal rates.  Both are summed over
the model's rate vector by numpy's pairwise summation, whose relative error
for these positive terms is at most about log2(N) ulps.  For the yule family
the mean has the closed form ((N-1)/(p mu N)) * H_{N-1} and the
large-population approximation ln(N) / (p mu); the tests hold the sum to
the closed form.  When the rates are pairwise distinct, T is
hypoexponential with an explicit partial-fraction density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfRange, RepeatedRates, StateOutOfRange, ToleranceNotMet
from .rates import YULE, RateModel, power_law, rate_vector

# Euler-Mascheroni constant, for the refined ln(N) + gamma diagnostic.
EULER_GAMMA = 0.5772156649015329

# rates closer than this (relative) are treated as repeated
DISTINCT_RTOL = 1e-9
# largest roundoff kappa * 2^-52 allowed in the partial-fraction law, with
# kappa = sum |C_k|: the forward solver's own mass-defect limit
LAW_ROUNDOFF_TOL = 1e-8
# entries of one block of the partial-fraction product
_BLOCK_ENTRIES = 1 << 18


def harmonic_number(n: int) -> float:
    """H_n = sum of 1/k for k = 1..n, by compensated direct summation."""
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


@dataclass(frozen=True)
class AbsorptionTimeReport:
    """Mean and variance of the time to reach the absorbing/cap state."""

    exact_mean: float
    variance: float
    start_state: int
    time_unit: str
    # ln(N)/(p mu), yule family only
    approx_mean: Optional[float] = None
    # (ln(N) + gamma)/(p mu): diagnostic explaining the exact-vs-approx gap
    approx_mean_refined: Optional[float] = None


def expected_absorption_time(model: RateModel,
                             start_state: int = 1) -> AbsorptionTimeReport:
    """Exact E(T) and Var(T) from start_state, as sums over the holding
    times of the states start_state, ..., absorbing - 1.

    For yule models the ln(N)/(p mu) approximation and its Euler-Mascheroni
    refinement are reported alongside.
    """
    rates = _transient_rates(model, start_state)
    # a rate that underflows to 0 makes a sum inf, reported below
    with np.errstate(divide="ignore", over="ignore"):
        exact = float(np.sum(1.0 / rates))
        variance = float(np.sum(1.0 / rates ** 2))
    if not math.isfinite(variance):
        raise OutOfRange("Var(T) overflows a float: the smallest rate is "
                         f"{rates.min()!r}")

    approx = refined = None
    if model.family == YULE:
        n = model.population
        p = model.transmission_prob
        mu = model.per_capita_rate
        approx = math.log(n) / (p * mu)
        refined = (math.log(n) + EULER_GAMMA) / (p * mu)
    return AbsorptionTimeReport(exact_mean=exact, variance=variance,
                                start_state=start_state,
                                time_unit=model.time_unit,
                                approx_mean=approx,
                                approx_mean_refined=refined)


def _transient_rates(model, start_state):
    absorbing = model.absorbing_state
    if not 1 <= start_state < absorbing:
        raise StateOutOfRange(
            f"start_state {start_state} is not transient for this model")
    return rate_vector(model, start_state)


@dataclass(frozen=True)
class HittingTimeDistribution:
    """Hypoexponential law of T when all transient rates are distinct.

    density(t) = sum_k C_k lambda_k exp(-lambda_k t) with the
    partial-fraction weights C_k = prod_{j != k} lambda_j / (lambda_j - lambda_k).
    """

    rates: np.ndarray
    coefficients: np.ndarray

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        terms = (self.coefficients * self.rates
                 * np.exp(-np.multiply.outer(t, self.rates)))
        return terms.sum(axis=-1)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        terms = self.coefficients * np.exp(-np.multiply.outer(t, self.rates))
        return 1.0 - terms.sum(axis=-1)

    def mean(self) -> float:
        return float(np.sum(1.0 / self.rates))

    def implied_mean(self) -> float:
        """Mean from the partial-fraction form, sum of C_k / lambda_k.

        The terms alternate in sign and can be large, so they are summed
        exactly rather than pairwise.
        """
        return math.fsum((self.coefficients / self.rates).tolist())


def hitting_time_distribution(model: RateModel,
                              start_state: int = 1) -> HittingTimeDistribution:
    """Closed-form law of the absorption time from start_state.

    Raises RepeatedRates when two transient rates coincide within relative
    tolerance 1e-9 (the mixing families always do from start_state 1 by the
    k(N-k) symmetry), and ToleranceNotMet when the alternating sum over the
    coefficients could lose more than LAW_ROUNDOFF_TOL to roundoff (about
    kappa = sum |C_k| ulps of 1) or a coefficient overflows; callers should
    then use the forward solver, e.g. absorption_probability for the cdf.
    """
    rates = _transient_rates(model, start_state)
    # for positive rates a <= b <= c, c - a <= tol c implies c - b <= tol c,
    # so some pair is within tolerance exactly when a sorted neighbour pair is
    order = np.argsort(rates, kind="stable")
    ordered = rates[order]
    close = np.flatnonzero(np.diff(ordered) <= DISTINCT_RTOL * ordered[1:])
    if close.size:
        i, j = sorted(order[close[0]:close[0] + 2] + start_state)
        raise RepeatedRates(
            f"rates for states {i} and {j} coincide; "
            "use the forward solver for the hitting-time law")
    # distinct but close rates give huge coefficients of both signs
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _partial_fractions(rates)
        kappa = float(np.sum(np.abs(coefficients)))
    if not kappa * 2.0 ** -52 <= LAW_ROUNDOFF_TOL:
        raise ToleranceNotMet(
            f"the partial-fraction law is ill-conditioned (sum |C_k| = "
            f"{kappa:.3e}); use absorption_probability for P(T <= t)")
    return HittingTimeDistribution(rates=rates, coefficients=coefficients)


def _partial_fractions(rates):
    """C_k = prod_{j != k} lambda_j / (lambda_j - lambda_k), a block of rows
    at a time, with a factor 1 in place of j = k."""
    m = rates.size
    rows = max(1, _BLOCK_ENTRIES // m)
    coeffs = np.empty(m)
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        gaps = rates[None, :] - rates[lo:hi, None]
        diagonal = (np.arange(hi - lo), np.arange(lo, hi))
        gaps[diagonal] = 1.0
        ratios = rates / gaps
        ratios[diagonal] = 1.0
        coeffs[lo:hi] = np.prod(ratios, axis=1)
    return coeffs


@dataclass(frozen=True)
class PowerLawTimeReport:
    """E(T) for rates c * k**(+/-2) summed over states 1..n.

    For exponent +2 the mean stays bounded: ``limit`` is pi^2/(6c) and
    ``tail_bound`` bounds the remainder past n by 1/(c n).  For exponent -2
    the mean grows cubically: ``growth`` is the leading term n^3/(3c).
    """

    value: float
    coefficient: float
    exponent: int
    n: int
    limit: Optional[float] = None
    tail_bound: Optional[float] = None
    growth: Optional[float] = None


def powerlaw_expected_time(c: float, exponent: int, n: int) -> PowerLawTimeReport:
    """Expected time to pass through states 1..n under c * k**exponent rates."""
    if not (math.isfinite(c) and c > 0):
        raise OutOfRange(f"c must be finite and positive, got {c}")
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if exponent == 2:
        value = float(np.sum(1.0 / rate_vector(power_law(1.0, 2, n + 1)))) / c
        return PowerLawTimeReport(value=value, coefficient=c, exponent=2, n=n,
                                  limit=math.pi ** 2 / (6.0 * c),
                                  tail_bound=1.0 / (c * n))
    if exponent == -2:
        # sum of k^2 for k = 1..n, in exact integer arithmetic
        closed = n * (n + 1) * (2 * n + 1) // 6
        return PowerLawTimeReport(value=closed / c, coefficient=c,
                                  exponent=-2, n=n,
                                  growth=n ** 3 / (3.0 * c))
    raise OutOfRange(f"exponent must be +2 or -2, got {exponent}")
