"""Kolmogorov forward equations for the pure-birth chain.

The state distribution p_k(t) obeys the bidiagonal linear system

    p_k'(t) = lambda_{k-1} p_{k-1}(t) - lambda_k p_k(t)

with lambda zero at the absorbing/cap state (where escaping mass collects,
so probability is conserved even under truncation).  It is solved by
uniformization (Jensen 1953; Grassmann 1977): with Lambda the largest rate
and P = I + Q / Lambda,

    p(t) = sum_n Pois(n; Lambda t) v_0 P^n,

where v_0 is the point mass at the start state.  Every term is nonnegative
and each step of v_n -> v_{n+1} moves mass without creating or losing any.
One pass over n serves every requested time.  The sum stops at the n past
which the Poisson tail of the largest Lambda t is at most abs_tol, or
earlier once v_n has at most abs_tol of its mass outside the absorbing
state; the Poisson weight of the terms left out goes to the last v_n
computed.  FORWARD_SCHEME names this scheme in the CLI's JSON metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfRange, StateOutOfRange, ToleranceNotMet
from .rates import RateModel, rate_vector

MASS_DEFECT_TOL = 1e-8
FORWARD_SCHEME = "uniformization-v1"
BLOCK = 64                    # powers of P held between weight products

# Stirling-series remainders lgamma(n+1) - (n+1/2) ln n + n - ln(2 pi)/2
# for n < 16; larger n use the asymptotic series in _stirling_error
_STIRLING_ERROR = np.array(
    [0.0] + [math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
             - 0.5 * math.log(2.0 * math.pi) for n in range(1, 16)])


@dataclass(frozen=True)
class SolverConfig:
    """Error control for the forward solver.

    abs_tol is the Poisson weight, per requested time, of the terms the
    uniformization sum leaves out; it must lie in [1e-300, 1).  (Below
    that, n / (Lambda t) can overflow in the Poisson weights.)
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 1e-300 <= self.abs_tol < 1.0:
            raise OutOfRange(
                f"abs_tol must lie in [1e-300, 1), got {self.abs_tol}")


@dataclass(frozen=True)
class DistributionSnapshot:
    """State distribution at one time, over states start_state..absorbing."""

    time: float
    states: np.ndarray
    probabilities: np.ndarray
    mass_defect: float

    def probability_of(self, state: int) -> float:
        lo, hi = self.states[0], self.states[-1]
        if not lo <= state <= hi:
            raise StateOutOfRange(f"state {state} outside [{lo}, {hi}]")
        return float(self.probabilities[state - lo])


def forward_probabilities(model: RateModel, start_state: int, t: float,
                          config: Optional[SolverConfig] = None
                          ) -> DistributionSnapshot:
    """Distribution at time t from a point mass at start_state."""
    return forward_grid(model, start_state, [t], config)[0]


def forward_grid(model: RateModel, start_state: int, times: Sequence[float],
                 config: Optional[SolverConfig] = None
                 ) -> list[DistributionSnapshot]:
    """Snapshots at each requested time (one uniformization pass).

    Times need not be sorted; each must be finite and >= 0.
    """
    config = config or SolverConfig()
    absorbing = model.absorbing_state
    if not 1 <= start_state <= absorbing:
        raise StateOutOfRange(
            f"start_state {start_state} outside [1, {absorbing}]")
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        return []
    if not np.isfinite(times).all():
        raise OutOfRange("times must be finite")
    if (times < 0).any():
        raise OutOfRange("times must be nonnegative")

    states = np.arange(start_state, absorbing + 1)
    lam = np.append(rate_vector(model, start_state), 0.0)
    big = float(lam.max())
    with np.errstate(over="ignore"):
        counts = big * times  # mean number of uniformized steps by each time
    if not np.isfinite(counts).all():
        raise OutOfRange(f"times times the largest rate {big} overflow")
    # with Lambda t <= abs_tol the chain stays put but for that much mass
    moving = counts > config.abs_tol
    solutions = np.zeros((times.size, len(states)))
    solutions[~moving, 0] = 1.0
    if moving.any():
        solutions[moving] = _uniformize(lam / big, counts[moving],
                                        config.abs_tol)
    return [_make_snapshot(float(t), states, y, config)
            for t, y in zip(times, solutions)]


def _uniformize(jump, counts, abs_tol):
    """Rows sum_n Pois(n; counts[i]) v_0 P^n, where P moves the share
    jump[k] of state k's mass to state k + 1 (jump[-1] = 0)."""
    # Bernstein's bound P(N >= a + x) <= exp(-x^2 / (2 (a + x / 3))) for
    # N ~ Pois(a), solved for the x that makes it abs_tol
    log_tol = -math.log(abs_tol)
    a_max = float(counts.max())
    n_end = math.ceil(a_max + log_tol / 3.0
                      + math.sqrt(log_tol ** 2 / 9.0 + 2.0 * log_tol * a_max))
    out = np.zeros((counts.size, jump.size))
    weight_used = np.zeros(counts.size)
    buf = np.zeros((BLOCK + 1, jump.size))   # row j holds v_{n0 + j}
    buf[0, 0] = 1.0
    flux = np.empty(jump.size)
    for n0 in range(0, n_end + 1, BLOCK):
        rows = min(BLOCK, n_end + 1 - n0)
        for j in range(rows):
            np.multiply(buf[j], jump, out=flux)
            np.subtract(buf[j], flux, out=buf[j + 1])
            buf[j + 1, 1:] += flux[:-1]
        weights = np.exp(_log_poisson(np.arange(n0, n0 + rows), counts))
        out += weights @ buf[:rows]
        weight_used += weights.sum(axis=1)
        buf[0] = buf[rows]
        if buf[0, :-1].sum() <= abs_tol:
            break
    # the terms left out weigh at most abs_tol, or their vectors lie within
    # abs_tol of the absorbing point mass, as buf[0] does
    out += np.maximum(1.0 - weight_used, 0.0)[:, None] * buf[0]
    return out


def _log_poisson(n, counts):
    """log Pois(n; a) for integers n >= 0 (columns) and a > 0 (rows).

    Uses Loader's (2000) saddle-point form, so the result keeps full
    relative accuracy for large a where -a + n ln a - lgamma(n + 1)
    would cancel.
    """
    a = counts[:, None]
    k = np.maximum(n, 1)      # n = 0 is -a, filled in below
    x = k.astype(float)
    u = (x - a) / a
    deviance = a * ((1.0 + u) * np.log1p(u) - u)
    log_p = -_stirling_error(k) - deviance - 0.5 * np.log(2.0 * math.pi * x)
    return np.where(n == 0, -a, log_p)


def _stirling_error(n):
    x = n.astype(float)
    inv2 = 1.0 / (x * x)
    series = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / x
    small = n < _STIRLING_ERROR.size
    return np.where(small, _STIRLING_ERROR[np.where(small, n, 0)], series)


def _make_snapshot(t, states, y, config):
    mass_defect = abs(1.0 - math.fsum(y))
    if mass_defect > MASS_DEFECT_TOL:
        raise ToleranceNotMet(
            f"probability mass defect {mass_defect:.3e} at t={t}")
    # roundoff-scale negatives are clamped; anything larger means the
    # solver missed its tolerance
    neg_floor = max(1e-12, 10.0 * config.abs_tol)
    worst = float(y.min())
    if worst < -neg_floor:
        raise ToleranceNotMet(
            f"negative probability {worst:.3e} at t={t} exceeds roundoff floor")
    clipped = np.clip(y, 0.0, 1.0)
    return DistributionSnapshot(time=t, states=states, probabilities=clipped,
                                mass_defect=mass_defect)


def mean_state(snapshot: DistributionSnapshot) -> float:
    """Expected number infected at the snapshot time."""
    return float(np.dot(snapshot.states, snapshot.probabilities))


def absorption_probability(model: RateModel, start_state: int, t: float,
                           config: Optional[SolverConfig] = None) -> float:
    """P(T <= t): mass at the absorbing/cap state at time t."""
    snap = forward_probabilities(model, start_state, t, config)
    return float(snap.probabilities[-1])
