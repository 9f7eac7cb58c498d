"""Kolmogorov forward equations for the pure-birth chain.

The state distribution p_k(t) obeys the bidiagonal linear system

    p_k'(t) = lambda_{k-1} p_{k-1}(t) - lambda_k p_k(t)

with lambda zero at the absorbing/cap state (where escaping mass collects,
so probability is conserved even under truncation).  Two schemes solve it.

Uniformization (Jensen 1953; Grassmann 1977): with Lambda the largest rate
and P = I + Q / Lambda,

    p(t) = sum_n Pois(n; Lambda t) v_0 P^n,

where v_0 is the point mass at the start state.  Every term is nonnegative
and each step of v_n -> v_{n+1} moves mass without creating or losing any.
One pass over n serves every requested time.  The sum stops at the n past
which the Poisson tail of the largest Lambda t is at most abs_tol, or
earlier once v_n has at most abs_tol of its mass outside the absorbing
state; the Poisson weight of the terms left out goes to the last v_n
computed.  It costs about min(Lambda t, Lambda tau) steps of O(states),
tau being the time by which the chain has drained.

Euler inversion (Abate & Whitt, ORSA J. Computing 1995) of the closed-form
transforms

    L[p_j](s) = (1 / (s + lambda_j)) prod_{i<j} lambda_i / (lambda_i + s)

on the Bromwich line Re s = A / (2t): the trapezoidal sum over the nodes
s_k = (A + 2 pi i k) / (2t), finished by binomial (Euler) averaging of its
last partial sums.  On Re s > 0 every factor has modulus at most 1, so
nothing overflows and repeated rates need no special case.  It costs
EULER_NODES evaluations of O(states) per time, whatever Lambda t is.  Its
discretization error is at most e^-A / (1 - e^-A) (about 1.4e-11) because
0 <= p <= 1; the truncation error is estimated, as Abate & Whitt do, by the
difference of two consecutive Euler averages.

forward_grid keeps uniformization (a rigorous bound, exact mass and
nonnegative terms) unless its estimated cost (steps times states, plus a
fixed cost per step) is large and several times that of inversion, and
abs_tol is at least inversion's discretization bound; a call whose
inversion estimate misses abs_tol at any time is solved again by
uniformization.  A call left to uniformization whose estimated cost
passes UNIFORMIZATION_BUDGET is refused with ToleranceNotMet, which names
that cost and, when inversion ran, the abs_tol it reached: no call runs
for hours.  P(T <= t) is the mass at the absorbing state,
forward_probabilities(model, start, t).probabilities[-1].
FORWARD_SCHEME and INVERSION_SCHEME name the schemes; each snapshot
carries the one that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (OutOfRange, StateOutOfRange, ToleranceNotMet,
                     describe, is_integer, require_finite, require_times)
from .rates import RateModel, rate_vector

MASS_DEFECT_TOL = 1e-8
FORWARD_SCHEME = "uniformization-v1"
INVERSION_SCHEME = "euler-inversion-v1"
BLOCK = 64                    # powers of P held between weight products

# Euler inversion: Bromwich abscissa A / (2t), EULER_TERMS terms summed
# before EULER_AVERAGED more are averaged binomially; nodes are processed
# EULER_CHUNK at a time, whose complex (EULER_CHUNK x states) working array
# is no larger than uniformization's (BLOCK + 1) real rows
EULER_A = 25.0
EULER_TERMS = 50
EULER_AVERAGED = 20
EULER_NODES = EULER_TERMS + EULER_AVERAGED + 1
EULER_CHUNK = 16
# the discretization error of the inversion, for 0 <= p <= 1
INVERSION_BOUND = math.exp(-EULER_A) / -math.expm1(-EULER_A)
# inversion is chosen only above this many uniformization state-steps
# (a few tens of ms) and when they are INVERSION_GAIN times its
# node-states; one node-state costs about four state-steps
INVERSION_MIN_WORK = 1e7
INVERSION_GAIN = 8
# the fixed cost of one uniformization step, in state-steps: about 4 us
# against 3 ns a state, measured at 3 and 2001 states
STEP_OVERHEAD = 1300
# uniformization is refused past this many state-steps, about 20-30 s
UNIFORMIZATION_BUDGET = 1e10

# Stirling-series remainders lgamma(n+1) - (n+1/2) ln n + n - ln(2 pi)/2
# for n < 16; larger n use the asymptotic series in _stirling_error
_STIRLING_ERROR = np.array(
    [0.0] + [math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n
             - 0.5 * math.log(2.0 * math.pi) for n in range(1, 16)])


@dataclass(frozen=True)
class SolverConfig:
    """Error control for the forward solver.

    abs_tol is the error allowed per requested time, a finite number in
    [1e-300, 1).  (Below that, n / (Lambda t) can overflow in the Poisson
    weights.)  Under uniformization it bounds the Poisson weight of the
    terms the sum leaves out, and so every probability's error.  Under
    Euler inversion it bounds the discretization error INVERSION_BOUND
    plus the estimated truncation error of each probability; an abs_tol
    below INVERSION_BOUND always selects uniformization, within its budget.
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 1e-300 <= require_finite("abs_tol", self.abs_tol) < 1.0:
            raise OutOfRange(
                f"abs_tol must lie in [1e-300, 1), got {self.abs_tol}")


@dataclass(frozen=True)
class DistributionSnapshot:
    """State distribution at one time, over states start_state..absorbing."""

    time: float
    states: np.ndarray
    probabilities: np.ndarray
    mass_defect: float
    scheme: str = FORWARD_SCHEME

    def probability_of(self, state: int) -> float:
        lo, hi = self.states[0], self.states[-1]
        if not (is_integer(state) and lo <= state <= hi):
            raise StateOutOfRange(
                f"state {describe(state)} is not an integer in [{lo}, {hi}]")
        return float(self.probabilities[state - lo])


def forward_probabilities(model: RateModel, start_state: int, t: float,
                          config: Optional[SolverConfig] = None
                          ) -> DistributionSnapshot:
    """Distribution at time t from a point mass at start_state."""
    return forward_grid(model, start_state, [t], config)[0]


def forward_grid(model: RateModel, start_state: int, times: Sequence[float],
                 config: Optional[SolverConfig] = None
                 ) -> list[DistributionSnapshot]:
    """Snapshots at each requested time, all by one scheme (see the
    module docstring for which).

    times is a 1-d sequence of times (errors.require_times), in any order.
    """
    config = config or SolverConfig()
    lam = np.append(rate_vector(model, start_state), 0.0)
    times = require_times("times", times, ndim=1)

    states = np.arange(start_state, model.absorbing_state + 1)
    big = float(lam.max())
    with np.errstate(over="ignore"):
        counts = big * times  # mean number of uniformized steps by each time
    if not np.isfinite(counts).all():
        raise OutOfRange(f"times times the largest rate {big} overflow")
    # with Lambda t <= abs_tol the chain stays put but for that much mass
    moving = counts > config.abs_tol
    solutions = np.zeros((times.size, len(states)))
    solutions[~moving, 0] = 1.0
    scheme = FORWARD_SCHEME
    if moving.any():
        solved, scheme = _solve(lam, times[moving], counts[moving],
                                config.abs_tol)
        solutions[moving] = solved
    return [_make_snapshot(float(t), states, y, config, scheme)
            for t, y in zip(times, solutions)]


def _solve(lam, times, counts, abs_tol):
    """(rows, scheme) at times > 0: Euler inversion when it pays and its
    estimates meet abs_tol at every time, uniformization otherwise, unless
    that would pass UNIFORMIZATION_BUDGET."""
    steps = _uniformization_steps(lam[:-1], counts, abs_tol)
    work = steps * (lam.size + STEP_OVERHEAD)
    reached = ""
    if (abs_tol >= INVERSION_BOUND and work >= INVERSION_MIN_WORK
            and steps >= INVERSION_GAIN * EULER_NODES * counts.size):
        rows, estimate = _invert(lam[:-1], times)
        if (estimate + INVERSION_BOUND <= abs_tol).all():
            return rows, INVERSION_SCHEME
        reached = (", and inversion reached abs_tol "
                   f"{estimate.max() + INVERSION_BOUND:.2e}")
    if work > UNIFORMIZATION_BUDGET:
        raise ToleranceNotMet(
            f"uniformization would take about {work:.2e} state-steps, over "
            f"the budget of {UNIFORMIZATION_BUDGET:.0e}{reached}")
    return _uniformize(lam / lam.max(), counts, abs_tol), FORWARD_SCHEME


def _uniformization_steps(rates, counts, abs_tol):
    """About how many steps uniformization takes on these transient rates
    at these step counts (Lambda t, all > 0): the Poisson end of the
    largest, or Lambda times a Chernoff bound on the time to drain."""
    # Chernoff: P(T > tau) <= e^{-theta tau} prod lambda / (lambda - theta)
    # = abs_tol at theta = lambda_min / 2, where each factor is <= 2
    theta = 0.5 * float(rates.min())
    log_mgf = float(np.sum(-np.log1p(-theta / rates)))
    drain = (-math.log(abs_tol) + log_mgf) / theta
    return min(_poisson_end(float(counts.max()), abs_tol),
               float(rates.max()) * drain)


def _poisson_end(a, abs_tol):
    """An n with P(N > n) <= abs_tol for N ~ Pois(a): Bernstein's bound
    P(N >= a + x) <= exp(-x^2 / (2 (a + x / 3))) solved for x."""
    log_tol = -math.log(abs_tol)
    return math.ceil(a + log_tol / 3.0
                     + math.sqrt(log_tol ** 2 / 9.0 + 2.0 * log_tol * a))


def _uniformize(jump, counts, abs_tol):
    """Rows sum_n Pois(n; counts[i]) v_0 P^n, where P moves the share
    jump[k] of state k's mass to state k + 1 (jump[-1] = 0)."""
    n_end = _poisson_end(float(counts.max()), abs_tol)
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


def _euler_weights():
    """Weights of Re L(s_k), k = 0 .. EULER_NODES - 1, in the Euler sum
    E(n, m) (row 0) and in E(n, m) - E(n - 1, m) (row 1), for t = 1.

    E(n, m) averages the partial sums S_n .. S_{n+m} of the alternating
    series with binomial weights C(m, j) / 2^m, so term k keeps weight 1
    up to n and the binomial tail sum_{j >= k-n} C(m, j) / 2^m past it.
    """
    n, m = EULER_TERMS, EULER_AVERAGED
    binomial = np.array([math.comb(m, j) for j in range(m + 1)]) / 2.0 ** m
    tail = np.cumsum(binomial[::-1])[::-1]
    keep = np.ones(EULER_NODES)
    keep[n + 1:] = tail[1:]
    keep_before = np.ones(EULER_NODES)
    keep_before[n:] = np.append(tail[1:], 0.0)
    # e^{A/2} / (2t) Re L(s_0) + e^{A/2} / t sum_k (-1)^k Re L(s_k)
    term = math.exp(EULER_A / 2.0) * (-1.0) ** np.arange(EULER_NODES)
    term[0] *= 0.5
    return np.array([keep * term, (keep - keep_before) * term])


_EULER_WEIGHTS = _euler_weights()
_EULER_NODES = (EULER_A + 2j * math.pi * np.arange(EULER_NODES)) / 2.0


def _invert(rates, times):
    """Rows p(t) over the transient states and the absorbing one, for each
    t > 0, by Euler inversion; with each row's truncation estimate, the
    largest |E(n, m) - E(n - 1, m)| over its states.

    With r_i = lambda_i / (lambda_i + s) and Q_j = r_0 ... r_j, the
    transform is Q_j / lambda_j for a transient state j and Q_last / s for
    the absorbing one, so one cumulative product per node serves them all.
    """
    out = np.empty((times.size, rates.size + 1))
    estimate = np.empty(times.size)
    chunk = np.empty((EULER_CHUNK, rates.size), dtype=complex)
    for row, t in enumerate(times.tolist()):
        sums = np.zeros((2, rates.size + 1))
        for lo in range(0, EULER_NODES, EULER_CHUNK):
            s = _EULER_NODES[lo:lo + EULER_CHUNK] / t
            weights = _EULER_WEIGHTS[:, lo:lo + EULER_CHUNK] / t
            q = chunk[:s.size]
            np.add(s[:, None], rates, out=q)
            np.divide(rates, q, out=q)
            np.cumprod(q, axis=1, out=q)
            sums[:, :-1] += (weights @ q).real
            sums[:, -1] += (weights @ (q[:, -1] / s)).real
        sums[:, :-1] /= rates
        out[row] = sums[0]
        estimate[row] = np.abs(sums[1]).max()
    return out, estimate


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


def _make_snapshot(t, states, y, config, scheme):
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
                                mass_defect=mass_defect, scheme=scheme)


def mean_state(snapshot: DistributionSnapshot) -> float:
    """Expected number infected at the snapshot time."""
    return float(np.dot(snapshot.states, snapshot.probabilities))
