"""Exact-event Monte Carlo simulation of the pure-birth chain.

Replicates come in blocks of BLOCK, and block b of a master seed draws from
its own stream, replicate_stream(master_seed, b) (numpy SeedSequence spawn
key (b,)).  The stream yields the block's holding times state by state,
BLOCK numbers per transient state, in strips of STRIP states.  So replicate
i's holding time in its j-th transient state depends only on
(master_seed, i, j): not on the replicate count, the strip size, the
number of threads that --jobs runs the blocks on, or the cap.  A partial
last block still draws BLOCK replicates.
Event times are a running sum accumulated row by row down each strip: the
additions of cumsum(axis=0), in its order, so the draws, the scheme and
every output are those of the cumsum kernel, bit for bit.
Holding times are -ln(U)/lambda_k with U = 1 - V in (0, 1] for numpy's
double V, so terminal times scale exactly when every rate is scaled under a
common seed.  RNG_SCHEME names this scheme in the CLI's JSON metadata.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfRange, WrongFamily
from .rates import POWERLAW, RateModel, power_law, rate_vector

QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)
BLOCK = 1024                  # replicates per seeded stream
STRIP = (1 << 16) // BLOCK    # transient states drawn at a time
RNG_SCHEME = "pcg64-block1024-v2"


def replicate_stream(master_seed: int, block: int) -> np.random.Generator:
    """The stream of replicates block * BLOCK .. (block + 1) * BLOCK - 1,
    a pure function of its inputs."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(block,)))


@dataclass(frozen=True)
class Trajectory:
    """One sample path: (event time, state) pairs up to absorption."""

    events: list[tuple[float, int]]
    terminal_time: float


@dataclass(frozen=True)
class MonteCarloSummary:
    replicates: int
    master_seed: int
    mean: float
    std_error: float
    quantiles: dict[float, float]
    time_unit: str


@dataclass(frozen=True)
class StateHistogram:
    """Replicate counts per state at a fixed time."""

    time: float
    states: np.ndarray
    counts: np.ndarray
    replicates: int


@dataclass(frozen=True)
class ExplosionReport:
    """Cap-hitting times for quadratically accelerating rates."""

    summary: MonteCarloSummary
    cap: int
    analytic_mean: float
    limit_bound: float


def _strips(stream: np.random.Generator, lam: np.ndarray):
    """The sampling kernel for one block: strips of up to STRIP rows, where
    row j of strip k holds, for each of the BLOCK replicates, the time it
    leaves its (k * STRIP + j)-th transient state.  The next strip starts
    from the last row of this one, so callers must not write into a
    yielded strip."""
    total = np.zeros(BLOCK)
    for k in range(0, lam.size, STRIP):
        times = stream.random((min(STRIP, lam.size - k), BLOCK))
        np.subtract(1.0, times, out=times)
        np.log(times, out=times)
        np.divide(times, -lam[k:k + len(times), None], out=times)
        times[0] += total
        # the running sum row by row: the additions of cumsum(axis=0), in
        # its order, without walking the strided axis
        for j in range(1, len(times)):
            np.add(times[j - 1], times[j], out=times[j])
        total = times[-1]
        yield times


def _sampling_rates(model: RateModel, start_state: int) -> np.ndarray:
    """rate_vector(model, start_state), rejecting a rate of 0 or one whose
    reciprocal overflows: no holding time drawn for it would be finite."""
    lam = rate_vector(model, start_state)
    if lam.size:
        smallest = float(lam.min())
        if not (smallest > 0 and math.isfinite(1.0 / smallest)):
            raise OutOfRange("holding times overflow a float: the smallest "
                             f"rate is {smallest!r}")
    return lam


def event_time_blocks(model: RateModel, start_state: int, replicates: int,
                      master_seed: int):
    """Yield (first replicate, times) block by block; row r of ``times``
    holds the times at which replicate first + r enters each state from
    start_state (0) on.  A block takes 8 KB per transient state."""
    lam = _sampling_rates(model, start_state)
    for first in range(0, replicates, BLOCK):
        stream = replicate_stream(master_seed, first // BLOCK)
        times = np.vstack([np.zeros((1, BLOCK)), *_strips(stream, lam)])
        yield first, times[:, :replicates - first].T


def simulate_path(model: RateModel, start_state: int,
                  stream: np.random.Generator) -> Trajectory:
    """One exact sample path from start_state to the absorbing/cap state,
    the first of the block ``stream`` draws: with replicate_stream(seed, b)
    it is replicate b * BLOCK of master seed ``seed``."""
    lam = _sampling_rates(model, start_state)
    times = [0.0] + [x for strip in _strips(stream, lam) for x in strip[:, 0]]
    events = [(float(t), k) for k, t in enumerate(times, start_state)]
    return Trajectory(events=events, terminal_time=events[-1][0])


def _simulate_ensemble(model, start_state, replicates, master_seed,
                       t=None, n_jobs=1):
    """Terminal times (and states at time t) for every replicate, in
    replicate order.  Each block is a pure function of (master_seed, block)
    written into its own rows, so up to min(n_jobs, cpu count, blocks)
    threads give the same arrays as one; numpy releases the GIL in the
    draws, logs and sums."""
    if n_jobs < 1:
        raise OutOfRange(f"n_jobs must be >= 1, got {n_jobs}")
    lam = _sampling_rates(model, start_state)
    terminal = np.empty(replicates)
    states = None if t is None else np.full(replicates, start_state, np.int64)

    def run_block(first):
        # holds at most two strips at a time
        n = min(BLOCK, replicates - first)
        rows = slice(first, first + n)
        times = np.zeros((1, BLOCK))  # no transient state: absorbed at 0
        for times in _strips(replicate_stream(master_seed, first // BLOCK),
                             lam):
            if states is not None:
                states[rows] += np.count_nonzero(times[:, :n] <= t, axis=0)
        terminal[rows] = times[-1, :n]

    firsts = range(0, replicates, BLOCK)
    workers = min(n_jobs, os.cpu_count() or 1, len(firsts))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # reading every result re-raises a worker's exception here
            list(pool.map(run_block, firsts))
    else:
        for first in firsts:
            run_block(first)
    return terminal, states


def estimate_absorption_time(model: RateModel, start_state: int,
                             replicates: int, master_seed: int,
                             n_jobs: int = 1) -> MonteCarloSummary:
    """Monte Carlo estimate of E(T) over independent replicates."""
    if replicates < 2:
        raise OutOfRange(f"replicates must be >= 2, got {replicates}")
    terminal, _ = _simulate_ensemble(model, start_state, replicates,
                                     master_seed, n_jobs=n_jobs)
    return summarize_terminal_times(terminal, master_seed, model.time_unit)


def summarize_terminal_times(terminal: np.ndarray, master_seed: int,
                             time_unit: str) -> MonteCarloSummary:
    replicates = len(terminal)
    # times past 2**500 are scaled by a power of two, exactly, so that the
    # mean's sum and the std's squares cannot overflow; others by 1
    top = float(np.max(terminal))
    shift = math.frexp(top)[1] if top > 2.0 ** 500 else 0
    scaled = np.ldexp(terminal, -shift)
    mean = math.ldexp(float(np.mean(scaled)), shift)
    std_error = math.ldexp(
        float(np.std(scaled, ddof=1) / math.sqrt(replicates)), shift)
    qs = np.quantile(terminal, QUANTILE_LEVELS)
    return MonteCarloSummary(replicates=replicates, master_seed=master_seed,
                             mean=mean, std_error=std_error,
                             quantiles=dict(zip(QUANTILE_LEVELS, map(float, qs))),
                             time_unit=time_unit)


def empirical_distribution_at(model: RateModel, start_state: int, t: float,
                              replicates: int, master_seed: int,
                              n_jobs: int = 1) -> StateHistogram:
    """Replicate counts per state at time t (empirical forward solution)."""
    if not (math.isfinite(t) and t >= 0):
        raise OutOfRange(f"t must be finite and >= 0, got {t}")
    if replicates < 1:
        raise OutOfRange(f"replicates must be >= 1, got {replicates}")
    _, states_at_t = _simulate_ensemble(model, start_state, replicates,
                                        master_seed, t=t, n_jobs=n_jobs)
    absorbing = model.absorbing_state
    support = np.arange(start_state, absorbing + 1)
    counts = np.bincount(states_at_t - start_state,
                         minlength=len(support))
    return StateHistogram(time=t, states=support, counts=counts,
                          replicates=replicates)


def explosion_study(model: RateModel, start_state: int, replicates: int,
                    master_seed: int, cap: Optional[int] = None,
                    n_jobs: int = 1) -> ExplosionReport:
    """Distribution of the time to hit the cap under lambda_k = c k^2.

    The mean is reported against the analytic partial sum
    (1/c) sum_{k=start}^{cap-1} 1/k^2 and the limiting bound pi^2/(6c).
    """
    if model.family != POWERLAW or model.exponent != 2:
        raise WrongFamily("explosion_study requires a powerlaw model "
                          "with exponent +2")
    if cap is not None and cap != model.state_cap:
        model = power_law(model.coefficient, model.exponent, cap,
                          model.time_unit)
    cap = model.state_cap
    if cap < start_state + 1:
        raise OutOfRange(f"cap {cap} must exceed start_state {start_state}")
    summary = estimate_absorption_time(model, start_state, replicates,
                                       master_seed, n_jobs=n_jobs)
    c = model.coefficient
    analytic = float(np.sum(1.0 / rate_vector(model, start_state)))
    return ExplosionReport(summary=summary, cap=cap, analytic_mean=analytic,
                           limit_bound=math.pi ** 2 / (6.0 * c))
