"""Exact-event Monte Carlo simulation of the pure-birth chain.

A path is named by (master seed, replicate index): replicate i of master
seed s is one path, whether simulate_path(model, start, s, i) draws it
alone or an ensemble of more than i replicates (estimate_absorption_time,
empirical_distribution_at, the CLI's trajectory dump) draws it at index i.
The CLI's explosion subcommand is estimate_absorption_time on c k^2 rates,
beside expected_absorption_time's exact mean and pi^2/(6c) bound.
Replicates come in blocks of BLOCK, and block b of a master seed draws from
its own stream, replicate_stream(master_seed, b) (numpy SeedSequence spawn
key (b,)), which checks the seed, as event_time_blocks does up front.  The
stream yields the block's holding times state by state, BLOCK numbers per
transient state, in strips of STRIP states.  So replicate i's holding time
in its j-th transient state depends only on (master_seed, i, j): not on
the replicate count, the strip size, the number of threads that --jobs
runs the blocks on, or the cap.  A partial last block still draws BLOCK
replicates.  The ensembles and the trajectory dump walk the blocks in one
loop, _blocks, and read each block's strips in their own draw functions;
simulate_path reads its one block's strips itself.  For --jobs above one
the ensembles run that loop on a thread pool with every block in flight;
the trajectory dump and simulate_path draw on the calling thread.
Summaries take each strip's exit times, the times its replicates leave
its last state, by one ordered reduction down the strip; only the
trajectory dump, simulate_path and histograms add the strip up row by row
into event times.  Both make the additions of cumsum(axis=0), in its
order, so the draws, the scheme and every output are those of the cumsum
kernel, bit for bit.
Holding times are -ln(U)/lambda_k with U = 1 - V in (0, 1] for numpy's
double V, so terminal times scale exactly when every rate is scaled under a
common seed.  RNG_SCHEME names this scheme in the CLI's JSON metadata.
summarize_terminal_times sorts the terminal times once and takes the top
time and the QUANTILE_LEVELS quantiles from that sort: numpy's default
linear method (Hyndman & Fan's type 7), interpolated as np.quantile does,
bit for bit.  np.quantile's NaN handling is not needed, since the 37 rule
of the rates module keeps every terminal time finite.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import require_integer, require_times
from .rates import RateModel, rate_vector

QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)
BLOCK = 1024                  # replicates per seeded stream
STRIP = (1 << 16) // BLOCK    # transient states drawn at a time
RNG_SCHEME = "pcg64-block1024-v2"


def replicate_stream(master_seed: int, block: int) -> np.random.Generator:
    """The stream of replicates block * BLOCK .. (block + 1) * BLOCK - 1,
    a pure function of its inputs, which must be integers >= 0."""
    require_integer("master_seed", master_seed, 0)
    require_integer("block", block, 0)
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


def _strips(stream: np.random.Generator, lam: np.ndarray):
    """The sampling kernel for one block: (strip, exit) for strips of up to
    STRIP rows.  Row j of strip k holds, for each of the BLOCK replicates,
    its holding time in its (k * STRIP + j)-th transient state, row 0
    shifted by the time it entered the strip; exit holds the times at which
    the replicates leave the strip's last state, where the next strip
    starts.  A caller may write into a strip (_running_sum does), but not
    into exit."""
    exit = np.zeros(BLOCK)
    for k in range(0, lam.size, STRIP):
        strip = stream.random((min(STRIP, lam.size - k), BLOCK))
        np.subtract(1.0, strip, out=strip)
        np.log(strip, out=strip)
        np.divide(strip, -lam[k:k + len(strip), None], out=strip)
        strip[0] += exit
        # on a C-contiguous strip this adds the rows in order, so exit is
        # bitwise the last row of _running_sum(strip)
        exit = np.add.reduce(strip, axis=0)
        yield strip, exit


def _running_sum(strip: np.ndarray) -> np.ndarray:
    """Turn a strip into event times in place and return it: the additions
    of cumsum(axis=0), in its order, row by row, without walking the
    strided axis."""
    for j in range(1, len(strip)):
        np.add(strip[j - 1], strip[j], out=strip[j])
    return strip


def _blocks(lam, replicates, master_seed, n_jobs, draw):
    """(first replicate, draw(strips, n)) for each block, in block order:
    strips are the block's _strips, n its used replicates.  A block is a
    pure function of (master_seed, block), so up to min(n_jobs, cpu count,
    blocks) threads give one thread's results; numpy releases the GIL in
    the draws, logs and sums.  The threads take every block at once and no
    worker writes a shared array, so the caller holds every result it has
    not yet taken: the draws that run on threads return small results.
    The pool is imported only for more than one thread, so one thread never
    loads concurrent.futures (nor the logging it imports)."""
    def run(start):
        strips = _strips(replicate_stream(master_seed, start // BLOCK), lam)
        return start, draw(strips, min(BLOCK, replicates - start))

    starts = range(0, replicates, BLOCK)
    workers = min(n_jobs, len(starts))
    if workers > 1:  # only then is the core count asked for
        workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        yield from map(run, starts)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # map re-raises a worker's exception here
        yield from pool.map(run, starts)


def event_time_blocks(model: RateModel, start_state: int, replicates: int,
                      master_seed: int):
    """A generator of (first replicate, times), block by block, drawn on
    the calling thread as the caller asks for each; row r of ``times``
    holds the times at which replicate first + r enters each state from
    start_state (0) on.  A block takes 8 KB per transient state.  The
    replicate count, start state and seed are checked at the call, in
    that order."""
    require_integer("replicates", replicates, 1)
    lam = rate_vector(model, start_state)
    require_integer("master_seed", master_seed, 0)

    def draw(strips, n):
        # filled strip by strip, so a block is held once
        times = np.zeros((lam.size + 1, BLOCK))
        for k, (strip, _) in zip(range(1, lam.size + 1, STRIP), strips):
            times[k:k + len(strip)] = _running_sum(strip)
        return times[:, :n].T
    return _blocks(lam, replicates, master_seed, 1, draw)


def simulate_path(model: RateModel, start_state: int, master_seed: int,
                  replicate: int = 0) -> Trajectory:
    """Replicate ``replicate`` of ``master_seed``: one exact sample path
    from start_state to the absorbing/cap state, the one whose terminal
    time every ensemble of more than ``replicate`` replicates puts at that
    index.  Both numbers are integers >= 0; it draws the replicate's
    whole block."""
    require_integer("replicate", replicate, 0)
    lam = rate_vector(model, start_state)
    strips = _strips(replicate_stream(master_seed, replicate // BLOCK), lam)
    column = replicate % BLOCK
    times = [x for strip, _ in strips for x in _running_sum(strip)[:, column]]
    events = [(float(t), k) for k, t in enumerate([0.0] + times, start_state)]
    return Trajectory(events=events, terminal_time=events[-1][0])


def _simulate_ensemble(model, start_state, replicates, master_seed,
                       t=None, n_jobs=1):
    """Terminal times (and states at time t) for every replicate, in
    replicate order, from the blocks of _blocks on up to n_jobs threads."""
    require_integer("n_jobs", n_jobs, 1)
    lam = rate_vector(model, start_state)

    def draw(strips, n):
        # holds at most two strips at a time
        exit = np.zeros(BLOCK)  # no transient state: absorbed at 0
        states = None if t is None else np.full(n, start_state, np.int64)
        for strip, exit in strips:
            if states is not None:
                states += np.count_nonzero(_running_sum(strip)[:, :n] <= t,
                                           axis=0)
        return exit[:n], states

    _, blocks = zip(*_blocks(lam, replicates, master_seed, n_jobs, draw))
    exits, states = zip(*blocks)
    return np.concatenate(exits), None if t is None else np.concatenate(states)


def estimate_absorption_time(model: RateModel, start_state: int,
                             replicates: int, master_seed: int,
                             n_jobs: int = 1) -> MonteCarloSummary:
    """Monte Carlo estimate of E(T) over independent replicates."""
    require_integer("replicates", replicates, 2)
    terminal, _ = _simulate_ensemble(model, start_state, replicates,
                                     master_seed, n_jobs=n_jobs)
    return summarize_terminal_times(terminal, master_seed, model.time_unit)


def summarize_terminal_times(terminal: np.ndarray, master_seed: int,
                             time_unit: str) -> MonteCarloSummary:
    """Mean, standard error and QUANTILE_LEVELS quantiles of the terminal
    times, which are left as they are.  The quantiles are numpy's default
    linear method (Hyndman & Fan's type 7) taken from one sort, each
    interpolated as numpy's _lerp does, so they are np.quantile's bit for
    bit.  np.quantile's NaN handling is left out: the rates module's 37
    rule keeps every sampled time finite, so no NaN can sort last."""
    replicates = len(terminal)
    ordered = np.sort(terminal)
    # times past 2**500 are scaled by a power of two, exactly, so that the
    # mean's sum and the std's squares cannot overflow; others by 1
    top = ordered.item(-1)
    shift = math.frexp(top)[1] if top > 2.0 ** 500 else 0
    scaled = np.ldexp(terminal, -shift)
    mean = math.ldexp(float(np.mean(scaled)), shift)
    std_error = math.ldexp(
        float(np.std(scaled, ddof=1) / math.sqrt(replicates)), shift)
    last = replicates - 1
    quantiles = {}
    for q in QUANTILE_LEVELS:
        v = last * q
        lo = math.floor(v)
        g = v - lo
        a, b = ordered.item(lo), ordered.item(min(lo + 1, last))
        quantiles[q] = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    return MonteCarloSummary(replicates=replicates, master_seed=master_seed,
                             mean=mean, std_error=std_error,
                             quantiles=quantiles, time_unit=time_unit)


def empirical_distribution_at(model: RateModel, start_state: int, t: float,
                              replicates: int, master_seed: int,
                              n_jobs: int = 1) -> StateHistogram:
    """Replicate counts per state at time t (empirical forward solution)."""
    require_times("t", t, ndim=0)
    require_integer("replicates", replicates, 1)
    _, states_at_t = _simulate_ensemble(model, start_state, replicates,
                                        master_seed, t=t, n_jobs=n_jobs)
    absorbing = model.absorbing_state
    support = np.arange(start_state, absorbing + 1)
    counts = np.bincount(states_at_t - start_state,
                         minlength=len(support))
    return StateHistogram(time=t, states=support, counts=counts,
                          replicates=replicates)
