"""Closed-form results for the absorption time of the pure-birth chain.

The time T to full infection is a sum of independent exponential holding
times, one per transient state, so its mean is the sum of reciprocal rates
and its variance the sum of squared reciprocal rates.  Both are summed by
numpy's pairwise summation, whose relative error for these positive terms
is at most about log2(N) ulps.  The full rate vector is never built: the
sums walk np.sum's own pairwise tree down to leaves of at most 2^15
states, whose rates and sums fit in L2, and add the leaf sums back up the
same tree, so both are np.sum over the rate vector to the bit (about
1.1 ms at N = 2e5 and 5 ms at N = 1e6, with a traced peak under 1 MB).
More than 2^30 transient states, about 5 s of sums, are refused.  For
the yule family the mean has the closed form ((N-1)/(p mu N)) * H_{N-1}
and the large-population approximation ln(N) / (p mu); the tests hold the
sum to the closed form.  Under power-law rates c k^2 the mean stays below
pi^2/(6c) however high the cap; under rates c / k^2 it is summed exactly,
as the integer sum of k^2 over c, and grows like (cap-1)^3/(3c).  T is
hypoexponential, with an explicit partial-fraction density wherever that
form is well conditioned; elsewhere P(T <= t) is the forward solution's
mass at the absorbing state.

The partial-fraction coefficients are the one O(m^2) kernel here, for m
transient states.  They are built in bands of 256 x 256 factors in one
512 KB buffer, reduced down the columns in ascending row order, and a
block of columns stops as soon as all its products have underflowed to 0.
The law's cdf and pdf fill one buffer of 32 times x states in place, block
by block of times, and take exp only where it does not underflow to 0.  On
power_law(1, 2, 2000), whose product is 73% exact zeros and whose
exponentials on the benchmark's 200 times are 98.5% zeros, the build peaks
at about 0.7 MB and one call at about 0.6 MB on 200 times, 0.8 MB on
20 000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfRange, ToleranceNotMet, require_times
from .rates import POWERLAW, YULE, RateModel, _rates, check_start, rate_vector

# Euler-Mascheroni constant, for the refined ln(N) + gamma diagnostic.
EULER_GAMMA = 0.5772156649015329

# largest roundoff kappa * 2^-52 allowed in the partial-fraction law, with
# kappa = sum |C_k|: the forward solver's own mass-defect limit
LAW_ROUNDOFF_TOL = 1e-8
# most transient states that E(T) and Var(T) are summed over: about 5 s
MAX_SUM_STATES = 1 << 30
# most states of one leaf of the sums' tree: its three rows of 256 KB fit
# in L2
_LEAF = 1 << 15
# rows of a band and columns of a block of the partial-fraction product
_BAND = 256
# times of one block of cdf and pdf: 32 x 1999 floats are 512 KB
_TIME_BLOCK = 32
# exp(x) is exactly 0.0 for every x <= _EXP_ZERO
_EXP_ZERO = -746.0


@dataclass(frozen=True)
class AbsorptionTimeReport:
    """Mean and variance of the time to reach the absorbing/cap state.

    approx_mean is the paper's approximation of E(T) from state 1, whatever
    the start state: ln(N)/(p mu) for the yule family; pi^2/(6c) for rates
    c k^2, the limit that E(T) stays below, by less than 1/(c n) with
    n = cap - 1; (cap-1)^3/(3c) for rates c / k^2, the leading term of
    E(T); None for any other model.
    """

    exact_mean: float
    # None when Var(T) overflows a float while E(T) does not
    variance: Optional[float]
    start_state: int
    time_unit: str
    approx_mean: Optional[float] = None
    # (ln(N) + gamma)/(p mu), yule family only: diagnostic explaining the
    # exact-vs-approx gap
    approx_mean_refined: Optional[float] = None


def _squares(n: int) -> int:
    """1^2 + 2^2 + ... + n^2, in exact integer arithmetic."""
    return n * (n + 1) * (2 * n + 1) // 6


def expected_absorption_time(model: RateModel,
                             start_state: int = 1) -> AbsorptionTimeReport:
    """Exact E(T) and Var(T) from start_state, as sums over the holding
    times of the states start_state, ..., absorbing - 1, with the
    approximation of AbsorptionTimeReport.approx_mean.

    For yule models the Euler-Mascheroni refinement of the approximation
    is reported too.  For rates c / k^2, E(T) is the integer sum of k^2
    over those states, divided by c.  The variance is None when it
    overflows a float, as it can for a valid model whose smallest rate is
    below about 1e-154: E(T) is still finite and reported.  From the
    absorbing state both are 0.

    Both sums are np.sum(1 / lambda) and np.sum(1 / lambda**2) over
    rate_vector(model, start_state), to the bit.  More than MAX_SUM_STATES
    transient states are refused with OutOfRange, before any sum.
    """
    absorbing = check_start(model, start_state)
    count = absorbing - start_state
    if count > MAX_SUM_STATES:
        raise OutOfRange(
            f"E(T) would sum over {count} transient states, more than "
            f"the limit of {MAX_SUM_STATES}")
    # the rows of every leaf: a leaf allocates nothing
    steps = np.arange(min(count, _LEAF), dtype=float)
    work = np.empty((2, steps.size))
    # the square of a tiny rate can underflow to 0, or its reciprocal
    # overflow: Var(T) is then inf, reported as None
    with np.errstate(divide="ignore", over="ignore"):
        exact, variance = _reciprocal_sums(model, start_state, count,
                                           steps, work)
    exact, variance = float(exact), float(variance)
    if not math.isfinite(variance):
        variance = None

    approx = refined = None
    if model.family == YULE:
        n = model.population
        p = model.transmission_prob
        mu = model.per_capita_rate
        approx = math.log(n) / (p * mu)
        refined = (math.log(n) + EULER_GAMMA) / (p * mu)
    elif model.family == POWERLAW and model.exponent == 2:
        approx = math.pi ** 2 / (6.0 * model.coefficient)
    elif model.family == POWERLAW and model.exponent == -2:
        c, n = model.coefficient, model.state_cap - 1
        exact = (_squares(n) - _squares(int(start_state) - 1)) / c
        approx = n ** 3 / (3.0 * c)
    return AbsorptionTimeReport(exact_mean=exact, variance=variance,
                                start_state=start_state,
                                time_unit=model.time_unit,
                                approx_mean=approx,
                                approx_mean_refined=refined)


def _reciprocal_sums(model, lo, n, steps, work):
    """sum 1/lambda_k and sum 1/lambda_k^2 over the n states lo, ...,
    lo + n - 1, with steps = 0, 1, 2, ... and work two rows, each of at
    least min(n, _LEAF) floats.

    numpy sums a contiguous float64 vector by pairwise_sum: a node of more
    than 128 terms splits after n2 = n // 2 - (n // 2) % 8 terms.  These
    nodes split there too, down to leaves of at most _LEAF states, so every
    leaf is a node of np.sum's tree over the whole rate vector, and np.sum
    over the leaf's own terms adds them the same way.  The leaf sums are
    added back up the same tree, so both sums are those of np.sum over
    rate_vector(model, lo), to the bit.
    """
    if n > _LEAF:
        n2 = n // 2
        n2 -= n2 % 8
        left, left_sq = _reciprocal_sums(model, lo, n2, steps, work)
        right, right_sq = _reciprocal_sums(model, lo + n2, n - n2, steps,
                                           work)
        return left + right, left_sq + right_sq
    # lo + i is exact: these are np.arange(lo, lo + n, dtype=float)
    k = np.add(steps[:n], lo, out=work[0, :n])
    rates = _rates(model, k, out=work[1, :n])
    total = np.sum(np.divide(1.0, rates, out=k))
    rates **= 2  # dispatched as rates ** 2 is
    return total, np.sum(np.divide(1.0, rates, out=rates))


@dataclass(frozen=True)
class HittingTimeDistribution:
    """Hypoexponential law of T in partial-fraction form.

    density(t) = sum_k C_k lambda_k exp(-lambda_k t) with the
    partial-fraction weights C_k = prod_{j != k} lambda_j / (lambda_j - lambda_k),
    each multiplied in ascending j order (see _partial_fractions).

    cdf and pdf take times (errors.require_times) of any shape, and return
    that shape (a numpy float64 for a scalar t).  Each fills one reused
    buffer of _TIME_BLOCK times x m states in place, block by block of
    times, exp and then the weights, and sums each row, as np.sum over
    the row of the whole t.shape + (m,) array would.
    """

    rates: np.ndarray
    coefficients: np.ndarray

    def pdf(self, t):
        return self._weighted_sum(t, self.coefficients * self.rates)

    def cdf(self, t):
        return 1.0 - self._weighted_sum(t, self.coefficients)

    def _weighted_sum(self, t, weights):
        """sum_k weights_k exp(-lambda_k t) for each time, _TIME_BLOCK
        times at a time in one times x states buffer filled in place."""
        t = require_times("t", t)
        times = t.reshape(-1)
        sums = np.empty(times.size)
        buf = np.empty((min(times.size, _TIME_BLOCK), self.rates.size))
        for lo in range(0, times.size, _TIME_BLOCK):
            block = times[lo:lo + _TIME_BLOCK]
            terms = buf[:block.size]
            np.multiply.outer(-block, self.rates, out=terms)
            # exp is slowest on the arguments whose exp is 0: leave those
            # out, then turn them to the +0.0 exp gives
            np.exp(terms, out=terms, where=terms > _EXP_ZERO)
            np.maximum(terms, 0.0, out=terms)
            terms *= weights
            terms.sum(axis=-1, out=sums[lo:lo + block.size])
        return sums.reshape(t.shape)[()]

    def implied_mean(self) -> float:
        """Mean from the partial-fraction form, sum of C_k / lambda_k.

        The terms alternate in sign and can be large, so they are summed
        exactly rather than pairwise.
        """
        return math.fsum((self.coefficients / self.rates).tolist())


def hitting_time_distribution(model: RateModel,
                              start_state: int = 1) -> HittingTimeDistribution:
    """Closed-form law of the absorption time from start_state.  From the
    absorbing state T = 0: the cdf is 1 and the pdf 0 at every time.

    ToleranceNotMet refuses two kinds of law.  Repeated rates (the mixing
    families always repeat from start_state 1, by the k(N-k) symmetry)
    have no partial-fraction form, and are refused before the O(m^2)
    product.  Otherwise the refusal is by conditioning: when the
    alternating sum over the coefficients could lose more than
    LAW_ROUNDOFF_TOL to roundoff (about kappa = sum |C_k| ulps of 1), as it
    does for close rates.  That is checked block by block of the product,
    and a block whose products overflow stops there, so a refusal costs at
    most one block.  Callers should then use the forward solver: the cdf
    is forward_probabilities(model, start_state, t).probabilities[-1].
    """
    rates = rate_vector(model, start_state)
    return HittingTimeDistribution(rates=rates,
                                   coefficients=_partial_fractions(rates))


def _partial_fractions(rates):
    """C_k = prod_{j != k} lambda_j / (lambda_j - lambda_k), a block of
    _BAND columns k at a time, down the rows j in bands of _BAND rows, in
    one _BAND x _BAND buffer (512 KB).

    Band (rows j, columns k) holds lambda_j / (lambda_j - lambda_k), with a
    factor 1 in place of j = k.  Each column's running product over the
    bands above is multiplied into the band's first row, and
    np.multiply.reduce takes all the columns of the band down its rows at
    once: each C_k is still multiplied in ascending j order, the order of
    np.prod over lambda_j / (lambda_j - lambda_k) for j != k, and so is the
    same to the bit.

    The rates are distinct (a repeated rate is refused up front), so every
    factor is finite and nonzero but for an underflow to -0.  Once all
    running products of a block are exactly 0, the rows left over change
    only their signs, one flip per remaining lambda_j < lambda_k, the sign
    of its factor: the block stops there and takes those flips.  A block
    stops too once one of its products is inf or nan, which it stays.
    kappa = sum |C_k| is summed as the blocks come, and checked after
    each, so such a block is refused.
    """
    ordered = np.sort(rates)
    if (ordered[1:] == ordered[:-1]).any():
        raise ToleranceNotMet(
            "the partial-fraction law needs distinct rates, and these "
            "repeat; use forward_probabilities(...).probabilities[-1] "
            "for P(T <= t)")
    m = rates.size
    buf = np.empty(_BAND * _BAND)
    coeffs = np.empty(m)
    kappa = 0.0
    # close rates overflow the product, and inf times an underflowed -0 is
    # nan: each fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, _BAND):
            cols = rates[lo:lo + _BAND]
            carry = coeffs[lo:lo + cols.size]
            carry[:] = 1.0
            # the band at top == lo is square, with j = k on its diagonal
            diagonal = buf[:cols.size ** 2:cols.size + 1]
            for top in range(0, m, _BAND):
                rows = rates[top:top + _BAND]
                band = buf[:rows.size * cols.size].reshape(rows.size, -1)
                # a copy and an in-place subtract beat one doubly broadcast
                # subtract, with the same values
                np.copyto(band, rows[:, None])
                band -= cols
                if top == lo:
                    diagonal[:] = cols  # lambda_k / lambda_k is exactly 1
                np.divide(rows[:, None], band, out=band)
                band[0] *= carry
                np.multiply.reduce(band, axis=0, out=carry)
                if not carry.any():
                    rest = np.sort(rates[top + _BAND:])
                    flips = np.searchsorted(rest, cols)
                    np.negative(carry, out=carry, where=flips % 2 == 1)
                    break
                if not np.isfinite(carry).all():
                    break  # an inf or nan stays one: refused below
            kappa += float(np.sum(np.abs(carry)))
            if not kappa * 2.0 ** -52 <= LAW_ROUNDOFF_TOL:
                raise ToleranceNotMet(
                    "the partial-fraction law is ill-conditioned (sum "
                    f"|C_k| >= {kappa:.3e}); use forward_probabilities"
                    "(...).probabilities[-1] for P(T <= t)")
    return coeffs
