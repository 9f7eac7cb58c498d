"""Reference values the benchmark checks the library's outputs against.

Each oracle is computed here from the model's definition, without calling
the code under test, except the Monte Carlo TV reference, which is the
library's own forward solution by design (MC and forward must agree).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

# probability that a correct Monte Carlo estimate fails one check
MC_FALSE_ALARM = 1e-9
# |z| beyond which a sample mean is rejected: two-sided normal tail of
# MC_FALSE_ALARM; the replicate counts used (>= 10^2) keep the sample mean
# of a sum of exponentials close to normal
Z_LIMIT = 6.1


def mixing_rates(n, contact_rate, p, start=1):
    """Rates 2 k (N-k) lambda p / (N (N-1)) for k = start..N-1."""
    k = np.arange(start, n, dtype=float)
    return 2.0 * k * (n - k) * contact_rate * p / (n * (n - 1.0))


def power_rates(c, exponent, cap, start=1):
    k = np.arange(start, cap, dtype=float)
    return c * k ** exponent


def absorption_moments(rates):
    """(E(T), Var(T)) for a sum of independent exponentials, by fsum."""
    return (math.fsum((1.0 / rates).tolist()),
            math.fsum((1.0 / rates ** 2).tolist()))


def uniformized_distribution(rates, times):
    """P(X_t = start + i) at each time, by uniformization of the chain.

    ``rates`` are the transient rates; the last state absorbs.  The result
    is non-negative by construction; Poisson weights are taken in log space
    and the sum is truncated 12 standard deviations past the mean count.
    """
    rates = np.asarray(rates, dtype=float)
    m = rates.size + 1
    lam = np.append(rates, 0.0)
    big = float(rates.max())
    times = np.asarray(times, dtype=float)
    out = np.zeros((times.size, m))
    mean_counts = big * times
    n_max = int(mean_counts.max() + 12.0 * math.sqrt(mean_counts.max()) + 50)
    counts = np.arange(n_max + 1, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = (-mean_counts[:, None]
                 + counts[None, :] * np.log(mean_counts)[:, None]
                 - gammaln(counts + 1.0)[None, :])
    log_w[mean_counts == 0.0] = -np.inf
    log_w[mean_counts == 0.0, 0] = 0.0
    weights = np.exp(log_w)
    # terms below this weight change no probability by more than 1e-14
    useful = weights.max(axis=0) > 1e-18 / (n_max + 1)
    stay = 1.0 - lam / big
    move = lam[:-1] / big
    v = np.zeros(m)
    v[0] = 1.0
    for n in range(n_max + 1):
        if useful[n]:
            out += weights[:, n, None] * v[None, :]
        nxt = stay * v
        nxt[1:] += move * v[:-1]
        v = nxt
    return out


def yule_geometric_law(t, cap):
    """P(X_t = k), k = 1..cap, for rates k (c = 1) from state 1: geometric
    with success probability e^{-t}, the tail collected at the cap."""
    q = math.exp(-t)
    k = np.arange(1, cap, dtype=float)
    body = q * (1.0 - q) ** (k - 1.0)
    return np.append(body, (1.0 - q) ** (cap - 1))


def tv_limit(probabilities, replicates):
    """Largest total-variation distance between an empirical histogram of
    ``replicates`` draws and its true law ``probabilities`` that a correct
    sampler exceeds with probability at most MC_FALSE_ALARM.

    E|p_hat - p| <= sqrt(p (1-p) / n) bounds the mean; one replicate moves
    TV by at most 1/n, so McDiarmid's inequality adds
    sqrt(ln(1/alarm) / (2 n)).
    """
    p = np.clip(np.asarray(probabilities, dtype=float), 0.0, 1.0)
    mean_bound = 0.5 * float(np.sqrt(p * (1.0 - p) / replicates).sum())
    return mean_bound + math.sqrt(math.log(1.0 / MC_FALSE_ALARM)
                                  / (2.0 * replicates))


def z_score(sample_mean, mean, variance, replicates):
    return (sample_mean - mean) / math.sqrt(variance / replicates)
