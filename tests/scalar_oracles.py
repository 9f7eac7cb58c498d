"""Scalar oracles the tests hold the library to, written from the formulas
of the paper rather than imported from purebirth: one state, or one term,
at a time in Python floats."""

import math


def rate_at(model, k):
    """lambda_k of the model's family in state k; zero at the absorbing/cap
    state.  The mixing rate takes the operations of the library's rate
    vector in the same order, so the two agree bitwise; a power law's
    Python ``**`` may differ from numpy's power by 1 ulp."""
    if k == model.absorbing_state:
        return 0.0
    if model.family == "powerlaw":
        return model.coefficient * float(k) ** model.exponent
    n = model.population
    if model.family == "yule":
        lam = n * model.per_capita_rate
    else:
        lam = model.contact_rate
    return 2.0 * k * (n - k) * lam * model.transmission_prob / (n * (n - 1.0))


def rate_list(model, start=1):
    """rate_at of the states start, ..., absorbing - 1."""
    return [rate_at(model, k) for k in range(start, model.absorbing_state)]


def harmonic(n):
    """H_n = sum of 1/k for k = 1..n, by compensated summation."""
    return math.fsum(1.0 / k for k in range(1, n + 1))
