"""Euler inversion of the forward transforms, and the rule that picks it."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purebirth import (SolverConfig, forward_grid,
                       forward_probabilities, hitting_time_distribution,
                       hypergeometric_mixing, power_law, rate_vector,
                       yule_scaled)
from purebirth import forward
from purebirth.forward import (FORWARD_SCHEME, INVERSION_BOUND,
                               INVERSION_SCHEME, MASS_DEFECT_TOL)

DEFAULT_TOL = SolverConfig().abs_tol


def geometric_law(t, cap):
    # rates lambda_k = k from state 1: P(X_t = j) = e^{-t} (1 - e^{-t})^{j-1}
    # below the cap, which collects the rest
    q = 1.0 - math.exp(-t)
    j = np.arange(1, cap)
    return np.append(math.exp(-t) * q ** (j - 1), q ** (cap - 1))


def test_geometric_law_by_inversion():
    times = [0.5, 2.0, 5.0]
    snaps = forward_grid(power_law(1.0, 1.0, 2000), 1, times)
    for t, snap in zip(times, snaps):
        assert snap.scheme == INVERSION_SCHEME
        error = np.abs(snap.probabilities - geometric_law(t, 2000)).max()
        assert error <= DEFAULT_TOL
        assert snap.mass_defect <= MASS_DEFECT_TOL


def test_stiff_power_law_is_fast_and_matches_the_law_of_t():
    # Lambda t is about 4e6 here: uniformization took 31 s
    model = power_law(1.0, 2.0, 2000)
    start = time.perf_counter()
    snap = forward_probabilities(model, 1, 1.0)
    assert time.perf_counter() - start < 1.0
    assert snap.scheme == INVERSION_SCHEME
    # the partial-fraction law is well conditioned here (sum |C_k| = 78)
    law = hitting_time_distribution(model)
    assert snap.probabilities[-1] == pytest.approx(float(law.cdf(1.0)),
                                                   abs=1e-10)


models = st.one_of(
    st.builds(hypergeometric_mixing, st.integers(2, 40),
              st.floats(0.1, 5.0), st.floats(0.05, 1.0)),
    st.builds(yule_scaled, st.integers(2, 40), st.floats(0.1, 3.0),
              st.floats(0.05, 1.0)),
    st.builds(power_law, st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
              st.integers(2, 40)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=models, times=st.lists(st.floats(0.01, 50.0), min_size=1,
                                    max_size=6), data=st.data())
def test_property_kernel_agrees_with_uniformization(model, times, data):
    start = data.draw(st.integers(1, model.absorbing_state - 1),
                      label="start")
    rows, estimate = forward._invert(rate_vector(model, start),
                                     np.array(times))
    reference = forward_grid(model, start, times, SolverConfig(abs_tol=1e-14))
    for row, snap in zip(rows, reference):
        assert snap.scheme == FORWARD_SCHEME
        assert np.abs(row - snap.probabilities).max() <= DEFAULT_TOL
        assert abs(1.0 - math.fsum(row)) <= MASS_DEFECT_TOL
        assert row.min() >= -10.0 * DEFAULT_TOL
    assert (estimate + INVERSION_BOUND <= DEFAULT_TOL).all()


def test_abs_tol_below_the_inversion_bound_keeps_uniformization(
        monkeypatch):
    model = yule_scaled(2000, 1.0, 0.31)
    calls = []
    invert = forward._invert
    monkeypatch.setattr(forward, "_invert",
                        lambda *args: calls.append(args) or invert(*args))
    assert forward_probabilities(model, 1, 20.0).scheme == INVERSION_SCHEME
    assert len(calls) == 1
    tight = SolverConfig(abs_tol=0.5 * INVERSION_BOUND)
    assert forward_probabilities(model, 1, 20.0, tight).scheme == \
        FORWARD_SCHEME
    assert len(calls) == 1    # inversion was not even tried


def test_missed_estimate_falls_back_to_uniformization(monkeypatch):
    rates = rate_vector(yule_scaled(2000, 1.0, 0.31))
    times = np.array([5.0, 20.0])
    calls = []

    def missing(rates, ts):
        calls.append(ts)
        return np.zeros((ts.size, rates.size + 1)), np.full(ts.size, 1.0)

    monkeypatch.setattr(forward, "_invert", missing)
    snaps = forward_grid(yule_scaled(2000, 1.0, 0.31), 1, times)
    assert len(calls) == 1
    big = rates.max()
    reference = forward._uniformize(np.append(rates, 0.0) / big, big * times,
                                    DEFAULT_TOL)
    for snap, ref in zip(snaps, reference):
        assert snap.scheme == FORWARD_SCHEME
        assert (snap.probabilities == np.clip(ref, 0.0, 1.0)).all()


@pytest.mark.parametrize("model, times", [
    (hypergeometric_mixing(10, 1.0, 0.31), [1e9]),   # drained long before
    (hypergeometric_mixing(50, 1.0, 0.31), [10.0, 50.0, 100.0]),
    (power_law(1.0, 1.0, 200), [0.1, 0.5, 1.0, 2.0]),
    (power_law(1.0, -400.0, 10), [1e4]),              # a rate of 0
])
def test_cheap_or_unsuited_cases_keep_uniformization(model, times):
    for snap in forward_grid(model, 1, times):
        assert snap.scheme == FORWARD_SCHEME


def test_working_set_no_larger_than_uniformization():
    rates = rate_vector(yule_scaled(2000, 1.0, 0.31))
    times = np.array([5.0, 10.0, 20.0])
    jump = np.append(rates, 0.0) / rates.max()
    peaks = []
    for solve in (lambda: forward._invert(rates, times),
                  lambda: forward._uniformize(jump, rates.max() * times,
                                              DEFAULT_TOL)):
        tracemalloc.start()
        solve()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= peaks[1]

