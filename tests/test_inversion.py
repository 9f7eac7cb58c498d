"""Euler inversion of the forward transforms, and the rule that picks it."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purebirth import (SolverConfig, ToleranceNotMet, expected_absorption_time,
                       forward_grid, forward_probabilities,
                       hitting_time_distribution,
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


@pytest.mark.parametrize("cap, t", [(3, 3e6), (10, 9e5)])
def test_few_states_at_long_times_take_inversion(cap, t):
    # a uniformization step costs about 4 us however few the states: these
    # took 8.9 s and 3.2 s by about 3e6 and 9e5 steps
    model = power_law(1.0, -100.0, cap)
    start = time.perf_counter()
    snap = forward_probabilities(model, 1, t)
    assert time.perf_counter() - start < 0.1
    assert snap.scheme == INVERSION_SCHEME
    # state 2 is entered at once and left at rate 2^-100
    np.testing.assert_allclose(snap.probabilities, np.eye(cap)[1],
                               rtol=0, atol=DEFAULT_TOL)


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



TOURNAMENT = yule_scaled(2000, 1.0, 0.31)
CRUISE = yule_scaled(6700, 3.0, 0.31)


def uniformization_work(model, t, abs_tol=DEFAULT_TOL):
    """forward._solve's estimate of a call's uniformization state-steps."""
    lam = np.append(rate_vector(model), 0.0)
    steps = forward._uniformization_steps(lam[:-1], np.array([lam.max() * t]),
                                          abs_tol)
    return steps * (lam.size + forward.STEP_OVERHEAD)


@pytest.mark.parametrize("model, t, abs_tol, reached", [
    # inversion misses (7.4e-7), and the parent ran about 1e9 steps: hours
    (power_law(1.0, -2.0, 2000), 1e9, DEFAULT_TOL,
     ", and inversion reached abs_tol 7.44e-07"),
    # below INVERSION_BOUND only uniformization may run: about 1e9 steps
    (power_law(1.0, -100.0, 3), 1e9, 1e-12, ""),
], ids=["power_law-2-t1e9", "power_law-100-abs_tol1e-12"])
def test_past_the_budget_is_refused_at_once(monkeypatch, model, t, abs_tol,
                                            reached):
    def never(*args):
        raise AssertionError("uniformization ran")

    monkeypatch.setattr(forward, "_uniformize", never)
    work = uniformization_work(model, t, abs_tol)
    assert work > 100 * forward.UNIFORMIZATION_BUDGET
    began = time.perf_counter()
    with pytest.raises(ToleranceNotMet) as refused:
        forward_probabilities(model, 1, t, SolverConfig(abs_tol))
    assert time.perf_counter() - began < 1.0
    assert str(refused.value) == (
        f"uniformization would take about {work:.2e} state-steps, over the "
        f"budget of 1e+10{reached}")


def test_the_budget_is_about_half_a_minute():
    # 2-3 ns a state-step; the costliest call the tests and the benchmark
    # leave to uniformization is about 2e7, and the cruise at 3 E(T) 7.7e8
    assert forward.UNIFORMIZATION_BUDGET == 1e10
    cruise_mean = expected_absorption_time(CRUISE).exact_mean
    assert uniformization_work(CRUISE, 3.0 * cruise_mean) < \
        0.1 * forward.UNIFORMIZATION_BUDGET


def test_the_budget_refuses_only_past_it(monkeypatch):
    model = power_law(1.0, -100.0, 3)
    tight = SolverConfig(1e-12)
    work = uniformization_work(model, 1e4, 1e-12)
    monkeypatch.setattr(forward, "UNIFORMIZATION_BUDGET", work)
    assert forward_probabilities(model, 1, 1e4, tight).scheme == \
        FORWARD_SCHEME
    monkeypatch.setattr(forward, "UNIFORMIZATION_BUDGET", 0.999 * work)
    with pytest.raises(ToleranceNotMet, match="^uniformization "):
        forward_probabilities(model, 1, 1e4, tight)


@pytest.mark.parametrize("model, mean_times", [(TOURNAMENT, 2.0),
                                               (CRUISE, 0.9)],
                         ids=["tournament-2ET", "cruise-0.9ET"])
def test_the_paper_scenarios_keep_their_uniformization(model, mean_times):
    # inversion misses at 71 nodes here, and uniformization still runs,
    # well within the budget, with the same rows as before it
    t = mean_times * expected_absorption_time(model).exact_mean
    assert uniformization_work(model, t) < 0.1 * forward.UNIFORMIZATION_BUDGET
    snap = forward_probabilities(model, 1, t)
    assert snap.scheme == FORWARD_SCHEME
    rates = rate_vector(model)
    jump = np.append(rates, 0.0) / rates.max()
    row = forward._uniformize(jump, np.array([rates.max() * t]),
                              DEFAULT_TOL)[0]
    assert snap.probabilities.tobytes() == np.clip(row, 0.0, 1.0).tobytes()
