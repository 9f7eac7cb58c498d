import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purebirth import (OutOfRange, SolverConfig, StateOutOfRange,
                       ToleranceNotMet, expected_absorption_time,
                       forward_grid,
                       forward_probabilities,
                       hitting_time_distribution, hypergeometric_mixing,
                       mean_state, power_law, yule_scaled)
from purebirth import forward
from purebirth.forward import DistributionSnapshot
from scalar_oracles import rate_at


def linear_model(cap):
    # pure-birth chain with lambda_k = k; the test instance with a
    # geometric closed form P_{1,j}(t) = e^{-t} (1 - e^{-t})^{j-1}
    return power_law(1.0, 1.0, cap)


def geometric_law(t, states):
    q = 1.0 - math.exp(-t)
    return np.array([math.exp(-t) * q ** (j - 1) for j in states])


def test_geometric_formula_against_grid_convolution():
    # independent verification of the closed form for j <= 4: build the
    # density of each stage sum by direct numerical convolution
    from scipy.signal import fftconvolve

    dt = 2e-5
    grid = np.arange(0.0, 8.0, dt)
    cdfs = []  # cdfs[j-1] = P(time to leave state j via stages 1..j <= t)
    density = None
    for j in range(1, 5):
        stage = j * np.exp(-j * grid)
        if density is None:
            density = stage
        else:
            density = fftconvolve(density, stage)[:len(grid)] * dt
        cdfs.append(np.cumsum(density) * dt)
    for t in (0.5, 1.0, 2.0):
        idx = int(round(t / dt))
        for j in (1, 2, 3, 4):
            occupancy = (1.0 if j == 1 else cdfs[j - 2][idx]) - cdfs[j - 1][idx]
            expected = math.exp(-t) * (1.0 - math.exp(-t)) ** (j - 1)
            assert occupancy == pytest.approx(expected, abs=1e-4)


class TestForwardProbabilities:
    def test_initial_condition_is_point_mass(self):
        for model in (hypergeometric_mixing(6, 1.0, 0.5), linear_model(10)):
            snap = forward_probabilities(model, 2, 0.0)
            assert snap.probability_of(2) == 1.0
            assert snap.probabilities.sum() == 1.0
            assert snap.mass_defect == 0.0

    def test_single_stage_survival(self):
        model = linear_model(50)
        for t in (0.1, 0.7, 2.0):
            snap = forward_probabilities(model, 1, t)
            assert snap.probability_of(1) == pytest.approx(math.exp(-t),
                                                           abs=1e-8)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_geometric_closed_form(self, t):
        model = linear_model(200)
        snap = forward_probabilities(model, 1, t)
        oracle = geometric_law(t, range(1, 200))
        sup = np.abs(snap.probabilities[:-1] - oracle).max()
        assert sup <= 1e-6
        assert snap.mass_defect <= 1e-8

    def test_states_below_start_have_no_mass(self):
        snap = forward_probabilities(hypergeometric_mixing(8, 1.0, 1.0), 3, 0.9)
        assert snap.states[0] == 3  # the vector simply starts at start_state

    def test_grid_preserves_request_order(self):
        model = linear_model(20)
        times = [1.0, 0.0, 0.5]
        snaps = forward_grid(model, 1, times)
        assert [s.time for s in snaps] == times
        assert snaps[1].probability_of(1) == 1.0

    def test_invalid_inputs(self):
        model = linear_model(10)
        with pytest.raises(StateOutOfRange):
            forward_probabilities(model, 11, 1.0)
        with pytest.raises(ValueError):
            forward_probabilities(model, 1, -0.5)
        for tol in (-1.0, 0.0, 1e-320, 1.0, math.nan):
            with pytest.raises(ValueError):
                SolverConfig(abs_tol=tol)

    @pytest.mark.parametrize("tol", ["a", None])
    def test_abs_tol_must_be_a_number(self, tol):
        # both raised a TypeError
        with pytest.raises(OutOfRange, match="abs_tol must be a finite "):
            SolverConfig(abs_tol=tol)

    @pytest.mark.parametrize("tol", [1e-8, np.float64(1e-8), np.float32(0.5)])
    def test_abs_tol_of_any_real_type_accepted(self, tol):
        assert SolverConfig(abs_tol=tol).abs_tol == tol

    @pytest.mark.parametrize("times", [5.0, np.array(5.0)])
    def test_grid_takes_a_1d_sequence(self, times):
        # a scalar raised "iteration over a 0-d array"
        with pytest.raises(OutOfRange, match="1-d sequence"):
            forward_grid(linear_model(10), 1, times)

    @pytest.mark.parametrize("times", [
        np.array([0.5, 2.0, 9.0]), [1, 2, 9], np.array([1, 2, 9]),
        np.array([0.5, 2.0, 9.0], dtype=np.float32),
        [np.float64(0.5), np.int64(2), np.float32(9.0)]],
        ids=["float64", "int", "int64", "float32", "mixed"])
    def test_times_of_any_numeric_type_give_the_same_values(self, times):
        # each solves the float64 times np.asarray(times, dtype=float), as
        # before, with Python float snapshot times
        model = hypergeometric_mixing(12, 1.0, 0.5)
        expected = np.asarray(times, dtype=float)
        snaps = forward_grid(model, 1, times)
        reference = forward_grid(model, 1, expected.tolist())
        assert [s.time for s in snaps] == expected.tolist()
        assert all(type(s.time) is float for s in snaps)
        for snap, ref in zip(snaps, reference):
            assert snap.probabilities.tobytes() == ref.probabilities.tobytes()
            assert snap.mass_defect == ref.mass_defect

    @pytest.mark.parametrize("start", [0, 11])
    def test_bad_start_raises_without_times(self, start):
        with pytest.raises(StateOutOfRange, match=f"start_state {start} "):
            forward_grid(linear_model(10), start, [])

    def test_conservation_across_models(self):
        models = [hypergeometric_mixing(40, 1.0, 0.31),
                  power_law(1.0, 2.0, 30),
                  power_law(1.0, -2.0, 15)]
        for model in models:
            mean = expected_absorption_time(model).exact_mean
            for t in (0.1 * mean, mean, 3.0 * mean):
                snap = forward_probabilities(model, 1, t)
                assert snap.mass_defect <= 1e-8

    def test_repeat_runs_are_bitwise_identical(self):
        model = hypergeometric_mixing(12, 1.0, 0.5)
        for config in (None, SolverConfig(abs_tol=1e-6)):
            a = forward_grid(model, 1, [0.5, 2.0, 9.0], config)
            b = forward_grid(model, 1, [0.5, 2.0, 9.0], config)
            for x, y in zip(a, b):
                assert (x.probabilities == y.probabilities).all()
                assert x.mass_defect == y.mass_defect

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        model = linear_model(10)
        with pytest.raises(OutOfRange):
            forward_probabilities(model, 1, t)
        with pytest.raises(OutOfRange):
            forward_grid(model, 1, [1.0, t])

    def test_time_overflowing_the_step_count_rejected(self):
        with pytest.raises(OutOfRange):
            forward_probabilities(power_law(1e300, 1.0, 10), 1, 1e10)

    def test_huge_time_finishes_fast_and_is_absorbed(self):
        model = hypergeometric_mixing(10, 1.0, 0.31)
        start = time.perf_counter()
        snap = forward_probabilities(model, 1, 1e9)
        assert time.perf_counter() - start < 1.0
        assert snap.probabilities[-1] == pytest.approx(1.0, abs=1e-10)
        assert snap.mass_defect <= 1e-12

    def test_abs_tol_bounds_the_error(self):
        # loose tolerances cut the sum early; the error stays within abs_tol
        model = hypergeometric_mixing(30, 1.0, 0.31)
        times = [0.5, 5.0, 20.0, 80.0]
        tight = forward_grid(model, 1, times, SolverConfig(abs_tol=1e-14))
        for tol in (1e-3, 1e-6):
            loose = forward_grid(model, 1, times, SolverConfig(abs_tol=tol))
            for a, b in zip(tight, loose):
                assert np.abs(a.probabilities - b.probabilities).max() <= tol
                assert b.mass_defect <= 1e-12

    # neither check fires on a working solver, so a solution row is
    # planted in its place
    @pytest.mark.parametrize("row, message", [
        ([0.5, 0.4999, 0.0],
         r"^probability mass defect 1\.000e-04 at t=2\.0$"),
        ([0.6, 0.5, -0.1], r"^negative probability -1\.000e-01 at t=2\.0 "
                           r"exceeds roundoff floor$"),
    ], ids=["mass-defect", "negative"])
    def test_a_solution_off_its_tolerance_is_refused(self, monkeypatch, row,
                                                     message):
        def solve(lam, times, counts, abs_tol):
            return np.array([row]), forward.FORWARD_SCHEME

        monkeypatch.setattr(forward, "_solve", solve)
        with pytest.raises(ToleranceNotMet, match=message):
            forward_probabilities(linear_model(3), 1, 2.0)


class TestMeanState:
    def test_point_mass(self):
        snap = forward_probabilities(hypergeometric_mixing(4, 1, 1), 1, 0.0)
        assert mean_state(snap) == 1.0

    def test_uniform_over_two_states(self):
        snap = DistributionSnapshot(time=0.0, states=np.array([1, 2]),
                                    probabilities=np.array([0.5, 0.5]),
                                    mass_defect=0.0)
        assert mean_state(snap) == 1.5

    def test_linear_rates_grow_exponentially(self):
        # under lambda_k = k the mean number infected is e^t
        snap = forward_probabilities(linear_model(400), 1, 1.0)
        assert mean_state(snap) == pytest.approx(math.e, rel=1e-6)


def absorbed(model, start, t):
    """P(T <= t), the forward solution's mass at the absorbing state."""
    return float(forward_probabilities(model, start, t).probabilities[-1])


class TestAbsorptionProbability:
    def test_zero_at_time_zero(self):
        assert absorbed(hypergeometric_mixing(5, 1, 1), 1, 0.0) \
            == 0.0

    def test_single_stage_cdf(self):
        model = hypergeometric_mixing(2, 1.0, 1.0)
        assert absorbed(model, 1, math.log(2.0)) == \
            pytest.approx(0.5, abs=1e-8)
        for t in (0.25, 1.0, 3.0):
            assert absorbed(model, 1, t) == \
                pytest.approx(1.0 - math.exp(-t), abs=1e-8)

    def test_tail_is_nearly_absorbed(self):
        model = hypergeometric_mixing(6, 1.0, 0.5)
        mean = expected_absorption_time(model).exact_mean
        assert absorbed(model, 1, 50.0 * mean) >= 1.0 - 1e-3

    def test_nondecreasing_in_time(self):
        model = hypergeometric_mixing(10, 1.0, 0.31)
        mean = expected_absorption_time(model).exact_mean
        grid = np.linspace(0.0, 4.0 * mean, 25)
        values = [absorbed(model, 1, t) for t in grid]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_hypoexponential_cross_check(self):
        model = power_law(1.0, 1.0, 25)  # distinct rates 1..24
        dist = hitting_time_distribution(model)
        for t in (0.5, 1.0, 2.0, 4.0):
            assert absorbed(model, 1, t) == \
                pytest.approx(float(dist.cdf(t)), abs=1e-6)

    def test_mean_from_survival_quadrature(self):
        # E(T) = integral of P(T > t); trapezoid on a fine grid out to the
        # far tail must match the analytic sum of reciprocal rates
        for model in (hypergeometric_mixing(8, 1.0, 0.5),
                      hypergeometric_mixing(20, 2.0, 0.31)):
            exact = expected_absorption_time(model).exact_mean
            grid = np.linspace(0.0, 50.0 * exact, 4001)
            snaps = forward_grid(model, 1, grid)
            survival = np.array([1.0 - s.probabilities[-1] for s in snaps])
            # the trapezoid rule written out: np.trapezoid is numpy 2.0+
            integral = float(np.sum((survival[1:] + survival[:-1])
                                    * np.diff(grid)) / 2.0)
            assert integral == pytest.approx(exact, rel=1e-3)


def test_powerlaw_cap_collects_escaping_mass():
    # quadratic rates explode: by t = pi^2/6 most mass sits at the cap
    model = power_law(1.0, 2.0, 40)
    snap = forward_probabilities(model, 1, math.pi ** 2 / 6.0)
    assert snap.probabilities[-1] > 0.4
    assert snap.mass_defect <= 1e-8


@pytest.mark.parametrize("mean", [0.3, 40.0, 2.5e5, 1e8])
def test_poisson_weights_keep_full_accuracy(mean):
    # -a + n ln a - lgamma(n + 1) loses 1.6e-10 of the total weight at
    # a = 2.5e5 and 1e-7 at a = 1e8; the saddle-point form keeps it
    from purebirth.forward import _log_poisson

    half = 14.0 * math.sqrt(mean) + 60.0
    n = np.arange(max(0, int(mean - half)), int(mean + half))
    weights = np.exp(_log_poisson(n, np.array([mean]))[0])
    assert math.fsum(weights) == pytest.approx(1.0, abs=1e-13)
    assert math.fsum(weights * n) == pytest.approx(mean, rel=1e-13)
    small = n[n < 150]
    direct = [math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1.0))
              for k in small]
    np.testing.assert_allclose(weights[:small.size], direct, rtol=1e-12,
                               atol=1e-300)


def rk45_reference(model, start, times):
    """Forward distribution by scipy's RK45 on the same bidiagonal system:
    an oracle independent of the uniformization sum."""
    from scipy.integrate import solve_ivp

    lam = np.array([rate_at(model, k)
                    for k in range(start, model.absorbing_state + 1)])

    def rhs(_t, y):
        out = -lam * y
        out[1:] += lam[:-1] * y[:-1]
        return out

    y0 = np.zeros(lam.size)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, max(times)), y0, method="RK45",
                    t_eval=times, rtol=1e-8, atol=1e-10)
    assert sol.success
    return sol.y.T


@pytest.mark.parametrize("model", [
    hypergeometric_mixing(12, 1.0, 0.5),
    hypergeometric_mixing(30, 2.0, 0.31),
    yule_scaled(25, 1.0, 0.31),
    power_law(1.0, 2.0, 15),
    power_law(0.5, -1.0, 12),
], ids=["hyper12", "hyper30", "yule25", "square15", "inverse12"])
def test_matches_rk45_oracle(model):
    mean = expected_absorption_time(model).exact_mean
    times = [0.05 * mean, 0.5 * mean, mean, 3.0 * mean]
    reference = rk45_reference(model, 1, times)
    for snap, ref in zip(forward_grid(model, 1, times), reference):
        assert np.abs(snap.probabilities - ref).max() <= 1e-8


models = st.one_of(
    st.builds(hypergeometric_mixing, st.integers(2, 40),
              st.floats(0.1, 5.0), st.floats(0.05, 1.0)),
    st.builds(yule_scaled, st.integers(2, 40), st.floats(0.1, 3.0),
              st.floats(0.05, 1.0)),
    st.builds(power_law, st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
              st.integers(2, 40)))
time_grids = st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=models, times=time_grids, data=st.data())
def test_property_mass_is_conserved(model, times, data):
    start = data.draw(st.integers(1, model.absorbing_state), label="start")
    for snap in forward_grid(model, start, times):
        assert snap.mass_defect <= 1e-12
        assert (snap.probabilities >= 0.0).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=models, times=time_grids)
def test_property_absorption_never_decreases(model, times):
    times = sorted(times)
    absorbed = [s.probabilities[-1] for s in forward_grid(model, 1, times)]
    # roundoff grows with the number of blocks summed, up to about 1e3 here
    assert all(b >= a - 1e-12 for a, b in zip(absorbed, absorbed[1:]))


def test_import_loads_no_scipy():
    import purebirth

    code = ("import sys, purebirth, purebirth.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=str(
        pathlib.Path(purebirth.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
