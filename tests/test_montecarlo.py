import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purebirth import montecarlo
from purebirth import (OutOfRange, StateOutOfRange, WrongFamily,
                       empirical_distribution_at, estimate_absorption_time,
                       expected_absorption_time, explosion_study,
                       forward_probabilities, hypergeometric_mixing,
                       power_law, powerlaw_expected_time, replicate_stream,
                       simulate_path, yule_scaled)
from purebirth.montecarlo import _simulate_ensemble, event_time_blocks
from purebirth.rates import rate_vector

SEED = 123


def check_trajectory(path, model, start):
    times = [t for t, _ in path.events]
    states = [s for _, s in path.events]
    assert path.events[0] == (0.0, start)
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(b == a + 1 for a, b in zip(states, states[1:]))
    assert states[-1] == model.absorbing_state
    assert path.terminal_time == times[-1]


class TestSimulatePath:
    def test_two_individuals_single_jump(self):
        model = hypergeometric_mixing(2, 1.0, 1.0)
        path = simulate_path(model, 1, replicate_stream(SEED, 0))
        assert len(path.events) == 2
        assert path.events[0] == (0.0, 1)
        assert path.events[1][1] == 2
        assert path.terminal_time > 0.0

    def test_degenerate_start_at_absorbing_state(self):
        model = hypergeometric_mixing(5, 1.0, 1.0)
        path = simulate_path(model, 5, replicate_stream(SEED, 0))
        assert path.events == [(0.0, 5)]
        assert path.terminal_time == 0.0

    @pytest.mark.parametrize("model", [
        hypergeometric_mixing(7, 1.0, 0.31),
        power_law(1.0, 2.0, 12),
        power_law(1.0, -2.0, 8),
    ])
    def test_path_invariants(self, model):
        for i in range(200):
            path = simulate_path(model, 1, replicate_stream(SEED, i))
            check_trajectory(path, model, 1)

    def test_mean_terminal_time(self):
        model = hypergeometric_mixing(3, 1.0, 1.0)
        summary = estimate_absorption_time(model, 1, 10 ** 5, SEED)
        assert abs(summary.mean - 3.0) < 3.0 * summary.std_error

    def test_start_state_validated(self):
        with pytest.raises(StateOutOfRange):
            simulate_path(hypergeometric_mixing(4, 1, 1), 5,
                          replicate_stream(SEED, 0))


class TestEstimateAbsorptionTime:
    def test_single_unit_rate_stage(self):
        model = hypergeometric_mixing(2, 2.0, 0.5)  # lambda_1 = 1
        summary = estimate_absorption_time(model, 1, 10 ** 5, SEED)
        assert abs(summary.mean - 1.0) < 3.0 * summary.std_error

    def test_regression_pin_two_replicates(self):
        model = hypergeometric_mixing(3, 1.0, 1.0)
        summary = estimate_absorption_time(model, 1, 2, 20240101)
        assert summary.mean == 6.9218116535881995
        assert summary.std_error == 3.2088365434585815
        assert summary.quantiles[0.5] == 6.9218116535881995

    def test_reproducible_across_runs_and_schedules(self):
        model = hypergeometric_mixing(10, 1.0, 0.31)
        serial = estimate_absorption_time(model, 1, 4000, SEED)
        again = estimate_absorption_time(model, 1, 4000, SEED)
        parallel = estimate_absorption_time(model, 1, 4000, SEED, n_jobs=3)
        assert serial == again == parallel

    def test_seed_changes_results(self):
        model = hypergeometric_mixing(10, 1.0, 0.31)
        assert estimate_absorption_time(model, 1, 100, 1).mean != \
            estimate_absorption_time(model, 1, 100, 2).mean

    def test_large_yule_model_matches_exact_mean(self):
        model = yule_scaled(2000, 1.0, 0.31, "hours")
        exact = expected_absorption_time(model).exact_mean
        summary = estimate_absorption_time(model, 1, 10 ** 4, SEED)
        assert abs(summary.mean - exact) < 3.0 * summary.std_error

    def test_quantiles_nondecreasing(self):
        model = hypergeometric_mixing(5, 1.0, 0.5)
        summary = estimate_absorption_time(model, 1, 1000, SEED)
        levels = sorted(summary.quantiles)
        values = [summary.quantiles[q] for q in levels]
        assert values == sorted(values)
        assert summary.std_error > 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_variance_agreement(self, n):
        model = hypergeometric_mixing(n, 1.0, 0.31)
        report = expected_absorption_time(model)
        terminal_sd = estimate_absorption_time(model, 1, 10 ** 5, SEED)
        sample_var = (terminal_sd.std_error ** 2) * 10 ** 5
        assert sample_var == pytest.approx(report.variance, rel=0.10)

    def test_replicates_validated(self):
        with pytest.raises(OutOfRange):
            estimate_absorption_time(hypergeometric_mixing(3, 1, 1), 1, 1,
                                     SEED)

    def test_start_state_validated(self):
        with pytest.raises(StateOutOfRange):
            estimate_absorption_time(hypergeometric_mixing(4, 1, 1), 5, 10,
                                     SEED)

    @pytest.mark.parametrize("n_jobs", [0, -3])
    def test_n_jobs_below_one_rejected(self, n_jobs):
        with pytest.raises(OutOfRange):
            estimate_absorption_time(hypergeometric_mixing(3, 1, 1), 1, 10,
                                     SEED, n_jobs=n_jobs)


class TestEmpiricalDistribution:
    def test_time_zero_is_point_mass(self):
        model = hypergeometric_mixing(6, 1.0, 0.5)
        hist = empirical_distribution_at(model, 2, 0.0, 500, SEED)
        assert hist.counts.sum() == 500
        assert hist.counts[hist.states == 2][0] == 500

    def test_exponential_median(self):
        model = hypergeometric_mixing(2, 1.0, 1.0)
        reps = 10 ** 5
        hist = empirical_distribution_at(model, 1, math.log(2.0), reps, SEED)
        frac = hist.counts[-1] / reps
        se = math.sqrt(0.25 / reps)
        assert abs(frac - 0.5) < 3.0 * se

    def test_total_variation_against_forward_solver(self):
        model = power_law(1.0, 1.0, 30)  # linear rates
        t = 1.0
        reps = 10 ** 5
        hist = empirical_distribution_at(model, 1, t, reps, SEED)
        snap = forward_probabilities(model, 1, t)
        tv = 0.5 * np.abs(hist.counts / reps - snap.probabilities).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_time_must_be_finite_and_nonnegative(self, t):
        with pytest.raises(OutOfRange):
            empirical_distribution_at(hypergeometric_mixing(4, 1, 1), 1, t,
                                      10, SEED)

    def test_parallel_schedule_identical(self):
        model = hypergeometric_mixing(8, 1.0, 0.31)
        a = empirical_distribution_at(model, 1, 2.0, 2000, SEED)
        b = empirical_distribution_at(model, 1, 2.0, 2000, SEED, n_jobs=4)
        assert (a.counts == b.counts).all()


def tv_limit(probabilities, replicates):
    """Total-variation distance between an empirical histogram of
    ``replicates`` draws and its true law that a correct sampler exceeds
    with probability at most 1e-9: E|p_hat - p| <= sqrt(p (1-p) / n) bounds
    the mean, and McDiarmid's inequality adds sqrt(ln(10**9) / (2 n)),
    since one replicate moves TV by at most 1/n."""
    p = np.clip(probabilities, 0.0, 1.0)
    return (0.5 * float(np.sqrt(p * (1.0 - p) / replicates).sum())
            + math.sqrt(math.log(1e9) / (2.0 * replicates)))


small_models = st.one_of(
    st.builds(hypergeometric_mixing, st.integers(2, 12),
              st.floats(0.1, 5.0), st.floats(0.05, 1.0)),
    st.builds(power_law, st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
              st.integers(2, 12)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model=small_models, fraction=st.floats(0.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_property_histogram_agrees_with_forward(model, fraction, seed, data):
    start = data.draw(st.integers(1, model.absorbing_state), label="start")
    t = fraction * float(np.sum(1.0 / rate_vector(model, start)))
    reps = 2000
    hist = empirical_distribution_at(model, start, t, reps, seed)
    snap = forward_probabilities(model, start, t)
    tv = 0.5 * np.abs(hist.counts / reps - snap.probabilities).sum()
    assert tv <= tv_limit(snap.probabilities, reps)


class TestExplosionStudy:
    def test_mean_matches_partial_sum(self):
        model = power_law(1.0, 2.0, 1000)
        report = explosion_study(model, 1, 10 ** 4, SEED)
        assert report.analytic_mean == pytest.approx(
            powerlaw_expected_time(1.0, 2, 999).value, rel=1e-12)
        assert abs(report.summary.mean - report.analytic_mean) < \
            3.0 * report.summary.std_error
        assert report.limit_bound == pytest.approx(math.pi ** 2 / 6.0)

    def test_cap_doubling_barely_moves_the_mean(self):
        small = explosion_study(power_law(1.0, 2.0, 1000), 1, 10 ** 4, SEED)
        large = explosion_study(power_law(1.0, 2.0, 1000), 1, 10 ** 4, SEED,
                                cap=2000)
        shift = large.summary.mean - small.summary.mean
        assert 0.0 < shift < 1e-3 + 3.0 * large.summary.std_error

    def test_coupled_seed_rate_scaling(self):
        # doubling c halves every holding time drawn from the same uniforms
        slow = simulate_path(power_law(2.0, 2.0, 50), 1,
                             replicate_stream(SEED, 7))
        fast = simulate_path(power_law(4.0, 2.0, 50), 1,
                             replicate_stream(SEED, 7))
        assert fast.terminal_time == slow.terminal_time / 2.0
        for (_, s1), (_, s2) in zip(slow.events, fast.events):
            assert s1 == s2

    def test_requires_quadratic_powerlaw(self):
        with pytest.raises(WrongFamily):
            explosion_study(power_law(1.0, -2.0, 100), 1, 10, SEED)
        with pytest.raises(WrongFamily):
            explosion_study(hypergeometric_mixing(5, 1, 1), 1, 10, SEED)
        with pytest.raises(OutOfRange):
            explosion_study(power_law(1.0, 2.0, 5), 5, 10, SEED)


@pytest.mark.parametrize("n,p,lam", [(2, 1.0, 0.5), (3, 0.31, 1.0),
                                     (5, 1.0, 3.0), (10, 0.31, 0.5)])
def test_mean_agreement_small_grid(n, p, lam):
    model = hypergeometric_mixing(n, lam, p)
    exact = expected_absorption_time(model).exact_mean
    summary = estimate_absorption_time(model, 1, 10 ** 5, SEED)
    assert abs(summary.mean - exact) < 4.0 * summary.std_error


def test_replicate_streams_are_independent_of_count():
    # replicate i's draws depend only on (master_seed, i)
    model = hypergeometric_mixing(6, 1.0, 0.5)
    t_first = simulate_path(model, 1, replicate_stream(SEED, 3)).terminal_time
    summary_small = estimate_absorption_time(model, 1, 4, SEED)
    summary_large = estimate_absorption_time(model, 1, 64, SEED)
    assert summary_small.mean != summary_large.mean
    path_again = simulate_path(model, 1, replicate_stream(SEED, 3))
    assert path_again.terminal_time == t_first


class TestBlockStreams:
    def test_replicate_depends_only_on_seed_and_index(self):
        model = hypergeometric_mixing(6, 1.0, 0.5)
        terminal, states = _simulate_ensemble(model, 1, 2049, SEED, t=1.0)
        for count in (1, 1023, 1024, 1025):
            part, part_states = _simulate_ensemble(model, 1, count, SEED,
                                                   t=1.0)
            assert (part == terminal[:count]).all()
            assert (part_states == states[:count]).all()

    def test_any_n_jobs_gives_identical_arrays(self):
        model = hypergeometric_mixing(8, 1.0, 0.31)
        runs = [_simulate_ensemble(model, 1, 2500, SEED, t=2.0, n_jobs=k)
                for k in (1, 2, 3)]
        for terminal, states in runs[1:]:
            assert (terminal == runs[0][0]).all()
            assert (states == runs[0][1]).all()

    def test_doubling_every_rate_halves_every_time(self):
        # cap 200 spans several strips of the kernel
        slow, fast = power_law(2.0, 2.0, 200), power_law(4.0, 2.0, 200)
        assert (rate_vector(fast, 1) == 2.0 * rate_vector(slow, 1)).all()
        for (_, a), (_, b) in zip(event_time_blocks(slow, 1, 1500, SEED),
                                  event_time_blocks(fast, 1, 1500, SEED)):
            assert (b == a / 2.0).all()

    def test_common_random_numbers_across_caps(self):
        (_, a), = event_time_blocks(power_law(1.0, 2.0, 100), 1, 100, SEED)
        (_, b), = event_time_blocks(power_law(1.0, 2.0, 300), 1, 100, SEED)
        assert (b[:, :a.shape[1]] == a).all()

    def test_path_is_first_replicate_of_its_block(self):
        model = hypergeometric_mixing(9, 1.0, 0.31)
        terminal, _ = _simulate_ensemble(model, 1, 2049, SEED)
        for block in (0, 1, 2):
            path = simulate_path(model, 1,
                                 montecarlo.replicate_stream(SEED, block))
            assert path.terminal_time == terminal[block * montecarlo.BLOCK]

    def test_workers_clamped_to_jobs_cpus_and_blocks(self, monkeypatch):
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlinePool)
        model = hypergeometric_mixing(4, 1.0, 1.0)
        serial, _ = _simulate_ensemble(model, 1, 3000, SEED)
        for cpus, n_jobs, replicates, want in ((64, 10 ** 6, 3000, [3]),
                                               (64, 2, 3000, [2]),
                                               (2, 8, 3000, [2]),
                                               (64, 8, 1000, []),
                                               (64, 1, 3000, [])):
            monkeypatch.setattr(montecarlo.os, "cpu_count",
                                lambda cpus=cpus: cpus)
            seen.clear()
            terminal, _ = _simulate_ensemble(model, 1, replicates, SEED,
                                             n_jobs=n_jobs)
            assert seen == want
            assert (terminal == serial[:replicates]).all()

    def test_jobs_draw_each_block_once_in_this_process(self, monkeypatch):
        seen = []
        stream = montecarlo.replicate_stream

        def recording(master_seed, block):
            seen.append((block, os.getpid()))
            return stream(master_seed, block)

        monkeypatch.setattr(montecarlo, "replicate_stream", recording)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        _simulate_ensemble(hypergeometric_mixing(4, 1.0, 1.0), 1, 2500,
                           SEED, n_jobs=2)
        assert sorted(seen) == [(b, os.getpid()) for b in (0, 1, 2)]

    def test_more_threads_than_cores_lose_no_rows(self, monkeypatch):
        # threads switch as often as the interpreter allows: a lost or
        # misplaced write into the shared arrays would change them
        model = hypergeometric_mixing(6, 1.0, 0.5)
        replicates = 16 * montecarlo.BLOCK + 5
        serial = _simulate_ensemble(model, 1, replicates, SEED, t=1.0)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _simulate_ensemble(model, 1, replicates, SEED, t=1.0,
                                          n_jobs=16)
        finally:
            sys.setswitchinterval(interval)
        assert all(same_bits(a, b) for a, b in zip(threaded, serial))


def reference_block(lam, master_seed, block):
    """Times of entering each state (row 0: the start state) for the BLOCK
    replicates of one block, by the formulation of scheme
    pcg64-block1024-v2 as first written: random -> 1 - V -> log ->
    divide by -lambda -> cumsum(axis=0).  Drawn in one piece, since strips
    change neither the draws nor the order of the additions."""
    draws = replicate_stream(master_seed, block).random(
        (lam.size, montecarlo.BLOCK))
    times = np.cumsum(np.log(1.0 - draws) / -lam[:, None], axis=0)
    return np.vstack([np.zeros((1, montecarlo.BLOCK)), times])


def reference_ensemble(lam, master_seed, replicates):
    blocks = [reference_block(lam, master_seed, b)
              for b in range(-(-replicates // montecarlo.BLOCK))]
    return np.hstack(blocks)[:, :replicates]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


class TestKernelMatchesReference:
    """The strips' running sums are bitwise those of cumsum(axis=0)."""

    # transient-state counts around STRIP (64), start states 1 and 3
    @pytest.mark.parametrize("transient", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("start", [1, 3])
    @pytest.mark.parametrize("replicates", [1, 1023, 1025])
    def test_bitwise_equal(self, transient, start, replicates):
        model = power_law(0.7, 1.5, start + transient)
        lam = rate_vector(model, start)
        ref = reference_ensemble(lam, SEED, replicates)
        t = float(np.sum(1.0 / lam)) / 2.0
        terminal, states = _simulate_ensemble(model, start, replicates,
                                              SEED, t=t)
        assert same_bits(terminal, ref[-1])
        assert same_bits(states,
                         start + np.count_nonzero(ref[1:] <= t, axis=0))
        blocks = np.vstack([times for _, times in
                            event_time_blocks(model, start, replicates,
                                              SEED)])
        assert same_bits(blocks, ref.T)
        path = simulate_path(model, start, replicate_stream(SEED, 0))
        assert [time for time, _ in path.events] == ref[:, 0].tolist()


class TestSummaryOfHugeTimes:
    def test_scales_by_a_power_of_two_exactly(self):
        # every time at c = 2**-1015 is 2**1015 times that at c = 1, and
        # the larger ones overflow a sum of squares
        unit = estimate_absorption_time(power_law(1.0, 1.0, 4), 1, 1000, 1)
        tiny = estimate_absorption_time(power_law(2.0 ** -1015, 1.0, 4), 1,
                                        1000, 1)
        assert tiny.mean == math.ldexp(unit.mean, 1015)
        assert tiny.std_error == math.ldexp(unit.std_error, 1015)
        assert tiny.quantiles == {q: math.ldexp(x, 1015)
                                  for q, x in unit.quantiles.items()}

    @pytest.mark.parametrize("c", [1e-306, 1e-300])
    def test_tiny_valid_rates_give_finite_summaries(self, c):
        # these gave mean inf (1e-306) and std_error inf (1e-300)
        model = power_law(c, 1.0, 4)
        summary = estimate_absorption_time(model, 1, 1000, 1)
        assert math.isfinite(summary.std_error)
        # E(T) is finite although Var(T), which the analytic engine
        # reports, is not
        exact = float(np.sum(1.0 / rate_vector(model)))
        assert abs(summary.mean - exact) < 6.0 * summary.std_error


class TestRatesThatUnderflow:
    # 9 ** -400 underflows to 0; 2 ** -1073 is subnormal, its reciprocal inf
    @pytest.mark.parametrize("model", [power_law(1.0, -400.0, 10),
                                       power_law(2.0 ** -1073, 1.0, 5)])
    def test_rejected_by_every_sampler(self, model):
        # used to give mean inf and std_error nan from 1/0 in the kernel
        with pytest.raises(OutOfRange, match="smallest rate"):
            estimate_absorption_time(model, 1, 100, 1)
        with pytest.raises(OutOfRange, match="smallest rate"):
            empirical_distribution_at(model, 1, 1.0, 100, 1)
        with pytest.raises(OutOfRange, match="smallest rate"):
            next(event_time_blocks(model, 1, 100, 1))
        with pytest.raises(OutOfRange, match="smallest rate"):
            simulate_path(model, 1, replicate_stream(1, 0))
