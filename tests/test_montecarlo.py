import concurrent.futures
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from purebirth import montecarlo
from purebirth import (OutOfRange, StateOutOfRange,
                       empirical_distribution_at, estimate_absorption_time,
                       expected_absorption_time,
                       forward_probabilities, hypergeometric_mixing,
                       power_law, simulate_path, yule_scaled)
from purebirth.cli import main
from purebirth.montecarlo import (BLOCK, QUANTILE_LEVELS, _simulate_ensemble,
                                  event_time_blocks, replicate_stream,
                                  summarize_terminal_times)
from purebirth.rates import rate_vector

SEED = 123


def explosion(model, start, replicates, seed, n_jobs=1):
    """(E(T) report, Monte Carlo summary) of the time to hit the cap: the
    explosion subcommand's two library calls, in its order."""
    return (expected_absorption_time(model, start),
            estimate_absorption_time(model, start, replicates, seed,
                                     n_jobs=n_jobs))


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
        path = simulate_path(model, 1, SEED)
        assert len(path.events) == 2
        assert path.events[0] == (0.0, 1)
        assert path.events[1][1] == 2
        assert path.terminal_time > 0.0

    def test_degenerate_start_at_absorbing_state(self):
        model = hypergeometric_mixing(5, 1.0, 1.0)
        path = simulate_path(model, 5, SEED)
        assert path.events == [(0.0, 5)]
        assert path.terminal_time == 0.0

    @pytest.mark.parametrize("model", [
        hypergeometric_mixing(7, 1.0, 0.31),
        power_law(1.0, 2.0, 12),
        power_law(1.0, -2.0, 8),
    ])
    def test_path_invariants(self, model):
        for i in range(200):
            path = simulate_path(model, 1, SEED, i * BLOCK)
            check_trajectory(path, model, 1)

    def test_mean_terminal_time(self):
        model = hypergeometric_mixing(3, 1.0, 1.0)
        summary = estimate_absorption_time(model, 1, 10 ** 5, SEED)
        assert abs(summary.mean - 3.0) < 3.0 * summary.std_error

    def test_start_state_validated(self):
        with pytest.raises(StateOutOfRange):
            simulate_path(hypergeometric_mixing(4, 1, 1), 5, SEED)


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

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0, "1", None, True,
                                   [1.0, 2.0]])
    def test_time_must_be_finite_and_nonnegative(self, t):
        with pytest.raises(OutOfRange):
            empirical_distribution_at(hypergeometric_mixing(4, 1, 1), 1, t,
                                      10, SEED)

    @pytest.mark.parametrize("t", [2, np.int64(2), np.float64(2.0),
                                   np.float32(2.0)])
    def test_time_of_any_real_type_gives_the_same_counts(self, t):
        model = hypergeometric_mixing(8, 1.0, 0.31)
        hist = empirical_distribution_at(model, 1, t, 200, SEED)
        ref = empirical_distribution_at(model, 1, 2.0, 200, SEED)
        assert hist.time == 2.0
        assert (hist.counts == ref.counts).all()

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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=small_models, start=st.integers(1, 12),
       replicate=st.one_of(st.integers(0, BLOCK - 1),
                           st.integers(BLOCK, 3 * BLOCK - 1)),
       extra=st.integers(1, BLOCK + 1), seed=st.integers(0, 2 ** 32 - 1))
@example(model=power_law(0.7, 1.5, 200), start=1, replicate=BLOCK - 1,
         extra=1, seed=SEED)
@example(model=power_law(0.7, 1.5, 200), start=3, replicate=BLOCK,
         extra=1, seed=SEED)
def test_property_path_is_its_index_in_every_ensemble(model, start, replicate,
                                                      extra, seed):
    # replicate r of a seed is one path: simulate_path's, row r of the
    # trajectory blocks, and terminal[r] of any ensemble of more than r
    start = min(start, model.absorbing_state)
    path = simulate_path(model, start, seed, replicate)
    check_trajectory(path, model, start)
    replicates = replicate + extra
    terminal, _ = _simulate_ensemble(model, start, replicates, seed)
    assert same_bits(np.array([path.terminal_time]),
                     terminal[replicate:replicate + 1])
    first = replicate - replicate % BLOCK
    rows = dict(event_time_blocks(model, start, replicates, seed))[first]
    assert same_bits(np.array([t for t, _ in path.events]),
                     rows[replicate - first])


def test_event_time_block_is_held_once():
    # np.vstack kept every strip alive next to the stacked copy: 2.05x
    tracemalloc.start()
    try:
        _, times = next(event_time_blocks(yule_scaled(2000, 1.0, 0.31), 1,
                                          BLOCK, SEED))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.shape == (BLOCK, 2000)
    assert peak < 1.25 * times.nbytes


class TestMasterSeed:
    SAMPLERS = {
        "estimate": lambda m, s: estimate_absorption_time(m, 1, 10, s),
        "estimate_jobs2": lambda m, s: estimate_absorption_time(
            m, 1, 3 * BLOCK, s, n_jobs=2),
        "histogram": lambda m, s: empirical_distribution_at(m, 1, 1.0, 10, s),
        "explosion": lambda m, s: explosion(m, 1, 10, s)[1],
        "path": lambda m, s: simulate_path(m, 1, s),
    }

    # -1 and 1.5 raised numpy's ValueError and TypeError; None drew OS
    # entropy and echoed master_seed=None
    @pytest.mark.parametrize("seed", [-1, 1.5, None, "7"])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_rejected_by_every_sampler(self, sampler, seed):
        with pytest.raises(OutOfRange, match="master_seed must be an integer"):
            self.SAMPLERS[sampler](power_law(1.0, 2.0, 20), seed)

    @pytest.mark.parametrize("replicate", [-1, -BLOCK, 1.5, float(BLOCK)])
    def test_replicate_must_be_an_index(self, replicate):
        with pytest.raises(OutOfRange):
            simulate_path(power_law(1.0, 2.0, 20), 1, SEED, replicate)

    # -1 was reported as "block ... got -1" and 2.0 as "got 0.0"; True
    # returned replicate 1's path
    @pytest.mark.parametrize("replicate", [-1, 2.0, True])
    def test_replicate_is_checked_under_its_own_name(self, replicate):
        with pytest.raises(OutOfRange, match=rf"^replicate must be an "
                           rf"integer >= 0, got {replicate!r}$"):
            simulate_path(power_law(1.0, 2.0, 20), 1, SEED, replicate)

    def test_numpy_and_large_integers_accepted(self):
        model = power_law(1.0, 2.0, 20)
        assert simulate_path(model, 1, np.uint64(SEED), np.int64(5)) == \
            simulate_path(model, 1, SEED, 5)
        terminal, _ = _simulate_ensemble(model, 1, 2, 2 ** 100)
        assert simulate_path(model, 1, 2 ** 100, 1).terminal_time == \
            terminal[1]


class TestCounts:
    """Replicate counts and n_jobs are integers in range at every Monte
    Carlo entry point (simulate_path's index: TestMasterSeed)."""

    SAMPLERS = {
        "estimate": lambda m, r, j: estimate_absorption_time(
            m, 1, r, SEED, n_jobs=j),
        "histogram": lambda m, r, j: empirical_distribution_at(
            m, 1, 1.0, r, SEED, n_jobs=j),
        "explosion": lambda m, r, j: explosion(
            m, 1, r, SEED, n_jobs=j)[1],
    }

    # 2.5 and 10.5 raised numpy's TypeError
    @pytest.mark.parametrize("replicates", [2.5, 10.5, 10.0, np.float64(10),
                                            "10", None, True, -1])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_replicates_must_be_integers(self, sampler, replicates):
        with pytest.raises(OutOfRange,
                           match="replicates must be an integer >= "):
            self.SAMPLERS[sampler](power_law(1.0, 2.0, 20), replicates, 1)

    # 2.5 raised a bare TypeError, True dumped one replicate and -5 none;
    # then each was refused only at the first block, not at the call
    @pytest.mark.parametrize("replicates", [2.5, True, -5])
    def test_event_time_blocks_takes_only_a_replicate_count(self, replicates):
        with pytest.raises(OutOfRange,
                           match="^replicates must be an integer >= 1, "):
            event_time_blocks(power_law(1.0, 2.0, 20), 1, replicates, SEED)

    @pytest.mark.parametrize("start, seed, error, message", [
        (1, -1, OutOfRange, "^master_seed must be an integer >= 0, "),
        (1, 2.5, OutOfRange, "^master_seed must be an integer >= 0, "),
        (0, SEED, StateOutOfRange, "^start_state 0 "),
        (21, SEED, StateOutOfRange, "^start_state 21 "),
    ])
    def test_event_time_blocks_checks_at_the_call(self, start, seed, error,
                                                   message):
        with pytest.raises(error, match=message):
            event_time_blocks(power_law(1.0, 2.0, 20), start, 10, seed)

    # 1.5 used to run on one thread
    @pytest.mark.parametrize("n_jobs", [1.5, 2.0, np.float64(1), "2", None,
                                        True, 0])
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_n_jobs_must_be_an_integer(self, sampler, n_jobs):
        with pytest.raises(OutOfRange, match="n_jobs must be an integer >= 1"):
            self.SAMPLERS[sampler](power_law(1.0, 2.0, 20), 10, n_jobs)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_numpy_integers_accepted(self, sampler):
        model = power_law(1.0, 2.0, 20)
        np.testing.assert_equal(
            vars(self.SAMPLERS[sampler](model, np.int64(10), np.int32(2))),
            vars(self.SAMPLERS[sampler](model, 10, 1)))


class TestExplosionStudy:
    """Cap-hitting times under c k^2 rates, by the explosion subcommand's
    two library calls."""

    def test_mean_matches_partial_sum(self):
        model = power_law(1.0, 2.0, 1000)
        analytic, summary = explosion(model, 1, 10 ** 4, SEED)
        oracle = math.fsum(1.0 / k ** 2 for k in range(1, 1000))
        assert analytic.exact_mean == pytest.approx(oracle, rel=1e-12)
        assert abs(summary.mean - analytic.exact_mean) < \
            3.0 * summary.std_error
        assert analytic.approx_mean == pytest.approx(math.pi ** 2 / 6.0)

    def test_cap_doubling_barely_moves_the_mean(self):
        _, small = explosion(power_law(1.0, 2.0, 1000), 1, 10 ** 4, SEED)
        _, large = explosion(power_law(1.0, 2.0, 2000), 1, 10 ** 4, SEED)
        shift = large.mean - small.mean
        assert 0.0 < shift < 1e-3 + 3.0 * large.std_error

    def test_coupled_seed_rate_scaling(self):
        # doubling c halves every holding time drawn from the same uniforms
        slow = simulate_path(power_law(2.0, 2.0, 50), 1, SEED, 7 * BLOCK)
        fast = simulate_path(power_law(4.0, 2.0, 50), 1, SEED, 7 * BLOCK)
        assert fast.terminal_time == slow.terminal_time / 2.0
        for (_, s1), (_, s2) in zip(slow.events, fast.events):
            assert s1 == s2

    def test_requires_quadratic_powerlaw(self, capsys, tmp_path):
        # the family is powerlaw and the exponent 2: a flag that would set
        # either, or a parameter of another family, is not explosion's
        out = tmp_path / "explosion.csv"
        for flag, value in [("--family", "hypergeometric"), ("--N", "5"),
                            ("--lambda", "1"), ("--mu", "1"), ("--p", "1"),
                            ("--exponent", "-2"), ("--family", "powerlaw"),
                            ("--exponent", "2")]:
            with pytest.raises(SystemExit) as exit_info:
                main(["explosion", "--c", "1", "--cap", "100", flag, value,
                      "--replicates", "10", "--seed", str(SEED),
                      "--out", str(out)])
            assert exit_info.value.code == 2
            assert capsys.readouterr().err.endswith(
                f"purebirth: error: unrecognized arguments: {flag} {value}\n")
            assert not out.exists()
        # from the cap itself (refused before) the time to hit it is 0
        analytic, summary = explosion(power_law(1.0, 2.0, 5), 5, 10, SEED)
        assert summary.mean == analytic.exact_mean == 0.0
        assert set(summary.quantiles.values()) == {0.0}

    @pytest.mark.parametrize("cap, start", [(2, 1), (50, 1), (50, 17),
                                            (1000, 1), (2000, 999)])
    def test_analytic_mean_is_the_exact_mean_bit_for_bit(self, cap, start):
        # explosion_study once summed it over the model's own rate vector;
        # expected_absorption_time's exact_mean is the same sum
        model = power_law(0.7, 2.0, cap)
        own_sum = float(np.sum(1.0 / rate_vector(model, start)))
        analytic, _ = explosion(model, start, 2, SEED)
        assert analytic.exact_mean.hex() == own_sum.hex()

    @pytest.mark.parametrize("c", [0.7, 1.0, 3.0])
    def test_limit_bound_is_the_reports_approx_mean(self, c):
        analytic, _ = explosion(power_law(c, 2.0, 50), 17, 2, SEED)
        assert analytic.approx_mean.hex() == (math.pi ** 2 / (6.0 * c)).hex()

    def test_order_of_refusals(self, capsys, tmp_path):
        # a family flag (argparse, exit 2), then the start state, then the
        # replicates and seed
        out = tmp_path / "explosion.csv"
        flags = ["explosion", "--c", "1", "--cap", "5", "--start", "0",
                 "--replicates", "1", "--seed", "-1", "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(flags + ["--exponent", "-2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --exponent -2" in \
            capsys.readouterr().err
        for fixed, error in [
                ([], "start_state 0 is not an integer in [1, 5]"),
                (["--start", "1"], "replicates must be an integer >= 2, "
                                   "got 1"),
                (["--start", "1", "--replicates", "2"],
                 "master_seed must be an integer >= 0, got -1")]:
            assert main(flags + fixed) == 1
            assert capsys.readouterr().err == f"purebirth: error: {error}\n"
        assert not out.exists()


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
    t_first = simulate_path(model, 1, SEED, 3 * BLOCK).terminal_time
    summary_small = estimate_absorption_time(model, 1, 4, SEED)
    summary_large = estimate_absorption_time(model, 1, 64, SEED)
    assert summary_small.mean != summary_large.mean
    path_again = simulate_path(model, 1, SEED, 3 * BLOCK)
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
            path = simulate_path(model, 1, SEED, block * BLOCK)
            assert path.terminal_time == terminal[block * montecarlo.BLOCK]

    def test_workers_clamped_to_jobs_cpus_and_blocks(self, monkeypatch,
                                                      tmp_path):
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

        # _blocks imports the pool from its module when it runs more than
        # one worker
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            InlinePool)
        model = hypergeometric_mixing(4, 1.0, 1.0)
        serial, _ = _simulate_ensemble(model, 1, 3000, SEED)
        dump = tmp_path / "paths.csv"

        def dumped(replicates, n_jobs):
            # the CLI's trajectory dump of the same model
            assert main(["simulate", "--family", "hypergeometric", "--N",
                         "4", "--lambda", "1", "--p", "1", "--replicates",
                         str(replicates), "--seed", str(SEED), "--jobs",
                         str(n_jobs), "--trajectories", str(dump),
                         "--out", str(tmp_path / "summary.csv")]) == 0
            return np.array([float(row.split(",")[1]) for row in
                             dump.read_text().splitlines()[4::4]])

        # the dump draws on the calling thread whatever --jobs is
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
            seen.clear()
            assert (dumped(replicates, n_jobs) == serial[:replicates]).all()
            assert seen == []

    @pytest.mark.parametrize("n_jobs, replicates", [(1, 3000), (8, 1000)])
    def test_one_thread_never_asks_for_the_core_count(self, monkeypatch,
                                                      n_jobs, replicates):
        def cpu_count():
            raise AssertionError("cpu_count called")

        model = hypergeometric_mixing(4, 1.0, 1.0)
        serial, _ = _simulate_ensemble(model, 1, replicates, SEED)
        monkeypatch.setattr(montecarlo.os, "cpu_count", cpu_count)
        terminal, _ = _simulate_ensemble(model, 1, replicates, SEED,
                                         n_jobs=n_jobs)
        assert same_bits(terminal, serial)

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
        path = simulate_path(model, start, SEED)
        assert [time for time, _ in path.events] == ref[:, 0].tolist()


class TestHistogramAtStripBoundaries:
    """Terminal times and states at t are those of the cumsum oracle, bit
    for bit, at the edges of the time axis and of the strips, ties at a
    strip's exit counting under <=."""

    REPLICATES = BLOCK + 476  # a full and a partial block

    @staticmethod
    def times(ref, transient):
        exits = sorted({*range(montecarlo.STRIP, transient + 1,
                               montecarlo.STRIP), transient})
        return {
            "zero": [0.0],
            "before_first_event": [float(ref[1].min()) / 2.0],
            "past_terminal": [float(np.nextafter(ref[-1].max(), np.inf))],
            # the latest exit of a strip, so that no replicate straddles it
            "tie_at_strip_exit": [float(ref[row].max()) for row in exits],
            # a time that half the replicates pass inside each strip
            "mid_strip": [float(np.median(ref[row])) for row in exits],
        }

    @pytest.mark.parametrize("transient", [63, 64, 65, 129])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("when", ["zero", "before_first_event",
                                      "past_terminal", "tie_at_strip_exit",
                                      "mid_strip"])
    def test_bitwise_equal(self, transient, n_jobs, when):
        model = power_law(0.7, 1.5, 1 + transient)
        ref = reference_ensemble(rate_vector(model), SEED, self.REPLICATES)
        for t in self.times(ref, transient)[when]:
            terminal, states = _simulate_ensemble(
                model, 1, self.REPLICATES, SEED, t=t, n_jobs=n_jobs)
            assert same_bits(terminal, ref[-1])
            assert same_bits(states,
                             1 + np.count_nonzero(ref[1:] <= t, axis=0))


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


def np_summary(terminal):
    """(mean, std_error, quantiles) by the formulas the summary had before
    it took its quantiles from one sort: np.max's power of two, and
    np.quantile."""
    top = float(np.max(terminal))
    shift = math.frexp(top)[1] if top > 2.0 ** 500 else 0
    scaled = np.ldexp(terminal, -shift)
    mean = math.ldexp(float(np.mean(scaled)), shift)
    std_error = math.ldexp(float(np.std(scaled, ddof=1)
                                 / math.sqrt(len(terminal))), shift)
    return mean, std_error, np.quantile(terminal, QUANTILE_LEVELS).tolist()


# terminal times: any finite time >= 0, times past 2**500 (the scaled
# path), and a few values that repeat, for ties
SUMMARY_TIMES = st.lists(
    st.one_of(st.floats(0.0, 1e6), st.floats(2.0 ** 500, 1e308),
              st.sampled_from([0.0, 1.0, 2.5, 2.0 ** 600])),
    min_size=2, max_size=300)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(times=SUMMARY_TIMES)
@example(times=[1.0, 2.0])
@example(times=[3.0, 0.5, 1.0])
@example(times=[7.25] * 5)
@example(times=[0.0, 0.0])
@example(times=[0.0, 0.0, 4.0])
@example(times=[2.0 ** 600, 2.0 ** 700, 3.0 * 2.0 ** 600])
@example(times=[1e308, 1e-300, 0.0])
def test_property_summary_is_numpys_bit_for_bit(times):
    terminal = np.array(times)
    summary = summarize_terminal_times(terminal, 1, "t")
    mean, std_error, quantiles = np_summary(np.array(times))
    assert same_bits(np.array(list(summary.quantiles.values())),
                     np.array(quantiles))
    assert list(summary.quantiles) == list(QUANTILE_LEVELS)
    assert same_bits(np.array([summary.mean, summary.std_error]),
                     np.array([mean, std_error]))
    # the --trajectories path reuses its terminal times
    assert same_bits(terminal, np.array(times))


def test_summary_leaves_its_input_in_order():
    terminal, _ = _simulate_ensemble(hypergeometric_mixing(6, 1.0, 0.5), 1,
                                     1500, SEED)
    assert not (np.diff(terminal) >= 0).all()
    before = terminal.copy()
    summarize_terminal_times(terminal, SEED, "t")
    assert same_bits(terminal, before)


class TestRatesThatUnderflow:
    # 9 ** -400 underflows to 0; 2 ** -1073 is subnormal, its reciprocal inf
    @pytest.mark.parametrize("model", [(1.0, -400.0, 10),
                                       (2.0 ** -1073, 1.0, 5)])
    def test_rejected_by_every_sampler(self, model):
        # used to give mean inf and std_error nan from 1/0 in the kernel;
        # now no sampler can be handed such a model
        with pytest.raises(OutOfRange, match="smallest rate"):
            power_law(*model)
