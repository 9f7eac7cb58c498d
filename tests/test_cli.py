import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from purebirth import (estimate_absorption_time, expected_absorption_time,
                       hypergeometric_mixing, power_law)
from purebirth import cli, montecarlo
from purebirth.cli import (PROB_FLOOR, _cells, _config_actions, _parser,
                           _significand, build_parser, fmt, main)
from purebirth.forward import FORWARD_SCHEME, SolverConfig, forward_grid
from purebirth.montecarlo import (RNG_SCHEME, _simulate_ensemble,
                                  event_time_blocks)
from purebirth import yule_scaled
from purebirth.forward import INVERSION_BOUND, INVERSION_SCHEME


def run_csv(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    return list(csv.DictReader(out.splitlines()))


class TestExpectTime:
    def test_fans_recipe(self, capsys):
        rows = run_csv(capsys, ["expect-time", "--family", "yule",
                                "--N", "2000", "--mu", "1", "--p", "0.31",
                                "--unit", "hours"])
        assert len(rows) == 1
        assert float(rows[0]["approx_mean"]) == pytest.approx(24.52, abs=0.01)
        assert float(rows[0]["exact_mean"]) == pytest.approx(26.367, abs=0.001)
        assert rows[0]["time_unit"] == "hours"

    def test_cruise_recipe(self, capsys):
        rows = run_csv(capsys, ["expect-time", "--family", "yule",
                                "--N", "6700", "--mu", "3", "--p", "0.31",
                                "--unit", "days"])
        assert float(rows[0]["approx_mean"]) == pytest.approx(9.47, abs=0.01)

    def test_overflowing_rates_are_an_error(self, capsys):
        # mu = 1e308 used to print exact_mean 0 and variance 0
        assert main(["expect-time", "--family", "yule", "--N", "10",
                     "--mu", "1e308", "--p", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "largest rate overflows" in captured.err

    def test_overflow_is_an_error_not_a_traceback(self, capsys):
        assert main(["expect-time", "--family", "powerlaw", "--c", "1",
                     "--exponent", "2000", "--cap", "10"]) == 1
        assert capsys.readouterr().err.startswith("purebirth: error: ")

    def test_too_many_states_is_an_error_not_a_traceback(self, capsys):
        # 10^11 states: a 745 GiB rate vector, or minutes of leaf sums
        assert main(["expect-time", "--family", "yule", "--N", "100000000000",
                     "--mu", "1", "--p", "0.31"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("purebirth: error: ")
        assert "99999999999 transient states" in captured.err

    def test_invalid_population_exits_nonzero(self, capsys):
        assert main(["expect-time", "--family", "yule", "--N", "1",
                     "--mu", "1", "--p", "0.31"]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "N must be an integer >= 2" in captured.err

    def test_floats_round_trip_exactly(self, capsys):
        rows = run_csv(capsys, ["expect-time", "--family", "hypergeometric",
                                "--N", "17", "--lambda", "1.3", "--p", "0.31"])
        from purebirth import expected_absorption_time, hypergeometric_mixing
        exact = expected_absorption_time(
            hypergeometric_mixing(17, 1.3, 0.31)).exact_mean
        assert float(rows[0]["exact_mean"]) == exact

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    def test_overflowing_variance_is_blank(self, capsys, fmt_name):
        # Var(T) overflows a float, E(T) = 1.83e200 does not
        assert main(["expect-time", "--family", "powerlaw", "--c", "1e-200",
                     "--exponent", "1", "--cap", "4",
                     "--format", fmt_name]) == 0
        out = capsys.readouterr().out
        if fmt_name == "csv":
            row, = csv.DictReader(out.splitlines())
        else:
            row, = json.loads(out)["rows"]
        assert float(row["exact_mean"]) == pytest.approx(1.8333e200, rel=1e-4)
        assert row["variance"] == ("" if fmt_name == "csv" else None)

    @pytest.mark.parametrize("exponent, approx", [
        ("2", math.pi ** 2 / (6.0 * 0.5)),
        ("-2", 10000 ** 3 / (3.0 * 0.5))], ids=["plus-2", "minus-2"])
    def test_powerlaw_approximation_is_filled(self, capsys, exponent,
                                              approx):
        # approx_mean was blank for every power-law model
        rows = run_csv(capsys, ["expect-time", "--family", "powerlaw",
                                "--c", "0.5", "--exponent", exponent,
                                "--cap", "10001"])
        assert rows[0]["approx_mean"] == fmt(approx)
        assert rows[0]["approx_mean_refined"] == ""
        if exponent == "-2":
            squares = sum(k * k for k in range(1, 10001))
            assert rows[0]["exact_mean"] == fmt(squares / 0.5)

    def test_json_format(self, capsys):
        assert main(["expect-time", "--family", "yule", "--N", "100",
                     "--mu", "1", "--p", "0.5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["command"] == "expect-time"
        assert payload["metadata"]["model"]["N"] == 100
        assert payload["rows"][0]["approx_mean"] == pytest.approx(
            math.log(100) / 0.5)


FORWARD_YULE = ["forward", "--family", "yule", "--N", "20", "--mu", "1",
                "--p", "1"]


class TestForward:
    def test_time_zero_single_row(self, capsys):
        rows = run_csv(capsys, ["forward", "--family", "hypergeometric",
                                "--N", "5", "--lambda", "1", "--p", "1",
                                "--t-grid", "0"])
        assert len(rows) == 1
        assert float(rows[0]["time"]) == 0.0
        assert rows[0]["state"] == "1"
        assert float(rows[0]["probability"]) == 1.0

    def test_linear_rate_survival(self, capsys):
        rows = run_csv(capsys, ["forward", "--family", "powerlaw",
                                "--c", "1", "--exponent", "1", "--cap", "50",
                                "--t", "1"])
        state1 = [r for r in rows if r["state"] == "1"]
        assert float(state1[0]["probability"]) == pytest.approx(
            math.exp(-1.0), abs=1e-6)

    def test_absorbing_row_equals_absorption_probability(self, capsys):
        rows = run_csv(capsys, ["forward", "--family", "powerlaw",
                                "--c", "1", "--exponent", "2", "--cap", "10",
                                "--t-grid", "1,2"])
        model = power_law(1.0, 2.0, 10)
        for t in (1.0, 2.0):
            row = [r for r in rows
                   if r["state"] == "10" and float(r["time"]) == t]
            assert float(row[0]["probability"]) == pytest.approx(
                forward_grid(model, 1, [t])[0].probabilities[-1], abs=1e-9)

    def test_requires_a_time(self, capsys):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1"]) != 0
        assert "--t" in capsys.readouterr().err

    def test_rejects_unsorted_grid(self, capsys):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1", "--t-grid", "2,1"]) != 0

    @pytest.mark.parametrize("grid", ["", ",", " , ,"])
    def test_rejects_empty_grid(self, capsys, grid):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1", "--t-grid", grid]) == 1
        assert capsys.readouterr().err == \
            "purebirth: error: --t-grid is empty\n"

    @pytest.mark.parametrize("times", [["--t-grid", "1,nan"],
                                       ["--t", "inf"], ["--t", "nan"]])
    def test_non_finite_time_is_an_error(self, capsys, times):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1"] + times) == 1
        assert capsys.readouterr().err == (
            "purebirth: error: times must be a 1-d sequence of finite "
            f"numbers >= 0, got {times[1].split(',')[-1]}\n")

    def test_bad_time_names_the_flag_and_the_value(self, capsys):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1", "--t-grid", "1,x"]) == 1
        assert capsys.readouterr().err == \
            "purebirth: error: --t-grid must be a number, got 'x'\n"

    @pytest.mark.parametrize("flag", [["--method", "rk4"],
                                      ["--rel-tol", "1e-6"],
                                      ["--max-step", "0.1"]])
    def test_removed_solver_flags_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["forward", "--family", "yule", "--N", "5", "--mu", "1",
                  "--p", "1", "--t", "1"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_abs_tol_flag_and_config_key(self, tmp_path, capsys):
        argv = ["forward", "--family", "yule", "--N", "30", "--mu", "1",
                "--p", "0.31", "--t", "3"]
        tight = run_csv(capsys, argv)
        loose = run_csv(capsys, argv + ["--abs-tol", "1e-4"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("abs-tol = 1e-4\n")
        from_file = run_csv(capsys, argv + ["--config", str(cfg)])
        assert from_file == loose
        assert loose != tight
        for a, b in zip(tight, loose):
            assert abs(float(a["probability"]) - float(b["probability"])) \
                <= 1e-4
        assert main(argv + ["--abs-tol", "0"]) == 1
        assert "abs_tol" in capsys.readouterr().err

    def test_t_is_a_grid_of_one_time(self, capsys):
        assert run_csv(capsys, FORWARD_YULE + ["--t", "1,2"]) == \
            run_csv(capsys, FORWARD_YULE + ["--t-grid", "1,2"])
        # --t is another name for --t-grid: the same bytes
        outputs = []
        for flag in ("--t", "--t-grid"):
            assert main(FORWARD_YULE + [flag, "0,1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # both flags: the last one wins, as for any repeated flag
        both = ["--t-grid", "1,2", "--t", "3"]
        assert run_csv(capsys, FORWARD_YULE + both) == \
            run_csv(capsys, FORWARD_YULE + ["--t", "3"])
        assert run_csv(capsys, FORWARD_YULE + both[2:] + both[:2]) == \
            run_csv(capsys, FORWARD_YULE + ["--t-grid", "1,2"])

    def test_powerlaw_without_cap_names_the_cap(self, capsys):
        assert main(["forward", "--family", "powerlaw", "--c", "1",
                     "--exponent", "2", "--t", "1"]) == 1
        assert capsys.readouterr() == (
            "", "purebirth: error: cap is required for the powerlaw family\n")

    def test_bad_t_is_refused_as_a_grid(self, capsys):
        # argparse used to exit 2 with its usage message
        assert main(FORWARD_YULE + ["--t", "x"]) == 1
        assert capsys.readouterr() == (
            "", "purebirth: error: --t-grid must be a number, got 'x'\n")

    def test_json_metadata_names_scheme_and_mass_defect(self, capsys):
        assert main(["forward", "--family", "powerlaw", "--c", "1",
                     "--exponent", "2", "--cap", "30", "--t-grid", "0,0.5,2",
                     "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["forward_scheme"] == FORWARD_SCHEME == "uniformization-v1"
        snaps = forward_grid(power_law(1.0, 2.0, 30), 1, [0.0, 0.5, 2.0])
        assert meta["max_mass_defect"] == max(s.mass_defect for s in snaps)
        assert 0.0 <= meta["max_mass_defect"] <= 1e-12
        # uniformization's bound is its abs_tol, at every time
        assert meta["max_error_bound"] == 1e-10


# c k^2 rates to cap 20: explosion fixes the family and the exponent that
# simulate takes as flags
QUADRATIC = {
    "simulate": ["--family", "powerlaw", "--c", "1", "--exponent", "2",
                 "--cap", "20"],
    "explosion": ["--c", "1", "--cap", "20"],
}


class TestSimulate:
    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--family", "hypergeometric", "--N", "4",
                "--lambda", "1", "--p", "1", "--replicates", "500",
                "--seed", "99"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_serial_and_parallel_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--family", "hypergeometric", "--N", "6",
                "--lambda", "1", "--p", "0.5", "--replicates", "600",
                "--seed", "7"]
        assert main(argv + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(argv + ["--jobs", "4", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_mean_field_matches_analytic(self, capsys):
        rows = run_csv(capsys, ["simulate", "--family", "hypergeometric",
                                "--N", "3", "--lambda", "1", "--p", "1",
                                "--replicates", "100000", "--seed", "123"])
        mean = float(rows[0]["mean"])
        se = float(rows[0]["std_error"])
        assert abs(mean - 3.0) < 3.0 * se

    def test_trajectory_dump_two_rows_per_replicate(self, tmp_path, capsys):
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--family", "hypergeometric", "--N", "2",
                     "--lambda", "1", "--p", "1", "--replicates", "50",
                     "--seed", "5", "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        rows = list(csv.DictReader(dump.read_text().splitlines()))
        assert len(rows) == 100
        for i in range(50):
            per = [r for r in rows if int(r["replicate"]) == i]
            assert [r["state"] for r in per] == ["1", "2"]

    def test_trajectory_dump_replays_the_ensemble(self, tmp_path):
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "0.5", "--replicates", "1100",
                     "--seed", "5", "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        model = hypergeometric_mixing(5, 1.0, 0.5)
        terminal, _ = _simulate_ensemble(model, 1, 1100, 5)
        rows = list(csv.DictReader(dump.read_text().splitlines()))
        last = [float(r["time"]) for r in rows if r["state"] == "5"]
        assert last == terminal.tolist()
        # the bytes the csv module writes for the same events
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["replicate", "time", "state"])
        for first, times in event_time_blocks(model, 1, 1100, 5):
            for i, row in enumerate(times.tolist(), first):
                for state, t in enumerate(row, 1):
                    writer.writerow([i, fmt(t), state])
        assert dump.read_text() == expected.getvalue()

    def test_trajectory_dump_later_start_partial_block(self, tmp_path):
        # 127 transient states span two strips of the kernel, and the
        # second block of 1100 replicates is partial
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--family", "hypergeometric", "--N", "130",
                     "--lambda", "1", "--p", "0.5", "--start", "3",
                     "--replicates", "1100", "--seed", "9",
                     "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        model = hypergeometric_mixing(130, 1.0, 0.5)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["replicate", "time", "state"])
        for first, times in event_time_blocks(model, 3, 1100, 9):
            for i, row in enumerate(times.tolist(), first):
                for state, t in enumerate(row, 3):
                    writer.writerow([i, fmt(t), state])
        # line by line: a mismatch shows one row, not a diff of 4 MB
        got = dump.read_text().splitlines(keepends=True)
        want = expected.getvalue().splitlines(keepends=True)
        assert len(got) == len(want) == 1 + 1100 * 128
        for line, wanted in zip(got, want):
            assert line == wanted

    def test_trajectory_dump_draws_each_block_once(self, tmp_path,
                                                   monkeypatch, capsys):
        # the summary drew every block, and the dump drew it again
        argv = ["simulate", "--family", "yule", "--N", "12", "--mu", "1",
                "--p", "0.5", "--replicates", "2100", "--seed", "3",
                "--jobs", "2"]
        summary = run_csv(capsys, argv)
        calls = []
        stream = montecarlo.replicate_stream

        def counted(master_seed, block):
            calls.append(block)
            return stream(master_seed, block)
        monkeypatch.setattr(montecarlo, "replicate_stream", counted)
        dump = tmp_path / "paths.csv"
        assert run_csv(capsys, argv + ["--trajectories", str(dump)]) == \
            summary
        assert sorted(calls) == [0, 1, 2]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_trajectory_dump_holds_one_block(self, tmp_path, monkeypatch,
                                             jobs):
        # the finished block stayed alive while the next was drawn, 2.13x,
        # and two threads drew ahead of the caller, 3.18x
        monkeypatch.setattr(cli, "_trajectory_lines",
                            lambda first, times, start: iter(()))
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            assert main(["simulate", "--family", "yule", "--N", "2000",
                         "--mu", "1", "--p", "0.31", "--replicates",
                         str(4 * montecarlo.BLOCK), "--seed", "3", "--jobs",
                         jobs, "--trajectories", str(tmp_path / "paths.csv"),
                         "--out", str(tmp_path / "s.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2000 * montecarlo.BLOCK * 8

    def test_failed_dump_leaves_no_thread_behind(self, tmp_path,
                                                 monkeypatch, capsys):
        lines = cli._trajectory_lines

        def failing(first, times, start):
            if first == montecarlo.BLOCK:
                raise OSError("the second block failed")
            return lines(first, times, start)

        monkeypatch.setattr(cli, "_trajectory_lines", failing)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        threads = threading.active_count()
        assert main(["simulate", "--family", "yule", "--N", "12", "--mu",
                     "1", "--p", "0.5", "--replicates",
                     str(3 * montecarlo.BLOCK), "--seed", "3", "--jobs", "2",
                     "--trajectories", str(tmp_path / "paths.csv"),
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert capsys.readouterr() == (
            "", "purebirth: error: the second block failed\n")
        assert threading.active_count() == threads

    @pytest.mark.parametrize("bad, message", [
        ({"--replicates": "1"}, "replicates must be an integer >= 2, got 1"),
        ({"--jobs": "0"}, "n_jobs must be an integer >= 1, got 0"),
        ({"--start": "0"}, "start_state 0 is not an integer in [1, 12]"),
        ({"--seed": "-1"}, "master_seed must be an integer >= 0, got -1"),
        ({"--start": "0", "--seed": "-1"},
         "start_state 0 is not an integer in [1, 12]")],
        ids=["replicates", "jobs", "start", "seed", "start-and-seed"])
    def test_trajectory_dump_refusals_create_no_file(self, tmp_path, capsys,
                                                     bad, message):
        # the same refusals, in the same order, as without the dump
        flags = {"--replicates": "10", "--seed": "3", "--jobs": "1",
                 "--start": "1", **bad}
        argv = ["simulate", "--family", "yule", "--N", "12", "--mu", "1",
                "--p", "0.5"] + [x for pair in flags.items() for x in pair]
        dump = tmp_path / "paths.csv"
        for extra in ([], ["--trajectories", str(dump)]):
            assert main(argv + extra) == 1
            assert capsys.readouterr() == ("",
                                           f"purebirth: error: {message}\n")
        assert not dump.exists()

    def test_rates_that_underflow_are_an_error(self, capsys, tmp_path):
        # 9 ** -400 underflows to 0: the mean used to come out inf
        assert main(["simulate", "--family", "powerlaw", "--c", "1",
                     "--exponent", "-400", "--cap", "10",
                     "--replicates", "100", "--seed", "1",
                     "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("purebirth: error: ")
        assert "smallest rate is 0.0" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "explosion"])
    def test_jobs_below_one_rejected(self, capsys, command):
        assert main([command, *QUADRATIC[command], "--replicates", "10",
                     "--seed", "1", "--jobs", "0"]) == 1
        assert "n_jobs must be an integer >= 1" in capsys.readouterr().err

    # explosion's model read {"c": 1.0, "cap": 20}, without its seed and
    # replicates
    @pytest.mark.parametrize("command", ["simulate", "explosion"])
    def test_json_metadata_names_rng_scheme(self, capsys, command):
        assert main([command, *QUADRATIC[command], "--replicates", "10",
                     "--seed", "1", "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["rng_scheme"] == RNG_SCHEME
        assert meta["model"] == {"family": "powerlaw", "c": 1.0,
                                 "exponent": 2.0, "cap": 20}
        assert (meta["seed"], meta["replicates"]) == (1, 10)

    def test_missing_seed_fails(self, capsys):
        assert main(["simulate", "--family", "hypergeometric", "--N", "3",
                     "--lambda", "1", "--p", "1", "--replicates", "10"]) != 0
        assert "--seed" in capsys.readouterr().err


def _rendered(values, fallback=fmt):
    """The text of each cell that the CSV writers render, or with repr's
    digits the JSON writer."""
    cells = _cells(np.array(values, dtype=float), fallback)
    return [bytes(row).replace(b"\0", b"").decode()
            for row in cells.view(np.uint8).reshape(len(values), 24)]


def _csv_dump(model, start, replicates, seed):
    """The bytes the csv module writes for the events of the dump."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["replicate", "time", "state"])
    for first, times in event_time_blocks(model, start, replicates, seed):
        for i, row in enumerate(times.tolist(), first):
            for state, t in enumerate(row, start):
                writer.writerow([i, fmt(t), state])
    return expected.getvalue().encode()


def _ties():
    """Doubles x whose x * 10**q, q = 16 - (decimal exponent of x), ends in
    exactly .5: the 17th digit is a tie, rounded half to even.  They are
    m / 2**(q + 1) with m odd, m < 2**53 and 1e16 <= m * 5**q / 2 < 1e17.
    q = 24 is the last q with one: 5**25 / 2 > 1e17."""
    out = []
    for q in range(1, 25):
        low = -(-2 * 10 ** 16 // 5 ** q) | 1
        high = min((2 * 10 ** 17 - 1) // 5 ** q, 2 ** 53 - 1)
        high -= 1 - high % 2
        for m in sorted({low, min(low + 2, high), min(low + 4, high), high}):
            x = m / 2 ** (q + 1)
            assert Fraction(x) * 10 ** q % 1 == Fraction(1, 2)
            out.append(x)
    return out


def _edges():
    """Up to 3 doubles on either side of each power of ten from 1e-13 to
    1e17, the power itself, the ties, 9.9999999999999995e{k}, the ends of
    the kernel's domain [1e-12, 1e16) and of its fixed form, 1e-4."""
    out = [1e-12, math.nextafter(1e-12, 0), 1e-4, math.nextafter(1e-4, 0),
           1e16, math.nextafter(1e16, 0)]
    for k in range(-13, 18):
        power = float(f"1e{k}")
        out.append(power)
        for toward in (0.0, math.inf):
            x = power
            for _ in range(3):
                x = math.nextafter(x, toward)
                out.append(x)
    out += [float(f"9.9999999999999995e{k}") for k in range(-13, 18)]
    return out + _ties()


class TestDumpCells:
    """The CSV writers render each cell as fmt does, by the float64 kernel
    in [1e-12, 1e16) and by fmt itself elsewhere."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(-13, 18).map(lambda u: 10.0 ** u)),
                    min_size=1, max_size=64))
    def test_cells_are_fmt(self, values):
        assert _rendered(values) == [fmt(x) for x in values]

    def test_edges_are_fmt(self):
        values = _edges()
        assert _rendered(values) == [fmt(x) for x in values]

    def test_both_exponent_corrections(self):
        # a guess one too high is corrected down, one too low up
        values = [x for x in _edges() if 1e-12 <= x < 1e16]
        x = np.array(values)
        digits, exponents = zip(*(format(v, ".16e").split("e")
                                  for v in values))
        want_D = [int(s.replace(".", "")) for s in digits]
        want_d = [int(s) for s in exponents]
        for miss in (-1, 0, 1):
            d, D, frac, unsure = _significand(
                x, np.array(want_d, np.int64) + miss)
            assert D.tolist() == want_D
            assert d.tolist() == want_d
            # D + frac is x * 10**q, exactly up to q = 22 and within 2**-44
            # past it
            for v, q, D_v, f in zip(values, 16 - d, D.tolist(),
                                    frac.tolist()):
                miss_by = Fraction(v) * 10 ** int(q) - D_v - Fraction(f)
                assert miss_by == 0 or (q > 22 and abs(miss_by) < 2 ** -44)

    @pytest.mark.parametrize("argv, model, start", [
        # times of 1e16 and more: fmt writes them with an exponent
        (["--family", "powerlaw", "--c", "1e-18", "--exponent", "2",
          "--cap", "30"], power_law(1e-18, 2, 30), 1),
        (["--family", "powerlaw", "--c", "1e-16", "--exponent", "0.5",
          "--cap", "10"], power_law(1e-16, 0.5, 10), 1),
        # first holding times below 1e-4
        (["--family", "yule", "--N", "40", "--mu", "1e4", "--p", "1"],
         yule_scaled(40, 1e4, 1), 2),
    ])
    def test_dump_outside_the_kernel_domain(self, tmp_path, argv, model,
                                            start):
        dump = tmp_path / "paths.csv"
        assert main(["simulate", *argv, "--start", str(start),
                     "--replicates", "150", "--seed", "3",
                     "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        times = np.vstack([t for _, t in
                           event_time_blocks(model, start, 150, 3)])
        outside = times[(times != 0) & ((times < 1e-4) | (times >= 1e16))]
        assert outside.size > 100
        assert dump.read_bytes() == _csv_dump(model, start, 150, 3)

    @pytest.mark.parametrize("cells", [1, 7, 25, 100, 2 ** 13])
    def test_dump_in_many_chunks(self, tmp_path, monkeypatch, cells):
        # rows of 12 states: chunks of one row where DUMP_CELLS (1 and 7)
        # holds less than a row, else of 2, 8 and 682 whole rows; 1100
        # replicates span a second block
        monkeypatch.setattr(cli, "DUMP_CELLS", cells)
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--family", "hypergeometric", "--N", "14",
                     "--lambda", "2", "--p", "0.5", "--start", "3",
                     "--replicates", "1100", "--seed", "11",
                     "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        model = hypergeometric_mixing(14, 2.0, 0.5)
        assert dump.read_bytes() == _csv_dump(model, 3, 1100, 11)

    def test_a_row_longer_than_a_chunk(self, tmp_path):
        # 10000 states, more than DUMP_CELLS: each replicate's row is a
        # chunk of its own
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--family", "hypergeometric",
                     "--N", "10000", "--lambda", "1", "--p", "1",
                     "--replicates", "3", "--seed", "2",
                     "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        model = hypergeometric_mixing(10000, 1.0, 1.0)
        assert model.absorbing_state > cli.DUMP_CELLS
        assert dump.read_bytes() == _csv_dump(model, 1, 3, 2)


def _shortest_ties(u):
    """Doubles x whose x * 10**q, q = 16 - (decimal exponent of x), is an
    integer that ends in u / 2, u = 10 or 100: a tie between two decimals
    of 17 - log10(u) digits.  They are j / 2**q with x * 10**q = j * 5**q,
    j odd for u = 10 and twice an odd number for u = 100."""
    out = []
    for q in range(2, 23):
        low = -(-10 ** 16 // 5 ** q)
        for j in range(low, min(low + 400, -(-10 ** 17 // 5 ** q))):
            x = j / 2 ** q
            if Fraction(x) * 10 ** q % u == u // 2:
                out.append(x)
    assert len(out) > 1000
    return out


def _short_decimals():
    """Decimals of 1-15 significant digits over the kernel's exponents,
    each with its neighbours up to 2 ulps away."""
    out = []
    for k in range(1, 16):
        for digits in ("1234567890123456"[:k], "9" * k, "1" + "0" * (k - 1),
                       "3" * (k - 1) + "7", "5" * k):
            for e in range(-12 - k + 1, 16 - k + 1):
                x = float(f"{int(digits)}e{e}")
                out.append(x)
                for toward in (0.0, math.inf):
                    y = x
                    for _ in range(2):
                        y = math.nextafter(y, toward)
                        out.append(y)
    return out


class TestShortestCells:
    """forward's JSON rows render each cell as repr does, by the kernel's
    shortest digits in [1e-12, 1e16) and by repr itself elsewhere."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(-13, 16).map(lambda u: 10.0 ** u)),
                    min_size=1, max_size=64))
    def test_cells_are_repr(self, values):
        assert _rendered(values, repr) == [repr(x) for x in values]

    @pytest.mark.parametrize("values", [
        # every power of two in the kernel's domain
        [2.0 ** k for k in range(-39, 54)],
        _shortest_ties(10), _shortest_ties(100), _short_decimals(),
        [1.0, math.nextafter(1.0, 0), PROB_FLOOR,
         math.nextafter(PROB_FLOOR, 0), math.nextafter(PROB_FLOOR, 1)],
        _edges()], ids=["powers of two", "16-digit ties", "15-digit ties",
                        "short decimals", "one and the floor", "edges"])
    def test_edges_are_repr(self, values):
        assert _rendered(values, repr) == [repr(x) for x in values]

    def test_the_kernel_writes_15_to_17_digits(self):
        # the cells that repr takes whole are few: not the 15- to 17-digit
        # probabilities of a forward run
        x = forward_grid(yule_scaled(2000, 1.0, 0.31), 1,
                         [8.0])[0].probabilities
        x = x[x > PROB_FLOOR]
        _, unsure = cli._fixed17(x, shortest=True)
        assert np.count_nonzero(unsure) < 0.02 * x.size
        lengths = {len(repr(v).split("e")[0].replace(".", "").lstrip("0"))
                   for v in x[~unsure].tolist()}
        assert lengths == {15, 16, 17}
        assert _rendered(x, repr) == [repr(v) for v in x.tolist()]


@pytest.mark.parametrize("head, tail", [(b"", b","), (b"", b""),
                                        (b",", b"\n"), (b"[", b"]" * 8)],
                         ids=["csv", "digits", "dump", "long tail"])
@pytest.mark.parametrize("k", [[0], [9], [10], [10 ** 7], [99999999],
                               [0, 9, 10, 10 ** 7, 99999999],
                               list(range(1, 5001)), [10 ** 8, 5],
                               [2 ** 62]],
                         ids=["0", "9", "10", "1e7", "99999999", "mixed",
                              "1-5000", "1e8", "2**62"])
def test_integer_words_are_percent_d(k, head, tail):
    want = cli._words([b"%s%d%s" % (head, v, tail) for v in k])
    got = cli._integers(np.array(k, np.int64), head, tail)
    assert got.shape == want.shape
    assert (got == want).all()


SWEEP_YULE = ["sweep", "--family", "yule", "--N", "10", "--mu", "1",
              "--p", "0.5"]
FAMILY_FLAGS = {
    "hypergeometric": ["--N", "50", "--lambda", "1", "--p", "0.3"],
    "yule": ["--N", "50", "--mu", "1", "--p", "0.3"],
    "powerlaw": ["--c", "1", "--exponent", "2", "--cap", "30"],
}
USED = {"hypergeometric": "N, lambda, p", "yule": "N, mu, p",
        "powerlaw": "c, exponent, cap"}
UNUSED_PARAMS = [("hypergeometric", "mu"), ("hypergeometric", "c"),
                 ("yule", "lambda"), ("yule", "c"), ("powerlaw", "N"),
                 ("powerlaw", "p"), ("powerlaw", "mu"),
                 ("powerlaw", "lambda")]


class TestSweep:
    def test_inverse_proportionality_in_p(self, capsys):
        rows = run_csv(capsys, ["sweep", "--family", "yule", "--N", "200",
                                "--mu", "1", "--param", "p",
                                "--values", "0.155,0.31,0.62"])
        means = [float(r["exact_mean"]) for r in rows]
        assert means[0] == pytest.approx(2.0 * means[1], rel=1e-12)
        assert means[2] == pytest.approx(0.5 * means[1], rel=1e-12)

    def test_population_sweep_has_approx_column(self, capsys):
        rows = run_csv(capsys, ["sweep", "--family", "yule", "--mu", "1",
                                "--p", "0.31", "--param", "N",
                                "--values", "100,200,400"])
        assert [r["N"] for r in rows] == ["100", "200", "400"]
        for row in rows:
            n = int(row["N"])
            assert float(row["approx_mean"]) == pytest.approx(
                math.log(n) / 0.31, rel=1e-12)

    def test_empty_values_usage_error(self, capsys):
        assert main(["sweep", "--family", "yule", "--N", "10", "--mu", "1",
                     "--p", "0.5", "--param", "p", "--values", ""]) != 0

    def test_invalid_grid_point_aborts_with_context(self, capsys):
        assert main(["sweep", "--family", "yule", "--N", "10", "--mu", "1",
                     "--p", "0.5", "--param", "p",
                     "--values", "0.5,2.0"]) != 0
        assert "p=2.0" in capsys.readouterr().err

    def test_bad_value_names_the_flag_and_the_value(self, capsys):
        assert main(["sweep", "--family", "yule", "--mu", "1", "--p", "0.5",
                     "--param", "N", "--values", "10,2.5e1"]) == 1
        assert capsys.readouterr().err == ("purebirth: error: --values: N "
                                           "must be an integer, got '2.5e1'\n")

    def test_values_must_increase(self, capsys):
        assert main(["sweep", "--family", "yule", "--N", "10", "--mu", "1",
                     "--p", "0.5", "--param", "p", "--values", "0.5,0.2"]) != 0

    @pytest.mark.parametrize("argv, message", [
        (FORWARD_YULE + ["--t-grid", "2,1"],
         "--t-grid must be strictly increasing"),
        (SWEEP_YULE + ["--param", "p", "--values", " , "],
         "--values is empty"),
        (SWEEP_YULE + ["--param", "p", "--values", "0.5,0.2"],
         "--values must be strictly increasing"),
    ])
    def test_both_lists_keep_their_messages(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"purebirth: error: {message}\n")

    # each used to print one identical row per value and exit 0
    @pytest.mark.parametrize("family, param", UNUSED_PARAMS)
    def test_param_the_family_ignores_is_refused(self, tmp_path, capsys,
                                                 family, param):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", family] + FAMILY_FLAGS[family]
                    + ["--param", param, "--values", "1,2",
                       "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"purebirth: error: sweep --param {param}: the {family} family "
            f"uses only {USED[family]}\n"))
        assert not out.exists()

    def test_every_ignored_param_is_tested(self):
        sweep = _config_actions(build_parser())["param"]
        assert set(UNUSED_PARAMS) == {
            (family, param) for family, used in USED.items()
            for param in sweep.choices if param not in used.split(", ")}


EXPLOSION = ["explosion", "--c", "1", "--cap", "50"]


class TestExplosionCommand:
    def test_reports_analytic_mean_and_bound(self, capsys):
        rows = run_csv(capsys, ["explosion", "--c", "1", "--cap", "200",
                                "--replicates", "2000", "--seed", "11"])
        row = rows[0]
        assert float(row["limit_bound"]) == pytest.approx(math.pi ** 2 / 6.0)
        assert abs(float(row["mean"]) - float(row["analytic_mean"])) < \
            3.0 * float(row["std_error"])

    def test_defaults_to_quadratic_powerlaw(self, capsys):
        rows = run_csv(capsys, ["explosion", "--c", "2", "--cap", "100",
                                "--replicates", "100", "--seed", "3"])
        assert rows[0]["cap"] == "100"

    @pytest.mark.parametrize("start", [1, 17])
    def test_columns_are_the_two_library_calls(self, capsys, start):
        rows = run_csv(capsys, EXPLOSION + [
            "--c", "0.7", "--start", str(start), "--replicates", "3000",
            "--seed", "5", "--jobs", "2"])
        model = power_law(0.7, 2.0, 50)
        analytic = expected_absorption_time(model, start)
        summary = estimate_absorption_time(model, start, 3000, 5)
        assert rows == [{
            "cap": "50", "analytic_mean": fmt(analytic.exact_mean),
            "limit_bound": fmt(analytic.approx_mean),
            "replicates": "3000", "master_seed": "5",
            "mean": fmt(summary.mean), "std_error": fmt(summary.std_error),
            **{f"q{round(100 * q):02d}": fmt(x)
               for q, x in summary.quantiles.items()},
            "time_unit": "time"}]

    def test_from_the_cap_every_time_is_zero(self, capsys):
        rows = run_csv(capsys, EXPLOSION + ["--start", "50",
                                            "--replicates", "10",
                                            "--seed", "1"])
        times = {key: value for key, value in rows[0].items() if key not in (
            "cap", "limit_bound", "replicates", "master_seed", "time_unit")}
        assert set(times) == {"analytic_mean", "mean", "std_error", "q05",
                              "q25", "q50", "q75", "q95"}
        assert set(times.values()) == {"0"}
        assert rows[0]["cap"] == "50"

    # each case breaks its own input and every later one; the first
    # refusal is the one printed.  The family, the start state and the
    # replicate count between them: TestExplosionStudy in test_montecarlo
    @pytest.mark.parametrize("flags, message", [
        (["--seed", "1"], "--replicates is required"),
        (["--replicates", "1"], "--seed is required"),
        (["--replicates", "2", "--seed", "-1", "--jobs", "0"],
         "n_jobs must be an integer >= 1, got 0"),
        (["--replicates", "2", "--seed", "-1"],
         "master_seed must be an integer >= 0, got -1"),
    ], ids=["replicates", "seed", "jobs", "seed-value"])
    def test_order_of_refusals(self, capsys, flags, message):
        assert main(EXPLOSION + flags) == 1
        assert capsys.readouterr() == ("", f"purebirth: error: {message}\n")


class TestConfigFile:
    def test_config_supplies_missing_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\nN = 2000\nmu = 1\np = 0.31\n"
                       "unit = hours\n# a comment\n")
        rows = run_csv(capsys, ["expect-time", "--config", str(cfg)])
        assert float(rows[0]["approx_mean"]) == pytest.approx(24.52, abs=0.01)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\nN = 2000\nmu = 1\np = 0.31\n")
        rows = run_csv(capsys, ["expect-time", "--config", str(cfg),
                                "--p", "0.62"])
        assert float(rows[0]["approx_mean"]) == pytest.approx(
            math.log(2000) / 0.62, rel=1e-12)

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\nN 2000  # no equals sign\n")
        assert main(["expect-time", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"purebirth: error: {cfg}:2: expected key = value, got "
            "'N 2000'\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("velocity = 3\n")
        assert main(["expect-time", "--config", str(cfg)]) != 0
        assert "velocity" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["method", "rel-tol", "max-step"])
    def test_removed_solver_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main(["forward", "--family", "yule", "--N", "5", "--mu", "1",
                     "--p", "1", "--t", "1", "--config", str(cfg)]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    # a config t-grid used to beat a --t flag
    @pytest.mark.parametrize("line", ["t-grid = 1,2", "t = 1"])
    def test_t_flag_overrides_config_times(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        rows = run_csv(capsys, FORWARD_YULE + ["--t", "5", "--config",
                                               str(cfg)])
        assert rows == run_csv(capsys, FORWARD_YULE + ["--t", "5"])
        assert {row["time"] for row in rows} == {"5"}

    def test_repeated_key_is_refused(self, tmp_path, capsys):
        # the first of the two lines won, where the last flag wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\nN = 10\nmu = 1\np = 0.3\nN = 20\n")
        out = tmp_path / "out.csv"
        assert main(["expect-time", "--config", str(cfg), "--N", "30",
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"purebirth: error: {cfg}:5: N sets the same input as N at "
            f"{cfg}:2\n"))
        assert not out.exists()

    def test_t_and_t_grid_in_one_file_are_refused(self, tmp_path, capsys):
        # both set the times, and the first line's times ran
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t-grid = 1,2\n# one time\nt = 5\n")
        assert main(FORWARD_YULE + ["--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", (
            f"purebirth: error: {cfg}:3: t sets the same input as t-grid at "
            f"{cfg}:1\n"))

    @pytest.mark.parametrize("key", ["help", "config", "version", "lam"])
    def test_non_flag_keys_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        assert main(["expect-time", "--config", str(cfg)]) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_key_of_another_subcommand_ignored(self, tmp_path, capsys):
        argv = ["expect-time", "--family", "yule", "--N", "50", "--mu", "1",
                "--p", "0.5"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 5\nreplicates = 10\nparam = p\n")
        assert run_csv(capsys, argv + ["--config", str(cfg)]) == \
            run_csv(capsys, argv)

    # explosion refused an exponent line, but the family keys are now
    # those of the other subcommands, as replicates is for forward
    @pytest.mark.parametrize("key, value, flags", [
        ("exponent", "-2", ["--family", "powerlaw", "--c", "1",
                            "--cap", "50"]),
        ("family", "yule", ["--N", "50", "--mu", "1", "--p", "0.5"])])
    def test_explosion_ignores_family_keys(self, tmp_path, capsys, key,
                                           value, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        run = EXPLOSION + ["--replicates", "10", "--seed", "1"]
        assert run_csv(capsys, run + ["--config", str(cfg)]) == \
            run_csv(capsys, run)
        # expect-time still reads the same file
        expect = ["expect-time", *flags]
        assert run_csv(capsys, expect + ["--config", str(cfg)]) == \
            run_csv(capsys, expect + [f"--{key}", value])

    def test_hash_inside_a_value_is_kept(self, tmp_path, capsys):
        # "out = run#3.csv" used to write to "run"
        out = tmp_path / "run#3.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# whole-line comment\nout = {out}\n"
                       "unit = wk#2  # a comment after whitespace\n"
                       "family = yule\nN = 50\nmu = 1\np = 0.5\t# tab\n")
        assert main(["expect-time", "--config", str(cfg)]) == 0
        assert set(os.listdir(tmp_path)) == {"run.cfg", "run#3.csv"}
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows == run_csv(capsys, ["expect-time", "--family", "yule",
                                        "--N", "50", "--mu", "1", "--p",
                                        "0.5", "--unit", "wk#2"])

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # a file saved with a BOM was refused as unknown key '\ufefffamily'
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\nN = 50\nmu = 1\np = 0.5\n",
                       encoding="utf-8-sig")
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbffamily")
        assert run_csv(capsys, ["expect-time", "--config", str(cfg)]) == \
            run_csv(capsys, ["expect-time", "--family", "yule", "--N", "50",
                             "--mu", "1", "--p", "0.5"])

    @pytest.mark.parametrize("command, line", [
        ("expect-time", "format = xml"), ("sweep", "param = q")])
    def test_choices_apply_to_config_values(self, tmp_path, capsys, command,
                                            line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"family = yule\nN = 50\nmu = 1\np = 0.5\n"
                       f"values = 0.5\n{line}\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert "must be one of" in capsys.readouterr().err

    def test_value_types_come_from_the_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\nN = 2000.5\nmu = 1\np = 0.31\n")
        assert main(["expect-time", "--config", str(cfg)]) == 1
        assert "2000.5" in capsys.readouterr().err

    def test_bad_number_names_file_line_and_key(self, tmp_path, capsys):
        # int("2.5") used to escape as "invalid literal for int() ..."
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = yule\n# population\nN = 2.5\nmu = 1\n")
        assert main(["expect-time", "--p", "0.3", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"purebirth: error: {cfg}:3: N must be an integer, got '2.5'\n")


# simulate takes all three path flags; --out and --config are on every
# subcommand
EMPTY_PATH_RUN = ["simulate", "--family", "yule", "--N", "12", "--mu", "1",
                  "--p", "0.5", "--replicates", "10", "--seed", "3"]


class TestEmptyPaths:
    """An empty path is refused before any work, not taken as no path:
    --out '' used to print to stdout, --trajectories '' to skip the dump
    and --config '' to read no file, each exiting 0."""

    @pytest.mark.parametrize("flag", ["--out", "--trajectories", "--config"])
    def test_empty_flag_is_refused(self, tmp_path, monkeypatch, capsys,
                                   flag):
        monkeypatch.chdir(tmp_path)
        assert main(EMPTY_PATH_RUN + [flag, ""]) == 1
        assert capsys.readouterr() == (
            "", f"purebirth: error: {flag} is an empty path\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["out", "trajectories"])
    @pytest.mark.parametrize("value", ["", "   ", "  # no path"])
    def test_empty_config_line_is_refused(self, tmp_path, monkeypatch,
                                          capsys, key, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} ={value}\n")
        assert main(EMPTY_PATH_RUN + ["--config", "run.cfg"]) == 1
        assert capsys.readouterr() == (
            "", f"purebirth: error: run.cfg:1: {key} is an empty path\n")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", ["expect-time", "forward", "sweep",
                                         "explosion"])
    def test_every_subcommand_refuses_an_empty_out(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   command):
        monkeypatch.chdir(tmp_path)
        assert main([command, "--out", ""]) == 1
        assert capsys.readouterr() == (
            "", "purebirth: error: --out is an empty path\n")
        assert list(tmp_path.iterdir()) == []


class TestPathsNameDistinctFiles:
    """Two of --out, --trajectories and --config that name one file are
    refused before any work.  Each used to exit 0: the summary overwrote
    the dump, or the output overwrote the config file."""

    RUN = ["simulate", "--family", "yule", "--N", "20", "--mu", "1",
           "--p", "0.5", "--replicates", "10", "--seed", "1"]

    @pytest.mark.parametrize("first, second", [("out", "trajectories"),
                                               ("out", "config"),
                                               ("trajectories", "config")])
    @pytest.mark.parametrize("source", ["flag", "config line"])
    @pytest.mark.parametrize("spelling", ["same", "dot", "symlink",
                                          "hard link"])
    def test_refused_leaving_every_file_unchanged(self, tmp_path,
                                                  monkeypatch, capsys,
                                                  first, second, source,
                                                  spelling):
        monkeypatch.chdir(tmp_path)
        # first names the shared file plainly, second by the spelling
        shared = "run.cfg" if second == "config" else "x.csv"
        lines = [f"{first} = {shared}\n"] if source == "config line" else []
        Path("run.cfg").write_text("# the config file\n" + "".join(lines))
        Path("x.csv").write_text("kept\n")
        alias = {"same": shared, "dot": "./" + shared, "symlink": "link",
                 "hard link": "hard"}[spelling]
        if spelling == "symlink":
            os.symlink(shared, "link")
        elif spelling == "hard link":
            os.link(shared, "hard")
        argv = self.RUN + [f"--{second}", alias]
        if source == "flag":
            argv += [f"--{first}", shared]
        if second != "config":
            argv += ["--config", "run.cfg"]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"purebirth: error: --{first} and --{second} name the same "
                "file\n")
        assert {path: path.read_bytes()
                for path in tmp_path.iterdir()} == before


CONFIG_KEYS = {
    "family", "N", "lambda", "mu", "p", "c", "exponent", "cap", "unit",
    "start", "seed", "replicates", "t", "t-grid", "out", "format", "param",
    "values", "jobs", "trajectories", "abs-tol"}

# one run per subcommand (two for expect-time and forward) whose flags
# together cover every config key; "out" and "trajectories" are added per
# run, as they name files
EQUIVALENT_RUNS = [
    ("expect-time", [("family", "yule"), ("N", "2000"), ("mu", "1"),
                     ("p", "0.31"), ("unit", "hours"), ("start", "3"),
                     ("format", "json")], ()),
    ("expect-time", [("family", "powerlaw"), ("c", "0.5"),
                     ("exponent", "1.5"), ("cap", "40")], ()),
    ("forward", [("family", "hypergeometric"), ("N", "30"),
                 ("lambda", "2"), ("p", "0.31"), ("t-grid", "0.5,2,8"),
                 ("abs-tol", "1e-6")], ()),
    ("forward", [("family", "yule"), ("N", "20"), ("mu", "1"), ("p", "1"),
                 ("t", "1.5"), ("start", "2"), ("format", "json")], ()),
    ("simulate", [("family", "yule"), ("N", "12"), ("mu", "1"),
                  ("p", "0.5"), ("replicates", "300"), ("seed", "7"),
                  ("jobs", "1")], ("trajectories",)),
    ("sweep", [("family", "hypergeometric"), ("N", "40"), ("lambda", "1"),
               ("p", "0.5"), ("param", "N"), ("values", "10,20,40")], ()),
    ("explosion", [("c", "2"), ("cap", "60"), ("replicates", "200"),
                   ("seed", "5"), ("jobs", "1")], ()),
]


# each subcommand's long flags but --help, in help order
SUBCOMMAND_FLAGS = {
    "expect-time": "--family --N --lambda --mu --p --exponent --c --cap "
                   "--unit --start --out --format --config",
    "forward": "--family --N --lambda --mu --p --exponent --c --cap --unit "
               "--start --out --format --config --abs-tol --t --t-grid",
    "simulate": "--family --N --lambda --mu --p --exponent --c --cap --unit "
                "--start --out --format --config --replicates --seed --jobs "
                "--trajectories",
    "sweep": "--family --N --lambda --mu --p --exponent --c --cap --unit "
             "--start --out --format --config --param --values",
    "explosion": "--c --cap --unit --start --out --format --config "
                 "--replicates --seed --jobs",
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    flags = {name: " ".join(flag for action in subparser._actions
                            for flag in action.option_strings
                            if flag.startswith("--") and flag != "--help")
             for name, subparser in subparsers.choices.items()}
    assert flags == SUBCOMMAND_FLAGS
    # each flag is declared once: the subcommands that take it share its
    # argparse action
    declared = {}
    for subparser in subparsers.choices.values():
        for action in subparser._actions:
            for flag in action.option_strings:
                declared.setdefault(flag, set()).add(id(action))
    assert {flag for flag, ids in declared.items() if len(ids) > 1} == \
        {"-h", "--help"}


def test_config_keys_are_the_long_flags_of_every_subcommand():
    assert set(_config_actions(build_parser())) == CONFIG_KEYS
    covered = {key for _, pairs, _ in EQUIVALENT_RUNS for key, _ in pairs}
    assert covered | {"out", "trajectories"} == CONFIG_KEYS


@pytest.mark.parametrize("command, pairs, files", EQUIVALENT_RUNS,
                         ids=[run[0] for run in EQUIVALENT_RUNS])
def test_config_file_is_equivalent_to_flags(tmp_path, command, pairs, files):
    outputs = []
    for mode in ("flags", "config"):
        paths = {key: tmp_path / f"{mode}-{key}" for key in ("out",) + files}
        items = pairs + [(key, str(path)) for key, path in paths.items()]
        if mode == "flags":
            argv = [command] + [arg for key, value in items
                                for arg in (f"--{key}", value)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key} = {value}\n"
                                   for key, value in items))
            argv = [command, "--config", str(cfg)]
        assert main(argv) == 0
        outputs.append([path.read_text() for path in paths.values()])
    assert outputs[0] == outputs[1]


def test_csv_has_no_trailing_whitespace(capsys):
    assert main(["expect-time", "--family", "yule", "--N", "50", "--mu", "1",
                 "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    for line in out.splitlines():
        assert line == line.strip()


# forward output against renderings by csv.writer + fmt and json.dumps
# (the writer the kernel path replaced); each case has rows below
# PROB_FLOOR that must be left out.  The first and third cases are solved
# by uniformization, the second by inversion, which also leaves out rows
# above PROB_FLOOR but at or below their snapshot's error bound.  The
# third writes rows from just above PROB_FLOOR to 1, so every exponent from
# e-05 to e-12.
WRITER_CASES = [
    (["--family", "hypergeometric", "--N", "50", "--lambda", "1",
      "--p", "0.31", "--t-grid", "0,10,50,100"],
     hypergeometric_mixing(50, 1.0, 0.31), 1, [0.0, 10.0, 50.0, 100.0]),
    (["--family", "yule", "--N", "2000", "--mu", "1", "--p", "0.31",
      "--start", "3", "--t-grid", "0.5,7,20", "--unit", "days"],
     yule_scaled(2000, 1.0, 0.31, "days"), 3, [0.5, 7.0, 20.0]),
    (["--family", "hypergeometric", "--N", "50", "--lambda", "1",
      "--p", "0.31", "--t-grid", "10,50,100", "--abs-tol", "1e-14"],
     hypergeometric_mixing(50, 1.0, 0.31), 1, [10.0, 50.0, 100.0]),
]


def _written(snap):
    """The (state, probability) pairs of a snapshot that forward writes:
    above PROB_FLOOR and, under inversion, above its error bound."""
    floor = PROB_FLOOR
    if snap.scheme == INVERSION_SCHEME:
        floor = max(floor, snap.error_bound)
    return [(int(state), float(prob))
            for state, prob in zip(snap.states, snap.probabilities)
            if prob > floor]


def _dropped(snap):
    """The fsum of a snapshot's probabilities that forward does not write."""
    written = {state for state, _ in _written(snap)}
    return math.fsum(float(prob) for state, prob
                     in zip(snap.states, snap.probabilities)
                     if state not in written)


def _reference_forward(argv, model, start, times, fmt_name):
    from purebirth import __version__
    from purebirth.cli import _model_spec

    header = ["time", "state", "probability"]
    args = build_parser().parse_args(["forward"] + argv)
    snaps = forward_grid(model, start, times, None if args.abs_tol is None
                         else SolverConfig(abs_tol=args.abs_tol))
    rows = [[snap.time, state, prob] for snap in snaps
            for state, prob in _written(snap)]
    assert len(rows) < sum(len(snap.states) for snap in snaps)
    if snaps[0].scheme == INVERSION_SCHEME:
        assert len(rows) < sum(int(np.count_nonzero(s.probabilities
                                                    > PROB_FLOOR))
                               for s in snaps)
    if fmt_name == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])
        return buf.getvalue()
    metadata = {"command": "forward", "version": __version__,
                "model": {k: v for k, v in _model_spec(args).items()
                          if v is not None},
                "times": times, "forward_scheme": snaps[0].scheme,
                "max_mass_defect": max(s.mass_defect for s in snaps),
                "max_error_bound": max(s.error_bound for s in snaps),
                "max_dropped_mass": max(_dropped(snap) for snap in snaps)}
    payload = {"metadata": metadata,
               "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_no_row_at_or_below_its_error_bound(tmp_path, monkeypatch):
    # P(T <= 20) is below e^-795 on this chain (a Chernoff bound), so the
    # 1.39e-11 that inversion finds at the absorbing state is its aliasing
    # floor, and no row 20,200000,1.3887453539657061e-11 may claim it
    snaps = []

    def solve(*args):
        snaps.extend(forward_grid(*args))
        return snaps
    monkeypatch.setattr(cli, "forward_grid", solve)
    out = tmp_path / "forward.csv"
    assert main(["forward", "--family", "yule", "--N", "200000", "--mu", "1",
                 "--p", "0.31", "--t", "20", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert not [line for line in lines if line.startswith("20,200000,")]
    snap, = snaps
    assert snap.scheme == INVERSION_SCHEME
    assert PROB_FLOOR < snap.probabilities[-1] <= snap.error_bound
    rows = [line.split(",") for line in lines[1:]]
    assert min(float(prob) for _, _, prob in rows) > snap.error_bound
    # the rows the tracer counts are the rows written
    assert len(rows) == len(cli._SnapshotRows(snaps)) == len(_written(snap))
    assert len(rows) < np.count_nonzero(snap.probabilities > PROB_FLOOR)


@pytest.mark.parametrize("case", range(len(WRITER_CASES)))
@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("to_file", [False, True])
def test_forward_output_bytes_match_reference_writer(tmp_path, capsys, case,
                                                     fmt_name, to_file):
    argv, model, start, times = WRITER_CASES[case]
    argv = argv + ["--format", fmt_name]
    out = tmp_path / f"forward.{fmt_name}"
    assert main(["forward"] + argv
                + (["--out", str(out)] if to_file else [])) == 0
    got = out.read_text() if to_file else capsys.readouterr().out
    want = _reference_forward(argv, model, start, times, fmt_name)
    # line by line: a mismatch shows one row
    got_lines = got.splitlines(keepends=True)
    want_lines = want.splitlines(keepends=True)
    for line, wanted in zip(got_lines, want_lines):
        assert line == wanted
    assert len(got_lines) == len(want_lines)
    if case == 2 and fmt_name == "csv":
        assert set(re.findall(r"e-(\d\d)$", got, re.M)) == {
            f"{k:02d}" for k in range(5, 13)}


def test_dropped_mass_is_what_the_written_rows_leave_out(capsys):
    # on each time the written rows and the dropped mass make up the
    # snapshot's mass
    argv = ["forward", "--family", "yule", "--N", "20000", "--mu", "1",
            "--p", "0.31", "--t-grid", "5,15"]
    assert main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert main(argv + ["--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    snaps = forward_grid(yule_scaled(20000, 1.0, 0.31), 1, [5.0, 15.0])
    assert snaps[0].scheme == INVERSION_SCHEME
    dropped = cli._SnapshotRows(snaps).dropped()
    assert meta["max_dropped_mass"] == max(dropped) == max(map(_dropped,
                                                                snaps))
    for snap, mass in zip(snaps, dropped):
        written = math.fsum(float(prob) for t, _, prob in rows
                            if float(t) == snap.time)
        assert written + mass == pytest.approx(
            math.fsum(snap.probabilities.tolist()), abs=1e-15, rel=0)
    # at N = 2e5 and t = 15 the rows left out hold 4.08e-8, four times
    # MASS_DEFECT_TOL: 3.8e-8 in the rows at or below their error bound
    snaps = forward_grid(yule_scaled(200000, 1.0, 0.31), 1, [15.0])
    assert 4.0e-8 < max(cli._SnapshotRows(snaps).dropped()) < 4.2e-8


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_forward_writes_rows_as_they_are_formatted(tmp_path, fmt_name):
    # the CLI holds no row table and no whole document beside
    # forward_grid's snapshots, so its peak stays near the solve's own
    times = [12.0, 13.0, 14.0, 15.0, 16.0]
    solve = _traced_peak(
        lambda: forward_grid(yule_scaled(20000, 1.0, 0.31), 1, times))
    write = _traced_peak(lambda: main(
        ["forward", "--family", "yule", "--N", "20000", "--mu", "1", "--p",
         "0.31", "--t-grid", "12,13,14,15,16", "--format", fmt_name,
         "--out", str(tmp_path / f"forward.{fmt_name}")]))
    assert write <= 1.25 * solve


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("argv, message", [
    (["forward", "--family", "powerlaw", "--c", "1", "--exponent", "-2",
      "--cap", "2000", "--t", "1e9"], "uniformization would take about"),
    (["simulate", "--family", "yule", "--N", "12", "--mu", "1", "--p", "0.5",
      "--replicates", "1", "--seed", "3"], "replicates must be an integer"),
    (["explosion", "--c", "1", "--cap", "20", "--replicates", "1", "--seed",
      "1"], "replicates must be an integer"),
    (["expect-time", "--family", "yule", "--N", "10", "--mu", "1", "--p",
      "0.31", "--start", "11"], "start_state 11 is not an integer")],
    ids=["forward", "simulate", "explosion", "expect-time"])
def test_refusals_create_no_output_file(tmp_path, capsys, argv, message,
                                        fmt_name):
    # the work is done before --out is opened, so streaming the output
    # leaves no empty or partial file behind a refusal
    out = tmp_path / "out"
    assert main(argv + ["--format", fmt_name, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"purebirth: error: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


# two runs whose outputs differ; the second is the rerun
FIRST_RUN = ["expect-time", "--family", "yule", "--N", "200", "--mu", "1",
             "--p", "0.31"]
RERUN = ["expect-time", "--family", "yule", "--N", "300", "--mu", "1",
         "--p", "0.31"]
DUMP_RUN = ["simulate", "--family", "yule", "--N", "12", "--mu", "1", "--p",
            "0.5", "--replicates", "10", "--seed", "3"]


def _fresh(tmp_path, argv):
    """The bytes argv writes to --out in a directory of its own."""
    fresh = tmp_path / "fresh" / "out"
    fresh.parent.mkdir()
    assert main(argv + ["--out", str(fresh)]) == 0
    return fresh.read_bytes()


class TestOutputIsReplaced:
    """An existing regular output file is unlinked and made again with its
    permission bits; any other path is opened as before."""

    def test_a_hard_link_keeps_the_old_bytes(self, tmp_path):
        out, old = tmp_path / "r.csv", tmp_path / "old.csv"
        assert main(FIRST_RUN + ["--out", str(out)]) == 0
        first = out.read_bytes()
        os.link(out, old)
        assert main(RERUN + ["--out", str(out)]) == 0
        assert old.read_bytes() == first
        assert out.read_bytes() == _fresh(tmp_path, RERUN) != first

    @pytest.mark.parametrize("flag", ["--out", "--trajectories"])
    def test_permission_bits_are_kept(self, tmp_path, flag):
        path = tmp_path / "r.csv"
        assert main(DUMP_RUN + [flag, str(path)]) == 0
        path.chmod(0o600)
        assert main(DUMP_RUN + ["--seed", "4", flag, str(path)]) == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o600

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        assert main(RERUN + ["--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == _fresh(tmp_path, RERUN)

    @pytest.mark.parametrize("flag", ["--out", "--trajectories"])
    def test_dev_null_stays_a_device(self, flag):
        # a device is written, never unlinked: the tests may run as root
        assert main(DUMP_RUN + [flag, os.devnull]) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_a_refused_unlink_truncates(self, tmp_path, monkeypatch):
        out = tmp_path / "r.csv"
        out.write_text("x" * 10000)

        def refused(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli.os, "unlink", refused)
        assert main(RERUN + ["--out", str(out)]) == 0
        monkeypatch.undo()
        assert out.read_bytes() == _fresh(tmp_path, RERUN)

    def test_a_file_the_caller_may_not_write_is_not_replaced(
            self, tmp_path, monkeypatch):
        # such a file is opened as before: refused, or, where the caller
        # may write it after all (root), truncated in place
        out, old = tmp_path / "r.csv", tmp_path / "old.csv"
        out.write_text("x" * 10000)
        os.link(out, old)
        monkeypatch.setattr(cli.os, "access", lambda path, how: False)
        assert main(RERUN + ["--out", str(out)]) == 0
        monkeypatch.undo()
        assert old.read_bytes() == out.read_bytes() == _fresh(tmp_path, RERUN)

    @pytest.mark.parametrize("argv, flag", [
        (["forward", "--family", "powerlaw", "--c", "1", "--exponent", "-2",
          "--cap", "2000", "--t", "1e9"], "--out"),
        (DUMP_RUN[:-4] + ["--replicates", "1", "--seed", "3"],
         "--trajectories")], ids=["forward", "simulate"])
    def test_a_refused_call_keeps_the_old_output(self, tmp_path, capsys,
                                                argv, flag):
        path = tmp_path / "old.csv"
        path.write_bytes(b"old bytes\n")
        assert main(argv + [flag, str(path)]) == 1
        assert capsys.readouterr().err.startswith("purebirth: error: ")
        assert path.read_bytes() == b"old bytes\n"


def _one_chunk_then(error, lines):
    """A stand-in for a chunk generator: its first chunk, then error."""
    def failing(*args):
        yield next(iter(lines(*args)))
        raise error
    return failing


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
class TestFailedWriteLeavesNoFile:
    def test_forward_rows(self, tmp_path, monkeypatch, capsys, existing):
        out = tmp_path / "forward.csv"
        if existing:
            out.write_text("old\n")
        monkeypatch.setattr(cli._SnapshotRows, "csv_lines", _one_chunk_then(
            OSError("disk full"), cli._SnapshotRows.csv_lines))
        assert main(["forward", "--family", "yule", "--N", "2000", "--mu",
                     "1", "--p", "0.31", "--t-grid", "10,20", "--out",
                     str(out)]) == 1
        assert capsys.readouterr() == ("", "purebirth: error: disk full\n")
        assert not out.exists()

    def test_trajectory_dump(self, tmp_path, monkeypatch, capsys, existing):
        dump, out = tmp_path / "paths.csv", tmp_path / "s.csv"
        if existing:
            dump.write_text("old\n")
            out.write_text("old\n")
        monkeypatch.setattr(cli, "_trajectory_lines", _one_chunk_then(
            OSError("disk full"), cli._trajectory_lines))
        assert main(DUMP_RUN + ["--trajectories", str(dump),
                                "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "purebirth: error: disk full\n")
        assert not dump.exists()
        # --out is opened after the dump, so an old one is left as it was
        assert out.exists() == existing

    def test_an_interrupt_removes_the_file(self, tmp_path, monkeypatch,
                                           existing):
        out = tmp_path / "forward.csv"
        if existing:
            out.write_text("old\n")
        monkeypatch.setattr(cli._SnapshotRows, "csv_lines", _one_chunk_then(
            KeyboardInterrupt(), cli._SnapshotRows.csv_lines))
        with pytest.raises(KeyboardInterrupt):
            main(FORWARD_YULE + ["--t-grid", "1,2", "--out", str(out)])
        assert not out.exists()


def test_json_metadata_names_inversion_scheme(capsys):
    assert main(["forward", "--family", "yule", "--N", "2000", "--mu", "1",
                 "--p", "0.31", "--t-grid", "10,20", "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert meta["forward_scheme"] == INVERSION_SCHEME == "euler-inversion-v1"
    snaps = forward_grid(yule_scaled(2000, 1.0, 0.31), 1, [10.0, 20.0])
    assert meta["max_mass_defect"] == max(s.mass_defect for s in snaps)
    assert 0.0 < meta["max_mass_defect"] <= 1e-10
    # INVERSION_BOUND plus the larger of the two times' estimates
    assert meta["max_error_bound"] == max(s.error_bound for s in snaps)
    assert INVERSION_BOUND < meta["max_error_bound"] <= 1e-10


START_ZERO = {
    "expect-time": ["--family", "yule", "--N", "10", "--mu", "1",
                    "--p", "0.31"],
    "forward": ["--family", "yule", "--N", "10", "--mu", "1", "--p", "0.31",
                "--t", "1"],
    "simulate": ["--family", "yule", "--N", "10", "--mu", "1", "--p", "0.31",
                 "--replicates", "10", "--seed", "1"],
    "sweep": ["--family", "yule", "--N", "10", "--mu", "1", "--p", "0.31",
              "--param", "p", "--values", "0.3,0.5"],
    "explosion": ["--c", "1", "--cap", "20", "--replicates", "10",
                  "--seed", "1"],
}


@pytest.mark.parametrize("command", START_ZERO)
def test_start_zero_is_an_error(capsys, command):
    # --start 0 used to run from state 1
    assert main([command, "--start", "0"] + START_ZERO[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("purebirth: error: ")
    assert "start_state 0 is not an integer" in captured.err


@pytest.mark.parametrize("command, engine", [
    ("simulate", "estimate_absorption_time"), ("forward", "forward_grid")])
def test_memory_error_is_an_error_not_a_traceback(capsys, monkeypatch,
                                                  command, engine):
    # numpy's message when, say, --N 100000000000 asks for a state vector
    message = ("Unable to allocate 745. GiB for an array with shape "
               "(100000000000,) and data type float64")

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, engine, out_of_memory)
    assert main([command] + START_ZERO[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"purebirth: error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "explosion"])
def test_negative_seed_is_an_error(capsys, command):
    assert main([command, "--seed", "-1"]
                + START_ZERO[command][:-2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("purebirth: error: master_seed must be")


# in-process calls share one parser; each must behave as a first call would
EXPECT = ["expect-time", "--family", "yule", "--N", "200", "--mu", "1",
          "--p", "0.31"]


def _first_call_out(capsys, argv):
    """stdout of main(argv) on a freshly built parser."""
    _parser.cache_clear()
    assert main(argv) == 0
    return capsys.readouterr().out


class TestInProcessCallsAreIndependent:
    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_config_keys_do_not_reach_the_next_call(self, tmp_path, capsys):
        first = _first_call_out(capsys, EXPECT)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unit = weeks\nformat = json\nstart = 5\n")
        assert main(EXPECT + ["--config", str(cfg)]) == 0
        configured = capsys.readouterr().out
        assert '"time_unit": "weeks"' in configured
        assert main(EXPECT) == 0
        assert capsys.readouterr().out == first
        # every subcommand still parses as on a freshly built parser
        for command in ("expect-time", "forward", "simulate", "sweep",
                        "explosion"):
            assert (vars(_parser().parse_args([command]))
                    == vars(build_parser().parse_args([command])))

    @pytest.mark.parametrize("argv", [
        ["expect-time", "--no-such-flag"],
        ["expect-time", "--format", "xml"],
        ["no-such-command"],
        [],
        ["--version"],
        ["--help"],
        ["forward", "--help"],
    ], ids=["unknown-flag", "bad-choice", "unknown-command", "no-command",
            "version", "help", "subcommand-help"])
    def test_exit_leaves_the_next_call_unchanged(self, capsys, argv):
        first = _first_call_out(capsys, EXPECT)
        _parser.cache_clear()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        fresh = capsys.readouterr()
        with pytest.raises(SystemExit) as again_info:
            main(argv)
        # the same exit writes the same bytes on the parser it already used
        assert again_info.value.code == exit_info.value.code
        assert capsys.readouterr() == fresh
        assert main(EXPECT) == 0
        assert capsys.readouterr().out == first

    def test_concurrent_calls_match_serial_calls(self, tmp_path):
        cfg = tmp_path / "forward.cfg"
        cfg.write_text("family = hypergeometric\nN = 60\nlambda = 1\n"
                       "p = 0.31\nt-grid = 1,5,20\nformat = json\n")
        calls = {
            "forward": ["forward", "--config", str(cfg)],
            "simulate": ["simulate", "--family", "yule", "--N", "50",
                         "--mu", "1", "--p", "0.31", "--replicates", "3000",
                         "--seed", "11"],
            "expect-time": EXPECT + ["--format", "json", "--unit", "days"],
            "sweep": ["sweep", "--family", "yule", "--N", "300", "--mu", "1",
                      "--param", "p", "--values", "0.2,0.31,0.5"],
        }

        def run(name, tag, rounds):
            for i in range(rounds):
                path = tmp_path / f"{tag}-{name}-{i}"
                assert main(calls[name] + ["--out", str(path)]) == 0

        for name in calls:
            run(name, "serial", 1)
        barrier = threading.Barrier(len(calls))

        def worker(name):
            barrier.wait()
            run(name, "thread", 20)

        threads = [threading.Thread(target=worker, args=(name,))
                   for name in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for name in calls:
            serial = (tmp_path / f"serial-{name}-0").read_bytes()
            for i in range(20):
                assert (tmp_path / f"thread-{name}-{i}").read_bytes() == serial


ROOT = Path(__file__).resolve().parent.parent


def _run_cli(argv):
    """The CLI as a one-shot process: python -m purebirth.cli argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "purebirth.cli"] + argv,
                          env=env, capture_output=True, timeout=120)


class TestOneShotProcess:
    def test_output_bytes_match_in_process_main(self, capsys):
        argv = EXPECT + ["--unit", "hours"]
        done = _run_cli(argv)
        assert done.returncode == 0, done.stderr
        assert done.stderr == b""
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out.encode()

    def test_library_error_exits_one(self):
        done = _run_cli(EXPECT + ["--start", "0"])
        assert done.returncode == 1
        assert done.stdout == b""
        assert done.stderr.startswith(b"purebirth: error: ")

    def test_unknown_flag_exits_two(self):
        done = _run_cli(EXPECT + ["--no-such-flag"])
        assert done.returncode == 2
        assert done.stdout == b""
        assert b"unrecognized arguments: --no-such-flag" in done.stderr


def _readme_commands():
    """Each ``purebirth ...`` line of README's sh blocks, as an argv."""
    text = (ROOT / "README.md").read_text()
    return [shlex.split(line, comments=True)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("purebirth ")]


README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == {
        "expect-time", "forward", "simulate", "sweep", "explosion"}


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    # so README's CLI examples cannot drift from the flags
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0, capsys.readouterr().err
