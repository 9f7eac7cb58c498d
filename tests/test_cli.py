import argparse
import csv
import io
import json
import math
import os
import re
import shlex
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
from purebirth.cli import (_cells, _config_actions, _parser, _significand,
                           build_parser, fmt, main)
from purebirth.forward import FORWARD_SCHEME, forward_grid
from purebirth.montecarlo import (RNG_SCHEME, _simulate_ensemble,
                                  event_time_blocks)
from purebirth import yule_scaled
from purebirth.forward import INVERSION_SCHEME


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


def _rendered(values):
    """The text of each cell that the trajectory dump renders."""
    cells = _cells(np.array(values, dtype=float))
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
    m / 2**(q + 1) with m odd, m < 2**53 and 1e16 <= m * 5**q / 2 < 1e17."""
    out = []
    for q in range(1, 21):
        low = -(-2 * 10 ** 16 // 5 ** q) | 1
        high = min((2 * 10 ** 17 - 1) // 5 ** q, 2 ** 53 - 1)
        high -= 1 - high % 2
        for m in (low, low + 2, low + 4, high):
            x = m / 2 ** (q + 1)
            assert Fraction(x) * 10 ** q % 1 == Fraction(1, 2)
            out.append(x)
    return out


def _edges():
    """Up to 3 doubles on either side of each power of ten from 1e-5 to
    1e17, the power itself, the ties, 9.9999999999999995e{k} and the ends
    of the kernel's domain [1e-4, 1e16)."""
    out = [1e-4, math.nextafter(1e-4, 0), 1e16, math.nextafter(1e16, 0)]
    for k in range(-5, 18):
        power = float(f"1e{k}")
        out.append(power)
        for toward in (0.0, math.inf):
            x = power
            for _ in range(3):
                x = math.nextafter(x, toward)
                out.append(x)
    out += [float(f"9.9999999999999995e{k}") for k in range(-5, 18)]
    return out + _ties()


class TestDumpCells:
    """The dump renders each time as fmt does, by the float64 kernel in
    [1e-4, 1e16) and by fmt itself elsewhere."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(-6, 18).map(lambda u: 10.0 ** u)),
                    min_size=1, max_size=64))
    def test_cells_are_fmt(self, values):
        assert _rendered(values) == [fmt(x) for x in values]

    def test_edges_are_fmt(self):
        values = _edges()
        assert _rendered(values) == [fmt(x) for x in values]

    def test_both_exponent_corrections(self):
        # a guess one too high is corrected down, one too low up
        values = [x for x in _edges() if 1e-4 <= x < 1e16]
        x = np.array(values)
        digits, exponents = zip(*(format(v, ".16e").split("e")
                                  for v in values))
        want_D = [int(s.replace(".", "")) for s in digits]
        want_d = [int(s) for s in exponents]
        for miss in (-1, 0, 1):
            d, D = _significand(x, np.array(want_d, np.int64) + miss)
            assert D.tolist() == want_D
            assert d.tolist() == want_d

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
        # rows of 12 states cut into chunks of 1 and 7 cells, and chunks of
        # 2, 8 and 682 whole rows; 1100 replicates span a second block
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
        # 9999 states: each replicate's row spans two chunks
        dump = tmp_path / "paths.csv"
        assert main(["simulate", "--family", "hypergeometric",
                     "--N", "10000", "--lambda", "1", "--p", "1",
                     "--replicates", "3", "--seed", "2",
                     "--trajectories", str(dump),
                     "--out", str(tmp_path / "s.csv")]) == 0
        model = hypergeometric_mixing(10000, 1.0, 1.0)
        assert model.absorbing_state > cli.DUMP_CELLS
        assert dump.read_bytes() == _csv_dump(model, 1, 3, 2)


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
# (the writer the template path replaced); each case has rows below
# PROB_FLOOR that must be left out.  The first case is solved by
# uniformization, the second by inversion.
WRITER_CASES = [
    (["--family", "hypergeometric", "--N", "50", "--lambda", "1",
      "--p", "0.31", "--t-grid", "0,10,50,100"],
     hypergeometric_mixing(50, 1.0, 0.31), 1, [0.0, 10.0, 50.0, 100.0]),
    (["--family", "yule", "--N", "2000", "--mu", "1", "--p", "0.31",
      "--start", "3", "--t-grid", "0.5,7,20", "--unit", "days"],
     yule_scaled(2000, 1.0, 0.31, "days"), 3, [0.5, 7.0, 20.0]),
]


def _reference_forward(argv, model, start, times, fmt_name):
    from purebirth import __version__
    from purebirth.cli import PROB_FLOOR, _model_spec

    header = ["time", "state", "probability"]
    snaps = forward_grid(model, start, times)
    rows = [[snap.time, int(state), float(prob)] for snap in snaps
            for state, prob in zip(snap.states, snap.probabilities)
            if prob > PROB_FLOOR]
    assert len(rows) < sum(len(snap.states) for snap in snaps)
    if fmt_name == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(cell) for cell in row])
        return buf.getvalue()
    args = build_parser().parse_args(["forward"] + argv)
    metadata = {"command": "forward", "version": __version__,
                "model": {k: v for k, v in _model_spec(args).items()
                          if v is not None},
                "times": times, "forward_scheme": snaps[0].scheme,
                "max_mass_defect": max(s.mass_defect for s in snaps)}
    payload = {"metadata": metadata,
               "rows": [dict(zip(header, row)) for row in rows]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


def test_json_metadata_names_inversion_scheme(capsys):
    assert main(["forward", "--family", "yule", "--N", "2000", "--mu", "1",
                 "--p", "0.31", "--t-grid", "10,20", "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert meta["forward_scheme"] == INVERSION_SCHEME == "euler-inversion-v1"
    snaps = forward_grid(yule_scaled(2000, 1.0, 0.31), 1, [10.0, 20.0])
    assert meta["max_mass_defect"] == max(s.mass_defect for s in snaps)
    assert 0.0 < meta["max_mass_defect"] <= 1e-10


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
