import csv
import io
import json
import math

import pytest

from purebirth import absorption_probability, hypergeometric_mixing, power_law
from purebirth.cli import fmt, main
from purebirth.forward import FORWARD_SCHEME, forward_grid
from purebirth.montecarlo import (RNG_SCHEME, _simulate_ensemble,
                                  event_time_blocks)


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

    def test_invalid_population_exits_nonzero(self, capsys):
        assert main(["expect-time", "--family", "yule", "--N", "1",
                     "--mu", "1", "--p", "0.31"]) != 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "N must be >= 2" in captured.err

    def test_floats_round_trip_exactly(self, capsys):
        rows = run_csv(capsys, ["expect-time", "--family", "hypergeometric",
                                "--N", "17", "--lambda", "1.3", "--p", "0.31"])
        from purebirth import expected_absorption_time, hypergeometric_mixing
        exact = expected_absorption_time(
            hypergeometric_mixing(17, 1.3, 0.31)).exact_mean
        assert float(rows[0]["exact_mean"]) == exact

    def test_json_format(self, capsys):
        assert main(["expect-time", "--family", "yule", "--N", "100",
                     "--mu", "1", "--p", "0.5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["command"] == "expect-time"
        assert payload["metadata"]["model"]["N"] == 100
        assert payload["rows"][0]["approx_mean"] == pytest.approx(
            math.log(100) / 0.5)


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
                absorption_probability(model, 1, t), abs=1e-9)

    def test_requires_a_time(self, capsys):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1"]) != 0
        assert "--t" in capsys.readouterr().err

    def test_rejects_unsorted_grid(self, capsys):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1", "--t-grid", "2,1"]) != 0

    @pytest.mark.parametrize("times", [["--t-grid", "1,nan"],
                                       ["--t", "inf"], ["--t", "nan"]])
    def test_non_finite_time_is_an_error(self, capsys, times):
        assert main(["forward", "--family", "hypergeometric", "--N", "5",
                     "--lambda", "1", "--p", "1"] + times) == 1
        assert capsys.readouterr().err == \
            "purebirth: error: times must be finite\n"

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

    def test_json_metadata_names_scheme_and_mass_defect(self, capsys):
        assert main(["forward", "--family", "powerlaw", "--c", "1",
                     "--exponent", "2", "--cap", "30", "--t-grid", "0,0.5,2",
                     "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["forward_scheme"] == FORWARD_SCHEME == "uniformization-v1"
        snaps = forward_grid(power_law(1.0, 2.0, 30), 1, [0.0, 0.5, 2.0])
        assert meta["max_mass_defect"] == max(s.mass_defect for s in snaps)
        assert 0.0 <= meta["max_mass_defect"] <= 1e-12


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

    @pytest.mark.parametrize("command", ["simulate", "explosion"])
    def test_jobs_below_one_rejected(self, capsys, command):
        assert main([command, "--family", "powerlaw", "--c", "1",
                     "--exponent", "2", "--cap", "20", "--replicates", "10",
                     "--seed", "1", "--jobs", "0"]) == 1
        assert "n_jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "explosion"])
    def test_json_metadata_names_rng_scheme(self, capsys, command):
        assert main([command, "--family", "powerlaw", "--c", "1",
                     "--exponent", "2", "--cap", "20", "--replicates", "10",
                     "--seed", "1", "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["metadata"]
        assert meta["rng_scheme"] == RNG_SCHEME

    def test_missing_seed_fails(self, capsys):
        assert main(["simulate", "--family", "hypergeometric", "--N", "3",
                     "--lambda", "1", "--p", "1", "--replicates", "10"]) != 0
        assert "--seed" in capsys.readouterr().err


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

    def test_values_must_increase(self, capsys):
        assert main(["sweep", "--family", "yule", "--N", "10", "--mu", "1",
                     "--p", "0.5", "--param", "p", "--values", "0.5,0.2"]) != 0


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


def test_csv_has_no_trailing_whitespace(capsys):
    assert main(["expect-time", "--family", "yule", "--N", "50", "--mu", "1",
                 "--p", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    for line in out.splitlines():
        assert line == line.strip()
