import csv
import io
import json
import math

import pytest

from purebirth import absorption_probability, hypergeometric_mixing, power_law
from purebirth.cli import _config_actions, build_parser, fmt, main
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


def test_json_metadata_names_inversion_scheme(capsys):
    assert main(["forward", "--family", "yule", "--N", "2000", "--mu", "1",
                 "--p", "0.31", "--t-grid", "10,20", "--format", "json"]) == 0
    meta = json.loads(capsys.readouterr().out)["metadata"]
    assert meta["forward_scheme"] == INVERSION_SCHEME == "euler-inversion-v1"
    snaps = forward_grid(yule_scaled(2000, 1.0, 0.31), 1, [10.0, 20.0])
    assert meta["max_mass_defect"] == max(s.mass_defect for s in snaps)
    assert 0.0 < meta["max_mass_defect"] <= 1e-10
