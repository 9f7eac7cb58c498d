"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import csv
import math

import numpy as np
import pytest

from purebirth import (estimate_absorption_time, expected_absorption_time,
                       forward_probabilities,
                       hypergeometric_mixing, power_law, yule_scaled)
from purebirth.cli import main
from purebirth.montecarlo import _simulate_ensemble

SEED = 123


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def run_cli_rows(capsys, argv):
    assert main(argv) == 0
    return list(csv.DictReader(capsys.readouterr().out.splitlines()))


def test_criterion_1_fans_approximation(capsys):
    rows = run_cli_rows(capsys, ["expect-time", "--family", "yule",
                                 "--N", "2000", "--mu", "1", "--p", "0.31",
                                 "--unit", "hours"])
    approx = float(rows[0]["approx_mean"])
    assert approx == pytest.approx(24.52, abs=0.01)
    report(1, f"ln(2000)/0.31 = {approx:.4f} hours (24.52 +/- 0.01)")


def test_criterion_2_cruise_approximation(capsys):
    rows = run_cli_rows(capsys, ["expect-time", "--family", "yule",
                                 "--N", "6700", "--mu", "3", "--p", "0.31",
                                 "--unit", "days"])
    approx = float(rows[0]["approx_mean"])
    assert approx == pytest.approx(9.47, abs=0.01)
    report(2, f"ln(6700)/0.93 = {approx:.4f} days (9.47 +/- 0.01)")


def test_criterion_3_exact_vs_approx_diagnostic():
    # independent oracle: (1999/620) * H_1999 by direct compensated summation
    h_1999 = math.fsum(1.0 / k for k in range(1, 2000))
    oracle = (1999.0 / 620.0) * h_1999
    model = yule_scaled(2000, 1.0, 0.31, "hours")
    rep = expected_absorption_time(model)
    assert rep.exact_mean == pytest.approx(oracle, rel=1e-10)
    assert rep.exact_mean > rep.approx_mean
    assert h_1999 > math.log(2000)
    report(3, f"exact {rep.exact_mean:.4f} h matches the oracle to 1e-10 "
              f"and exceeds the approximation {rep.approx_mean:.4f} h")


def test_criterion_4_inverse_proportionality_in_p():
    worst = 0.0
    for n in (2, 3, 5, 10, 50):
        for lam in (0.5, 1.0, 3.0):
            for p in (0.155, 0.31, 0.5):
                base = expected_absorption_time(
                    hypergeometric_mixing(n, lam, p)).exact_mean
                halved = expected_absorption_time(
                    hypergeometric_mixing(n, lam, 2.0 * p)).exact_mean
                worst = max(worst, abs(halved - base / 2.0) / halved)
    assert worst < 1e-12
    report(4, f"doubling p halves E(T); worst relative error {worst:.2e}")


def test_criterion_5_forward_solver_oracle():
    model = power_law(1.0, 1.0, 200)  # linear rates, Yule closed form
    worst_sup = worst_defect = 0.0
    for t in (0.1, 0.5, 1.0, 2.0):
        snap = forward_probabilities(model, 1, t)
        q = 1.0 - math.exp(-t)
        oracle = np.array([math.exp(-t) * q ** (j - 1) for j in range(1, 200)])
        worst_sup = max(worst_sup,
                        float(np.abs(snap.probabilities[:-1] - oracle).max()))
        worst_defect = max(worst_defect, snap.mass_defect)
    assert worst_sup <= 1e-6
    assert worst_defect <= 1e-8
    report(5, f"sup-norm vs geometric law {worst_sup:.2e} (<= 1e-6), "
              f"mass defect {worst_defect:.2e} (<= 1e-8)")


def test_criterion_6_monte_carlo_vs_analytic_grid():
    reps = 10 ** 5
    worst_z = worst_tv = 0.0
    for n in (2, 3, 5, 10, 50):
        for p in (0.31, 1.0):
            for lam in (0.5, 1.0, 3.0):
                model = hypergeometric_mixing(n, lam, p)
                exact = expected_absorption_time(model).exact_mean
                t = 0.5 * exact
                terminal, states = _simulate_ensemble(model, 1, reps, SEED,
                                                      t=t)
                se = terminal.std(ddof=1) / math.sqrt(reps)
                worst_z = max(worst_z, abs(terminal.mean() - exact) / se)
                snap = forward_probabilities(model, 1, t)
                counts = np.bincount(states - 1,
                                     minlength=len(snap.states))
                tv = 0.5 * np.abs(counts / reps - snap.probabilities).sum()
                worst_tv = max(worst_tv, tv)
    assert worst_z < 4.0
    assert worst_tv <= 0.01
    report(6, f"30-model grid at 1e5 replicates: worst |z| {worst_z:.2f} "
              f"(< 4), worst TV {worst_tv:.4f} (<= 0.01)")


def test_criterion_7_explosion_claim():
    reps = 10 ** 4
    model = power_law(1.0, 2.0, 1000)
    small = estimate_absorption_time(model, 1, reps, SEED)
    oracle = math.fsum(1.0 / k ** 2 for k in range(1, 1000))
    assert expected_absorption_time(model).exact_mean == pytest.approx(
        oracle, rel=1e-12)
    gap = abs(small.mean - oracle)
    assert gap < 3.0 * small.std_error
    large = estimate_absorption_time(power_law(1.0, 2.0, 2000), 1, reps, SEED)
    shift = abs(large.mean - small.mean)
    budget = 1e-3 + 3.0 * large.std_error
    assert shift < budget
    report(7, f"cap-1000 mean {small.mean:.4f} vs partial sum "
              f"{oracle:.4f}; doubling the cap moved it {shift:.2e} "
              f"(< {budget:.2e})")


def test_criterion_8_cubic_growth_claim():
    def value(c, n):
        # E(T) through states 1..n under lambda_k = c / k^2
        return expected_absorption_time(power_law(c, -2.0, n + 1)).exact_mean

    for c in (0.5, 1.0, 3.0):
        for n in (1, 2, 10, 100, 10 ** 4):
            assert value(c, n) == n * (n + 1) * (2 * n + 1) / (6 * c)
    n = 10 ** 4
    ratio = value(1.0, 2 * n) / value(1.0, n)
    assert ratio == pytest.approx(8.0, rel=0.01)
    report(8, f"E(T) equals n(n+1)(2n+1)/(6c) exactly; E(2n)/E(n) = "
              f"{ratio:.4f} at n = 1e4 (within 1% of 8)")


def test_criterion_9_reproducibility(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    base = ["simulate", "--family", "yule", "--N", "50", "--mu", "1",
            "--p", "0.31", "--replicates", "5000", "--seed", "424242"]
    assert main(base + ["--out", str(paths[0])]) == 0
    assert main(base + ["--out", str(paths[1])]) == 0
    assert main(base + ["--jobs", "4", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]

    exp = ["explosion", "--c", "1", "--cap", "500", "--replicates", "2000",
           "--seed", "7"]
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    assert main(exp + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(exp + ["--jobs", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report(9, "seeded runs byte-identical across repeats and across "
              "serial vs parallel scheduling")
