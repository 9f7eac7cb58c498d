"""The benchmark's four workloads: job lists, their sizes and output checks.

A job is one CLI invocation (``purebirth.cli.main(argv)``, writing to an
``--out`` file in the run's work directory) or one direct library call.
Every job has a check that compares its output with a reference from
``oracles``; a job fails when it raises, exits nonzero or fails its check.

Inputs depend on the workload seed only through the Monte Carlo master
seeds, each derived from (workload seed, job index); the library receives
them as ``--seed`` or as a function argument.  Sizes come from ``SCALES``:
``full`` is the benchmark, ``tiny`` exists for the smoke test.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

SCALES = {
    "full": {
        "mixing_n": 200_000, "sweep_p": (0.2, 0.31, 0.5, 0.75, 1.0),
        "law_cap": 2000, "law_points": 200,
        "fwd_big_n": 5000, "fwd_mid_n": 2000, "fwd_mid_points": 10,
        "fwd_linear_cap": 200, "fwd_small_n": 50,
        "grid_n": (2, 3, 5, 10, 50), "grid_p": (0.31, 1.0),
        "grid_lambda": (0.5, 1.0, 3.0), "grid_replicates": 1000,
        "long_n": 2000, "long_replicates": 20_000,
        "explosion_cap": 1000, "explosion_replicates": 10_000,
        "traj_n": 200, "traj_replicates": 1000,
    },
    "tiny": {
        "mixing_n": 3000, "sweep_p": (0.31, 1.0),
        "law_cap": 50, "law_points": 20,
        "fwd_big_n": 100, "fwd_mid_n": 50, "fwd_mid_points": 3,
        "fwd_linear_cap": 30, "fwd_small_n": 10,
        "grid_n": (2, 10), "grid_p": (1.0,),
        "grid_lambda": (1.0,), "grid_replicates": 200,
        "long_n": 50, "long_replicates": 300,
        "explosion_cap": 50, "explosion_replicates": 300,
        "traj_n": 20, "traj_replicates": 30,
    },
}

# allowances, fixed in advance and independent of the seed
REL_EXACT = 1e-10         # exact means/variances against the fsum oracle
FORWARD_MASS = 1e-8       # |1 - sum p| of the integrated distribution
# A forward output is the integrated distribution after two documented
# edits: entries down to -CLAMP_FLOOR (10 x the default abs_tol) are
# clamped to 0, which adds at most CLAMP_FLOOR of mass each, and rows at
# or below WRITE_FLOOR are not written, which drops at most WRITE_FLOOR
# each.  Both act only on states missing from the output, so the written
# mass may leave 1 by FORWARD_MASS plus those per-state allowances.
CLAMP_FLOOR = 1e-9
WRITE_FLOOR = 1e-12
FORWARD_SUP = 1e-6        # sup-norm against the forward reference
LAW_ROUNDOFF = 1e-9       # cdf outside [0, 1] or decreasing, pdf < 0
LAW_MEAN_REL = 1e-6       # mean implied by the cdf against E(T)


class CheckFailed(Exception):
    """A job's output disagrees with its reference."""


@dataclass
class Job:
    name: str
    kind: str
    size: dict
    run: Callable[[], object]
    check: Callable[[object], None]
    outputs: tuple = ()
    replicates: int = 0
    jobs: int = 1
    meta: dict = field(default_factory=dict)

    def describe(self):
        return {"name": self.name, "kind": self.kind, "size": self.size}


def master_seed(seed, index):
    """The MC master seed of job ``index``, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(value, reference, rel, what):
    _require(abs(value - reference) <= rel * abs(reference),
             f"{what}: {value!r} vs reference {reference!r} (rel {rel})")


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _cli(argv):
    from purebirth import cli

    code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"purebirth {' '.join(argv)} exited with {code}")


class _JobList:
    """Collects a workload's jobs; ``path`` names each job's output file."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.jobs = []

    def path(self, suffix):
        return os.path.join(self.workdir,
                            f"{len(self.jobs):03d}-{suffix}")

    def seed_for_next(self):
        return master_seed(self.seed, len(self.jobs))

    def cli(self, name, kind, size, argv, out, check, extra=(), **kw):
        argv = list(argv) + ["--out", out]
        self.jobs.append(Job(name, kind, size, lambda: _cli(argv),
                             lambda _: check(out), (out,) + tuple(extra),
                             **kw))

    def lib(self, name, kind, size, run, check, **kw):
        self.jobs.append(Job(name, kind, size, run, check, **kw))


def _mixing_flags(family, n, rate, p):
    rate_flag = "--mu" if family == "yule" else "--lambda"
    return ["--family", family, "--N", str(n), rate_flag, repr(rate),
            "--p", repr(p)]


def _mixing_rates(family, n, rate, p, start=1):
    contact = n * rate if family == "yule" else rate
    return oracles.mixing_rates(n, contact, p, start)


# -- analytic ----------------------------------------------------------------

def _check_expect(family, n, rate, p, start, approx=None):
    mean, var = oracles.absorption_moments(
        _mixing_rates(family, n, rate, p, start))

    def check(out):
        rows = _csv_rows(out)
        _require(len(rows) == 1, f"expected one row, got {len(rows)}")
        row = rows[0]
        _close(float(row["exact_mean"]), mean, REL_EXACT, "exact_mean")
        _close(float(row["variance"]), var, REL_EXACT, "variance")
        _require(int(row["start_state"]) == start, "start_state echoed wrong")
        if approx is not None:
            got = float(row["approx_mean"])
            _require(abs(got - approx) <= 0.01,
                     f"approx_mean {got!r} is not {approx} +/- 0.01")
    return check


def _check_sweep(n, rate, ps):
    means = [oracles.absorption_moments(
        _mixing_rates("yule", n, rate, p))[0] for p in ps]

    def check(out):
        rows = _csv_rows(out)
        _require(len(rows) == len(ps), f"{len(rows)} sweep rows, want {len(ps)}")
        for row, p, mean in zip(rows, ps, means):
            _close(float(row["p"]), p, 1e-15, "sweep point")
            _close(float(row["exact_mean"]), mean, REL_EXACT,
                   f"exact_mean at p={p}")
    return check


def _law_job(cap, points):
    import purebirth
    from purebirth import analytic

    rates = oracles.power_rates(1.0, 2.0, cap)
    mean, var = oracles.absorption_moments(rates)
    grid = np.linspace(0.0, 4.0 * mean, points)
    # the survival function is integrated past E(T) + 40 sd, where the
    # slowest holding time alone leaves less than e^-40
    tail = np.linspace(0.0, mean + 40.0 * math.sqrt(var), 8001)

    def run():
        law = analytic.hitting_time_distribution(
            purebirth.power_law(1.0, 2.0, cap))
        return law, law.cdf(grid), law.pdf(grid)

    def check(result):
        law, cdf, pdf = result
        cdf = np.asarray(cdf, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        _require(np.all(np.isfinite(cdf)) and np.all(np.isfinite(pdf)),
                 "non-finite cdf or pdf")
        _require(cdf.min() >= -LAW_ROUNDOFF and cdf.max() <= 1 + LAW_ROUNDOFF,
                 f"cdf leaves [0, 1]: [{cdf.min()!r}, {cdf.max()!r}]")
        _require(np.diff(cdf).min() >= -LAW_ROUNDOFF,
                 f"cdf decreases by {-np.diff(cdf).min()!r}")
        _require(pdf.min() >= -LAW_ROUNDOFF, f"pdf reaches {pdf.min()!r}")
        survival = np.concatenate([1.0 - np.asarray(law.cdf(chunk))
                                   for chunk in np.array_split(tail, 16)])
        h = tail[1] - tail[0]
        implied = h / 3.0 * (survival[0] + survival[-1]
                             + 4.0 * survival[1:-1:2].sum()
                             + 2.0 * survival[2:-1:2].sum())
        _close(implied, mean, LAW_MEAN_REL, "mean implied by the cdf")
        if hasattr(law, "implied_mean"):
            _close(float(law.implied_mean()), mean, LAW_MEAN_REL,
                   "implied_mean()")
    return run, check


def analytic_large_n(workdir, seed, size):
    b = _JobList(workdir, seed)
    scenarios = (("yule", 2000, 1.0, 0.31, "hours", 24.52),
                 ("yule", 6700, 3.0, 0.31, "days", 9.47))
    for family, n, mu, p, unit, approx in scenarios:
        out = b.path("expect.csv")
        b.cli(f"expect-time {family} N={n} mu={mu} p={p}", "expect_time",
              {"N": n}, ["expect-time"] + _mixing_flags(family, n, mu, p)
              + ["--unit", unit], out,
              _check_expect(family, n, mu, p, 1, approx))
    n = size["mixing_n"]
    for family in ("yule", "hypergeometric"):
        for start in (1, n // 2):
            out = b.path("expect.csv")
            b.cli(f"expect-time {family} N={n} start={start}", "expect_time",
                  {"N": n, "start": start},
                  ["expect-time"] + _mixing_flags(family, n, 1.0, 0.31)
                  + ["--start", str(start)], out,
                  _check_expect(family, n, 1.0, 0.31, start))
    ps = size["sweep_p"]
    out = b.path("sweep.csv")
    b.cli(f"sweep p yule N={n}", "sweep", {"N": n, "points": len(ps)},
          ["sweep"] + _mixing_flags("yule", n, 1.0, 0.31)
          + ["--param", "p", "--values", ",".join(map(repr, ps))], out,
          _check_sweep(n, 1.0, ps))
    run, check = _law_job(size["law_cap"], size["law_points"])
    b.lib(f"law of T powerlaw(1, 2, {size['law_cap']})", "law_of_t",
          {"cap": size["law_cap"], "points": size["law_points"]}, run, check)
    return b.jobs


# -- forward -----------------------------------------------------------------

def _forward_output(path, fmt):
    """{time: {state: probability}} from a forward CSV or JSON output."""
    if fmt == "json":
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)["rows"]
    else:
        rows = _csv_rows(path)
    table = {}
    for row in rows:
        table.setdefault(float(row["time"]), {})[int(row["state"])] = float(
            row["probability"])
    return table


def _check_forward(times, reference, fmt):
    """``reference`` holds one row per time over states 1..absorbing."""

    def check(out):
        table = _forward_output(out, fmt)
        _require(sorted(table) == sorted(times),
                 f"output times {sorted(table)} != requested {times}")
        for t, ref in zip(times, reference):
            got = np.zeros(len(ref))
            for state, prob in table[t].items():
                _require(1 <= state <= len(ref), f"state {state} out of range")
                got[state - 1] = prob
            _require(got.min() >= 0.0 and got.max() <= 1.0,
                     f"probability outside [0, 1] at t={t}")
            excess = math.fsum(got.tolist()) - 1.0
            missing = len(ref) - len(table[t])
            _require(-FORWARD_MASS - missing * WRITE_FLOOR <= excess
                     <= FORWARD_MASS + missing * CLAMP_FLOOR,
                     f"mass defect {excess:.3e} at t={t} with {missing} "
                     f"states not written")
            sup = float(np.abs(got - ref).max())
            _require(sup <= FORWARD_SUP, f"sup-norm error {sup:.3e} at t={t}")
    return check


def forward_large_n(workdir, seed, size):
    b = _JobList(workdir, seed)
    n_big, n_mid = size["fwd_big_n"], size["fwd_mid_n"]
    mid_times = [2.0 * (i + 1) for i in range(size["fwd_mid_points"])]
    for n, times, fmt in ((n_big, [5.0, 10.0, 20.0], "csv"),
                          (n_mid, mid_times, "json")):
        ref = oracles.uniformized_distribution(
            _mixing_rates("yule", n, 1.0, 0.31), times)
        out = b.path(f"forward.{fmt}")
        b.cli(f"forward yule N={n} {len(times)} times {fmt}", "forward",
              {"N": n, "times": len(times)},
              ["forward"] + _mixing_flags("yule", n, 1.0, 0.31)
              + ["--t-grid", ",".join(map(repr, times)), "--format", fmt],
              out, _check_forward(times, ref, fmt))
    cap = size["fwd_linear_cap"]
    times = [0.1, 0.5, 1.0, 2.0]
    out = b.path("forward.csv")
    b.cli(f"forward powerlaw(1, 1, {cap})", "forward", {"cap": cap,
                                                        "times": len(times)},
          ["forward", "--family", "powerlaw", "--c", "1", "--exponent", "1",
           "--cap", str(cap), "--t-grid", ",".join(map(repr, times))], out,
          _check_forward(times, [oracles.yule_geometric_law(t, cap)
                                 for t in times], "csv"))
    n = size["fwd_small_n"]
    times = [10.0, 50.0, 100.0]
    ref = oracles.uniformized_distribution(
        _mixing_rates("hypergeometric", n, 1.0, 0.31), times)
    out = b.path("forward.csv")
    b.cli(f"forward hypergeometric N={n}", "forward",
          {"N": n, "times": len(times)},
          ["forward"] + _mixing_flags("hypergeometric", n, 1.0, 0.31)
          + ["--t-grid", ",".join(map(repr, times))], out,
          _check_forward(times, ref, "csv"))
    return b.jobs


# -- Monte Carlo -------------------------------------------------------------

def _check_summary(rows, mean, var, replicates, seed):
    _require(len(rows) == 1, f"expected one summary row, got {len(rows)}")
    row = rows[0]
    _require(int(row["replicates"]) == replicates, "replicates echoed wrong")
    _require(int(row["master_seed"]) == seed, "master_seed echoed wrong")
    qs = [float(row[q]) for q in ("q05", "q25", "q50", "q75", "q95")]
    _require(all(a <= b for a, b in zip(qs, qs[1:])),
             f"quantiles not ordered: {qs}")
    z = oracles.z_score(float(row["mean"]), mean, var, replicates)
    _require(abs(z) < oracles.Z_LIMIT,
             f"mean is {z:+.2f} standard errors from E(T) = {mean!r}")
    return row


def _check_simulate(rates, replicates, seed, same_as=None, trajectories=None):
    mean, var = oracles.absorption_moments(rates)

    def check(out):
        row = _check_summary(_csv_rows(out), mean, var, replicates, seed)
        if same_as is not None:
            with open(out, "rb") as a, open(same_as, "rb") as b:
                _require(a.read() == b.read(),
                         "--jobs 2 output differs from --jobs 1")
        if trajectories is not None:
            _check_trajectories(trajectories, rates.size + 1, replicates,
                                float(row["mean"]))
    return check


def _check_trajectories(path, states, replicates, summary_mean):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    _require(lines and lines[0] == "replicate,time,state",
             "trajectory header missing")
    _require(len(lines) - 1 == replicates * states,
             f"{len(lines) - 1} trajectory rows, want {replicates * states}")
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    data = data.reshape(replicates, states, 3)
    _require(np.all(data[:, :, 0] == np.arange(replicates)[:, None]),
             "replicate ids out of order")
    _require(np.all(data[:, :, 2] == np.arange(1, states + 1)[None, :]),
             "states do not step 1, 2, ... in each path")
    times = data[:, :, 1]
    _require(np.all(times[:, 0] == 0.0) and np.all(np.diff(times) >= 0.0),
             "event times do not start at 0 and increase")
    # the dump replays the summary's own streams, so the terminal times
    # must reproduce its mean
    _close(float(np.mean(times[:, -1])), summary_mean, 1e-12,
           "mean terminal time of the trajectory dump")


def _check_empirical(reference, replicates):
    limit = oracles.tv_limit(reference, replicates)

    def check(hist):
        counts = np.asarray(hist.counts)
        _require(counts.sum() == replicates,
                 f"{counts.sum()} replicates counted, want {replicates}")
        _require(len(counts) == len(reference), "histogram support wrong")
        tv = 0.5 * float(np.abs(counts / replicates - reference).sum())
        _require(tv <= limit, f"TV {tv:.4f} against forward exceeds "
                              f"{limit:.4f}")
    return check


def mc_many_replicates(workdir, seed, size):
    import purebirth
    from purebirth import montecarlo

    b = _JobList(workdir, seed)
    reps = size["grid_replicates"]
    for n in size["grid_n"]:
        for p in size["grid_p"]:
            for lam in size["grid_lambda"]:
                rates = _mixing_rates("hypergeometric", n, lam, p)
                label = f"hypergeometric N={n} p={p} lambda={lam}"
                ms = b.seed_for_next()
                out = b.path("simulate.csv")
                b.cli(f"simulate {label}", "simulate",
                      {"N": n, "replicates": reps},
                      ["simulate"] + _mixing_flags("hypergeometric", n, lam, p)
                      + ["--replicates", str(reps), "--seed", str(ms)], out,
                      _check_simulate(rates, reps, ms), replicates=reps)
                t = 0.5 * oracles.absorption_moments(rates)[0]
                model = purebirth.hypergeometric_mixing(n, lam, p)
                ref = purebirth.forward_probabilities(model, 1, t).probabilities
                ms = b.seed_for_next()
                b.lib(f"empirical {label} t={t:.4g}", "empirical",
                      {"N": n, "replicates": reps},
                      lambda model=model, t=t, ms=ms, reps=reps:
                      montecarlo.empirical_distribution_at(model, 1, t, reps,
                                                           ms),
                      _check_empirical(ref, reps), replicates=reps)
    return b.jobs


def mc_long_paths(workdir, seed, size):
    b = _JobList(workdir, seed)
    n, reps = size["long_n"], size["long_replicates"]
    rates = _mixing_rates("yule", n, 1.0, 0.31)
    ms = b.seed_for_next()
    serial_out = None
    for jobs in (1, 2):
        out = b.path("simulate.csv")
        serial_out = serial_out or out
        b.cli(f"simulate yule N={n} --jobs {jobs}", "simulate",
              {"N": n, "replicates": reps, "jobs": jobs},
              ["simulate"] + _mixing_flags("yule", n, 1.0, 0.31)
              + ["--replicates", str(reps), "--seed", str(ms),
                 "--jobs", str(jobs)], out,
              _check_simulate(rates, reps, ms,
                              same_as=serial_out if jobs == 2 else None),
              replicates=reps, jobs=jobs, meta={"serial_twin": 0})
    cap, reps = size["explosion_cap"], size["explosion_replicates"]
    power = oracles.power_rates(1.0, 2.0, cap)
    mean, var = oracles.absorption_moments(power)
    ms = b.seed_for_next()

    def check_explosion(out, ms=ms, reps=reps):
        row = _check_summary(_csv_rows(out), mean, var, reps, ms)
        _require(int(row["cap"]) == cap, "cap echoed wrong")
        _close(float(row["analytic_mean"]), mean, REL_EXACT, "analytic_mean")
        _close(float(row["limit_bound"]), math.pi ** 2 / 6.0, 1e-12,
               "limit_bound")

    b.cli(f"explosion c=1 cap={cap}", "explosion",
          {"cap": cap, "replicates": reps},
          ["explosion", "--c", "1", "--cap", str(cap),
           "--replicates", str(reps), "--seed", str(ms)],
          b.path("explosion.csv"), check_explosion, replicates=reps)
    n, reps = size["traj_n"], size["traj_replicates"]
    ms = b.seed_for_next()
    traj = b.path("trajectories.csv")
    b.cli(f"simulate yule N={n} --trajectories", "simulate",
          {"N": n, "replicates": reps, "trajectory_rows": reps * n},
          ["simulate"] + _mixing_flags("yule", n, 1.0, 0.31)
          + ["--replicates", str(reps), "--seed", str(ms),
             "--trajectories", traj], b.path("simulate.csv"),
          _check_simulate(_mixing_rates("yule", n, 1.0, 0.31), reps, ms,
                          trajectories=traj),
          extra=(traj,), replicates=2 * reps)
    return b.jobs


WORKLOADS = {
    "analytic_large_n": analytic_large_n,
    "forward_large_n": forward_large_n,
    "mc_many_replicates": mc_many_replicates,
    "mc_long_paths": mc_long_paths,
}
