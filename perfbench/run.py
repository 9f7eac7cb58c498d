"""Benchmark of the purebirth engines; see perfbench/README.md.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analytic_large_n --seed 1 \
        --seconds 20 --trace 0

One fresh process runs one workload as a closed loop (one client; each job
starts when the previous one has finished), repeating the workload's job
list for ``--seconds`` seconds after one untimed warm-up pass.  Every job's
output is checked after its pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The full record of the run, with the environment, the job
list, per-kind timings and, when traced, every span, goes to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json``.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# a run stops starting passes after this long, so that even a much slower
# library ends well inside the 180 s a run may take
DEADLINE_S = 120.0
SETUP_PROBES = {"full": 5, "tiny": 1}
MIN_PASSES = 3
# wall_ref_s states a pass's seconds on a machine where reference_seconds()
# reads this long; on a shared 2-vCPU Xeon virtual machine it read
# 0.028-0.060 s, median 0.043 s, over 708 passes
REFERENCE_S = 0.03

# setup_s: a fresh interpreter imports purebirth and builds its first model
# (the basketball scenario); it prints the monotonic clock, which is shared
# across processes on Linux, when that build returns
_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import purebirth
purebirth.yule_scaled(2000, 1.0, 0.31, "hours")
print(repr(time.monotonic()))
"""

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="job sizes; tiny is for the smoke test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first job's output once, to show "
                             "that the checks count it as failed")
    return parser.parse_args(argv)


def import_library():
    """Import purebirth from this checkout's src/, or return None."""
    if not (SRC / "purebirth" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import purebirth

    if Path(purebirth.__file__).resolve().parent.parent != SRC.resolve():
        return None
    return purebirth


def environment(pb):
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "purebirth").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "purebirth": pb.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def setup_seconds(probes):
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        times.append(float(done.stdout.strip()) - start)
    return times


def reference_seconds():
    """Best of two timings of a fixed mix of the kinds of work the
    library's engines do: a float list comprehension summed by fsum,
    numpy operations on 5000-vectors, and per-replicate generator set-up
    with a few exponential draws each."""
    import numpy as np

    lam = np.linspace(0.5, 50.0, 5000)
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        math.fsum([1.0 / (k * (100_000 - k)) for k in range(1, 100_000)])
        y = np.full(5000, 1e-4)
        for _ in range(700):
            out = -lam * y
            out[1:] += lam[:-1] * y[:-1]
            y = y + 1e-4 * out
        root = np.random.SeedSequence(12345)
        for child in root.spawn(700):
            np.cumsum(np.random.default_rng(child).standard_exponential(20))
        best = min(best, time.perf_counter() - start)
    return best


def corrupt(path):
    """Double every non-integer number in a CSV output (the first job of
    every workload writes CSV)."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    cells = [line.split(",") for line in lines]
    for row in cells[1:]:
        for i, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if value != int(value):
                row[i] = repr(2.0 * value)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(",".join(row) for row in cells) + "\n")


class Runner:
    """Runs passes over a job list and keeps what the metrics need."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failures = []
        self.inject_fault = False

    def run_pass(self, label, tracer=None):
        """One pass: every job, then every check.  A tracer's wrappers are
        removed before the checks run."""
        durations = {}
        results = {}
        before = reference_seconds()
        start = time.perf_counter()
        try:
            for index, job in enumerate(self.jobs):
                token = tracer.begin_job(f"{label}:{index}", job.name) \
                    if tracer else None
                t0 = time.perf_counter()
                try:
                    results[index] = (True, job.run())
                except Exception:  # a job may fail in any way; count it
                    results[index] = (False, traceback.format_exc(limit=3))
                durations[index] = time.perf_counter() - t0
                if tracer:
                    tracer.end_job(token)
        finally:
            if tracer:
                tracer.unpatch()
        wall = time.perf_counter() - start
        reference = 0.5 * (before + reference_seconds())
        bytes_out = sum(os.path.getsize(p) for job in self.jobs
                        for p in job.outputs if os.path.exists(p))
        if self.inject_fault:
            self.inject_fault = False
            corrupt(self.jobs[0].outputs[0])
        for index, job in enumerate(self.jobs):
            self.attempted += 1
            ok, value = results[index]
            if ok:
                try:
                    job.check(value)
                    continue
                except Exception as exc:  # any check error fails the job
                    value = f"{type(exc).__name__}: {exc}"
            self.failures.append({"pass": label, "job": job.name,
                                  "error": value})
        return {"wall": wall, "durations": durations, "bytes_out": bytes_out,
                "tracer": tracer, "reference": reference}

    def run_for(self, seconds, deadline, min_rounds, modes=(None,)):
        """Rounds of passes until ``seconds`` have gone by: at least
        ``min_rounds``, and none started after ``deadline``.  Each round
        runs one pass per entry of ``modes``: None for an untraced pass, or
        a function returning a tracer with its wrappers installed.
        Interleaving keeps slow drift in machine speed out of the
        traced-minus-untraced difference."""
        passes = []
        start = time.perf_counter()
        while (len(passes) < min_rounds * len(modes)
               or time.perf_counter() - start < seconds):
            if passes and time.monotonic() > deadline:
                break
            for make_tracer in modes:
                tracer = make_tracer() if make_tracer else None
                passes.append(self.run_pass(f"pass{len(passes)}", tracer))
        return passes


def median(values):
    return statistics.median(values) if values else 0.0


def wall_ref_seconds(passes):
    """Median over the passes of each pass's seconds scaled to the
    reference speed: pass seconds x REFERENCE_S / the reference timings
    taken just before and after that pass.

    On a shared 2-vCPU Xeon virtual machine, neighbours' load slowed every
    job by 1.3-1.7x for minutes at a time, so whole 20 s runs fell into
    slow spells.  The reference kernel slows with the machine: over two
    sets of ten runs per workload, the spread (IQR over median) was
    0.06-0.10 for this figure, against 0.14-0.29 for the sum of per-job
    best times and 0.13-0.35 for the median pass of the same runs.
    """
    return median([p["wall"] * REFERENCE_S / p["reference"] for p in passes])


def best_job_seconds(jobs, passes):
    """Each job's fastest time over the passes."""
    return [min(p["durations"][i] for p in passes) for i in range(len(jobs))]


def kind_seconds(jobs, best):
    """Seconds per job kind and replicates per second of the Monte Carlo
    jobs, from the per-job best times."""
    out = {}
    for job, seconds in zip(jobs, best):
        out[job.kind + "_s"] = out.get(job.kind + "_s", 0.0) + seconds
    mc = [i for i, job in enumerate(jobs) if job.replicates]
    if mc:
        out["replicates_per_s"] = (sum(jobs[i].replicates for i in mc)
                                   / sum(best[i] for i in mc))
    return out


def jobs2_speedup(jobs, passes):
    """Per-replicate time of a job's --jobs 1 twin over its own, or 0."""
    ratios = []
    for i, job in enumerate(jobs):
        twin = job.meta.get("serial_twin")
        if job.jobs > 1 and twin is not None:
            serial = jobs[twin]
            ratios.extend(
                (p["durations"][twin] / serial.replicates)
                / (p["durations"][i] / job.replicates) for p in passes)
    return median(ratios)


# per-layer metrics read from the tracer's counters, under the same name
# unless aliased here
PER_LAYER_COUNTERS = (
    "rates.build_calls", "rates.build_s", "rates.rate_at_calls",
    "rates.rate_at_s",
    "analytic.calls", "analytic.self_s", "analytic.harmonic_calls",
    "analytic.harmonic_s", "analytic.law_s",
    "forward.calls", "forward.self_s", "forward.integrate_s", "forward.nfev",
    "forward.njev", "forward.nlu", "forward.states",
    "montecarlo.calls", "montecarlo.self_s", "montecarlo.replicates",
    "montecarlo.streams", "montecarlo.stream_s", "montecarlo.holding_times",
    "montecarlo.summarize_s", "montecarlo.workers_started",
    "montecarlo.pool_wait_s",
    "cli.calls", "cli.self_s", "cli.rows_out",
)
COUNTER_ALIASES = {"montecarlo.streams": "montecarlo.stream_calls"}


def unit_of(name):
    if name == "peak_rss_mb":
        return "MB"
    if name == "forward.max_mass_defect":
        return "prob"
    if name == "montecarlo.jobs2_speedup":
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def per_layer_metrics(jobs, plain, traced):
    values = {name: median([p["tracer"].counts[COUNTER_ALIASES.get(name, name)]
                            for p in traced])
              for name in PER_LAYER_COUNTERS}
    values["forward.max_mass_defect"] = max(
        p["tracer"].max_values["forward.max_mass_defect"] for p in traced)
    values["montecarlo.jobs2_speedup"] = jobs2_speedup(jobs, plain)
    values["cli.bytes_out"] = median([p["bytes_out"] for p in traced])
    values["trace.overhead_s"] = (median([p["wall"] for p in traced])
                                  - median([p["wall"] for p in plain]))
    return values


def main(argv=None):
    start_monotonic = time.monotonic()
    args = parse_args(argv)
    pb = import_library()
    if pb is None:
        print(f"perfbench: no purebirth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = start_monotonic + DEADLINE_S
    size = workloads.SCALES[args.scale]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        jobs = workloads.WORKLOADS[args.workload](workdir, args.seed, size)
        runner = Runner(jobs)
        runner.inject_fault = args.inject_fault
        setup = setup_seconds(SETUP_PROBES[args.scale]) \
            if args.trace == 0 else []
        runner.run_pass("warmup")
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "scale": args.scale, "environment": environment(pb),
                  "jobs": [job.describe() for job in jobs]}
        if args.trace == 0:
            passes = runner.run_for(args.seconds, deadline, MIN_PASSES)
            metrics = {
                "wall_ref_s": wall_ref_seconds(passes),
                "setup_s": median(setup),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record["setup_probes_s"] = setup
            best = best_job_seconds(jobs, passes)
            record["detail"] = kind_seconds(jobs, best)
            record["detail"]["best_job_sum_s"] = sum(best)
            record["detail"]["median_pass_s"] = median(
                [p["wall"] for p in passes])
        else:
            def make_tracer():
                tracer = tracing.Tracer()
                tracing.install(tracer)
                return tracer

            passes = runner.run_for(args.seconds, deadline, 2,
                                    (None, make_tracer))
            plain = [p for p in passes if p["tracer"] is None]
            traced = [p for p in passes if p["tracer"] is not None]
            metrics = per_layer_metrics(jobs, plain, traced)
            record["detail"] = kind_seconds(jobs,
                                            best_job_seconds(jobs, plain))
            record["missing_hooks"] = sorted(
                {m for p in traced for m in p["tracer"].missing})
            record["spans"] = [s for p in traced for s in p["tracer"].spans]
            record["span_fields"] = ["id", "name", "start", "end", "parent",
                                     "job"]
        record["passes"] = [{"wall_s": p["wall"],
                             "reference_s": p["reference"],
                             "traced": p["tracer"] is not None,
                             "job_s": [p["durations"][i]
                                       for i in range(len(jobs))]}
                            for p in passes]
        result = {"correct": not runner.failures,
                  "attempted": runner.attempted,
                  "failed": len(runner.failures),
                  "metrics": {name: {"value": value, "unit": unit_of(name)}
                              for name, value in metrics.items()}}
        record["detail"]["error_rate"] = len(runner.failures) / max(
            runner.attempted, 1)
        record["failures"] = runner.failures
        record["result"] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in runner.failures[:5]:
        print(f"perfbench: FAILED {failure['job']}: {failure['error']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
