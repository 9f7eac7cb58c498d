"""Alternating parent/change runs of the benchmark, written as BENCH_*.json.

Usage, from the root of a git checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_x.json \
        [--first-seed 51001] [--claim WORKLOAD:METRIC]

Each revision is exported with ``git archive`` into a fresh directory under
``--workdir``, so each side runs its committed files only; a ``parent/``
or ``change/`` left there by an earlier series is refused, not reused.
For every seed and every workload of the change's BENCHMARK.json the
unmodified ``perfbench/run.py --trace 0`` runs once on each side, for the
``run_seconds`` of the change's BENCHMARK.json, over ten seeds; the side
that runs first alternates from seed to seed.  A workload that the
parent's BENCHMARK.json does not list runs on the change alone, and is
recorded as ``change_only``, with the change's spreads and no comparison.
The record holds every run, and per end-to-end metric of BENCHMARK.json
the medians and quartiles (``statistics.quantiles``, inclusive: numpy's
linear 25th/75th percentiles) of both sides, the pairs the change won (ties
count for neither side), the relative change of the medians and whether it
is within the metric's bound.  Per workload it also holds, for each side:

* ``detail``: the medians of perfbench's per-kind best job times;
* ``job_s``: each job's median seconds, the median over the runs of the
  run's median over its passes (``passes[].job_s``), keyed ``NNN-name``
  by the job's index and name in the run's ``jobs``, as in
  ``output_hashes``.  A shift on a job that a change does not touch shows
  up there by name;
* ``job_spread_s``: the same per-run job seconds as a median, quartiles
  and runs, and, with a parent, ``job_change_wins``: per job the pairs in
  which it ran faster on the change, so a job's shift can be read against
  its spread;
* ``setup_probes_s``: the median and quartiles of every start-up probe of
  the side's runs pooled (each run record's ``setup_probes_s``, five a
  run, so 50 over ten runs), beside ``setup_s``, which is the median over
  the runs of each run's median of five.  ``setup_s`` alone is judged.

A claim holds when at least ten pairs ran, the change won at least 9 in 10
of them and its median beats the parent's by more than the parent's
interquartile range.

One more measurement runs once per side, in a fresh process:
``output_hashes``, the SHA-256 of every job's output for one seed, the
job's output files for a CLI job or its pickled return value for a library
job; the parent's jobs whose hashes differ on the change or that the change
lacks (``differing``), and the change's jobs that the parent lacks
(``change_only``).

The record is rewritten after every pair, so an interrupted series keeps
the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
# alternating pairs per workload: the fewest a claimed gain is judged on
PAIRS = 10

OUTPUT_HASHES = r"""
import hashlib, json, pickle, sys, tempfile
sys.path[:0] = ["src", "perfbench"]
import workloads

hashes = {}
for name, build in workloads.WORKLOADS.items():
    with tempfile.TemporaryDirectory() as workdir:
        jobs = build(workdir, int(sys.argv[1]), workloads.SCALES["full"])
        for index, job in enumerate(jobs):
            result = job.run()
            digest = hashlib.sha256()
            if job.outputs:
                for path in job.outputs:
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
            else:
                digest.update(pickle.dumps(result))
            hashes[f"{name}/{index:03d}-{job.name}"] = digest.hexdigest()
print(json.dumps(hashes))
"""


def export(rev, dest):
    """The committed files of rev, unpacked into dest; the full hash."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def workload_names(checkout):
    """The workload names of checkout's BENCHMARK.json, in its order."""
    with open(Path(checkout) / "BENCHMARK.json") as handle:
        return [entry["name"] for entry in json.load(handle)["workloads"]]


def compare_hashes(parent, change):
    """The output_hashes comparison of two sides' job -> hash maps."""
    return {"differing": sorted(job for job in parent
                                if change.get(job) != parent[job]),
            "change_only": sorted(change.keys() - parent.keys())}


def python_json(checkout, argv):
    """The JSON object on the last stdout line of a python run in checkout."""
    done = subprocess.run([sys.executable] + argv, cwd=checkout,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{argv[:2]} in {checkout} exited with "
                           f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(runs, key="runs"):
    q1, _, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                 if len(runs) > 1 else runs * 3)
    return {"median": statistics.median(runs), "q1": q1, "q3": q3,
            key: runs}


def job_medians(run):
    """Each job's median seconds over the passes of one perfbench run
    record, keyed by the job's index and name."""
    return {f"{index:03d}-{job['name']}":
            statistics.median(p["job_s"][index] for p in run["passes"])
            for index, job in enumerate(run["jobs"])}


def summarize(results, bounds):
    """Per workload and end-to-end metric: both sides' spreads, the change's
    wins, the relative change of the medians and the bound check (the
    change's spread alone for a change-only workload); per workload also
    the medians of the runs' detail entries, the spread of each job's
    seconds and, with a parent, the change's wins per job, and the spread
    of their start-up probes pooled."""
    out = {}
    for workload, pairs in results.items():
        if not pairs:
            continue
        sides = [side for side in SIDES if side in pairs[0]]
        metrics = {}
        for metric, (better, bound) in bounds.items():
            runs = {side: [pair[side]["metrics"][metric]["value"]
                           for pair in pairs] for side in sides}
            metrics[metric] = {side: spread(runs[side]) for side in sides}
            if "parent" not in sides:
                continue
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - p) < 0
                       for p, c in zip(runs["parent"], runs["change"]))
            parent, change = (metrics[metric][side]["median"]
                              for side in SIDES)
            relative = (change - parent) / parent
            metrics[metric].update(change_wins=wins,
                                   relative_change=relative, bound=bound,
                                   within_bound=sign * relative <= bound)
        # medians of perfbench's per-kind best job times and pass times
        detail = {side: {key: statistics.median(pair[side]["detail"][key]
                                                for pair in pairs)
                         for key in pairs[0][side]["detail"]}
                  for side in sides}
        job_spread_s = {side: {job: spread([pair[side]["job_s"][job]
                                            for pair in pairs])
                               for job in pairs[0][side]["job_s"]}
                        for side in sides}
        job_s = {side: {job: entry["median"]
                        for job, entry in job_spread_s[side].items()}
                 for side in sides}
        probes = {side: spread([probe for pair in pairs
                                for probe in pair[side]["setup_probes_s"]],
                               key="probes")
                  for side in sides}
        out[workload] = {
            "seeds": [pair["seed"] for pair in pairs], "pairs": len(pairs),
            "change_only": "parent" not in sides,
            "metrics": metrics, "detail": detail, "job_s": job_s,
            "job_spread_s": job_spread_s, "setup_probes_s": probes,
            "all_runs_correct": all(pair[side]["correct"]
                                    and pair[side]["failed"] == 0
                                    for pair in pairs for side in sides)}
        if "parent" in sides:
            # pairs whose job ran faster on the change; ties count for
            # neither side, and a job the change lacks has no entry
            parent, change = (job_spread_s[side] for side in SIDES)
            out[workload]["job_change_wins"] = {
                job: sum(c < p for p, c in zip(parent[job]["runs"],
                                               change[job]["runs"]))
                for job in parent if job in change}
    return out


def claim(summary, spec):
    workload, metric = spec.split(":")
    entry = summary.get(workload, {}).get("metrics", {}).get(metric)
    if entry is None or "parent" not in entry:
        return None
    parent, change = entry["parent"], entry["change"]
    drop = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    pairs = summary[workload]["pairs"]
    return {"workload": workload, "metric": metric,
            "wins": entry["change_wins"], "pairs": pairs,
            "median_drop": drop, "parent_iqr": iqr,
            "relative_change": entry["relative_change"],
            "holds": (pairs >= PAIRS and entry["change_wins"] >= 0.9 * pairs
                      and drop > iqr)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--change", default="HEAD", help="git revision")
    parser.add_argument("--out", required=True, help="BENCH_*.json to write")
    parser.add_argument("--first-seed", type=int, default=51001)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--workdir", help="where to export the revisions "
                                          "(default a new temporary "
                                          "directory)")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {side: workdir / side for side in SIDES}
    for checkout in checkouts.values():
        if checkout.exists():
            parser.error(f"--workdir: {checkout} already exists; name a "
                         "new directory or remove it")
    revs = {side: export(getattr(args, side), checkouts[side])
            for side in SIDES}
    with open(checkouts["change"] / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {
        "description": (
            "Alternating parent/change pairs of the unmodified "
            f"perfbench/run.py (--seconds {seconds:g}, --trace 0), "
            "written by tools/bench_pairs.py; the side that runs first "
            "alternates from seed to seed; quartiles are numpy's linear "
            "25th/75th percentiles; a win is a pair whose change value is "
            "better than its parent value, ties counting for neither."),
        "parent": revs["parent"], "change": revs["change"],
        "run_seconds": seconds,
    }

    def write():
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")

    hashes = {side: python_json(checkouts[side],
                                ["-c", OUTPUT_HASHES, str(args.first_seed)])
              for side in SIDES}
    record["output_hashes"] = {
        "seed": args.first_seed, "jobs": len(hashes["change"]),
        **compare_hashes(hashes["parent"], hashes["change"]),
        "change": hashes["change"]}
    write()

    in_parent = set(workload_names(checkouts["parent"]))
    results = {entry["name"]: [] for entry in bench["workloads"]}
    for i in range(PAIRS):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in results:
            sides = order if workload in in_parent else ("change",)
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = python_json(checkouts[side], [
                    "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "0"])
                # per-kind best job times, per-job medians and start-up
                # probes, from the run's full record
                with open(checkouts[side] / "perfbench" / "out"
                          / f"{workload}-seed{seed}-trace0.json") as handle:
                    run = json.load(handle)
                pair[side]["detail"] = run["detail"]
                pair[side]["job_s"] = job_medians(run)
                pair[side]["setup_probes_s"] = run["setup_probes_s"]
            results[workload].append(pair)
        record["workloads"] = summarize(results, bounds)
        if args.claim:
            record["claim"] = claim(record["workloads"], args.claim)
        write()
        print(f"pair {i + 1}/{PAIRS} done (seed {seed})",
              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
