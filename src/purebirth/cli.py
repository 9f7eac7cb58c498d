"""Command-line front end.

Subcommands: expect-time, forward, simulate, sweep, explosion.  Model
parameters come from flags (--family, --N, --lambda, --mu, --p, --c,
--exponent, --cap, --unit) or a flat key=value config file (--config)
whose keys are the long flag names of any subcommand; flags override the
file.  Data goes to --out or stdout as CSV (RFC-4180 style, 17 significant
digits) or JSON (metadata header plus one object per row); diagnostics go
to stderr and any failure exits nonzero.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import __version__
from .analytic import expected_absorption_time
from .errors import PureBirthError
from .forward import SolverConfig, forward_grid
from .montecarlo import (QUANTILE_LEVELS, RNG_SCHEME,
                         estimate_absorption_time, event_time_blocks,
                         explosion_study)
from .rates import build_rate_model

PROB_FLOOR = 1e-12


def fmt(value) -> str:
    """Render one CSV cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _add_model_flags(parser):
    parser.add_argument("--family", help="hypergeometric, yule, or powerlaw")
    parser.add_argument("--N", dest="N", type=int, help="population size")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="contact rate (hypergeometric)")
    parser.add_argument("--mu", type=float, help="per-capita rate (yule)")
    parser.add_argument("--p", type=float, help="transmission probability")
    parser.add_argument("--c", type=float, help="powerlaw coefficient")
    parser.add_argument("--exponent", type=float, help="powerlaw exponent")
    parser.add_argument("--cap", type=int, help="powerlaw state cap")
    parser.add_argument("--unit", help="time unit label")
    parser.add_argument("--start", type=int, help="initial state (default 1)")


def _add_common_flags(parser):
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"],
                        help="output format (default csv)")
    parser.add_argument("--config", help="flat key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purebirth",
        description="Pure-birth CTMC infection model toolkit")
    parser.add_argument("--version", action="version",
                        version=f"purebirth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect-time",
                       help="exact and approximate expected absorption time")
    _add_model_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("forward",
                       help="state distribution from the forward equations")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--abs-tol", dest="abs_tol", type=float,
                   help="error allowed per time (default 1e-10): the "
                        "Poisson weight uniformization leaves out, or "
                        "inversion's bound plus its estimate")
    p.add_argument("--t", type=float, help="single evaluation time")
    p.add_argument("--t-grid", dest="t_grid",
                   help="comma-separated strictly increasing times")

    p = sub.add_parser("simulate", help="Monte Carlo absorption-time summary")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--jobs", type=int, help="parallel worker count")
    p.add_argument("--trajectories",
                   help="also dump per-event CSV rows to this path")

    p = sub.add_parser("sweep",
                       help="expected time across a parameter grid")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--param", choices=["N", "p", "mu", "lambda", "c"])
    p.add_argument("--values", help="comma-separated grid values")

    p = sub.add_parser("explosion",
                       help="cap-hitting times for lambda_k = c k^2")
    _add_model_flags(p)
    _add_common_flags(p)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--jobs", type=int, help="parallel worker count")

    return parser


def _config_actions(parser: argparse.ArgumentParser) -> dict:
    """Config-file key -> argparse action: every subcommand's long flags
    but --help and --config, named without the leading dashes."""
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {flag[2:]: action
            for subparser in subparsers.choices.values()
            for action in subparser._actions
            for flag in action.option_strings
            if flag.startswith("--") and action.dest not in ("help", "config")}


def _apply_config(args: argparse.Namespace, path: str, actions: dict):
    """Fill unset args from a flat key=value file; flags win.  A key of
    another subcommand is ignored; a key of none is an error."""
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PureBirthError(
                    f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in actions:
                raise PureBirthError(f"{path}:{lineno}: unknown key {key!r}")
            action = actions[key]
            if getattr(args, action.dest, False) is None:
                if action.type is not None:
                    value = action.type(value)
                if action.choices is not None and value not in action.choices:
                    raise PureBirthError(
                        f"{path}:{lineno}: {key} must be one of "
                        f"{', '.join(action.choices)}, got {value!r}")
                setattr(args, action.dest, value)


def _model_spec(args) -> dict:
    return {
        "family": args.family,
        "N": args.N,
        "lambda": args.lam,
        "mu": args.mu,
        "p": args.p,
        "c": args.c,
        "exponent": args.exponent,
        "cap": args.cap,
        "time_unit": args.unit,
    }


class _SnapshotRows:
    """Rows (time, state, probability) held per snapshot as (time, states,
    probabilities) with int states and finite float probabilities, so
    that each snapshot is written by one %-template; len() counts rows.
    Every snapshot has a row, since its mass is 1 within MASS_DEFECT_TOL."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.size = sum(len(states) for _, states, _ in blocks)

    def __len__(self):
        return self.size

    def csv_lines(self):
        # "%d" % k == str(k) and "%.17g" % x == fmt(x); no cell needs quoting
        for t, states, probs in self.blocks:
            yield _fill(f"{fmt(t)},%d,%.17g\n", "", states, probs)

    def json_rows(self):
        # the row objects json.dumps(..., indent=2, sort_keys=True) writes;
        # "%r" % x == json.dumps(x) for a finite float
        for t, states, probs in self.blocks:
            row = ('    {\n      "probability": %r,\n      "state": %d,\n'
                   f'      "time": {json.dumps(t)}\n    }}')
            yield _fill(row, ",\n", probs, states)


def _fill(row, sep, first, second):
    """len(first) copies of a two-placeholder row template, joined by sep
    and filled from first[i], second[i] in turn."""
    cells = [None] * (2 * len(first))
    cells[0::2] = first
    cells[1::2] = second
    return sep.join([row] * len(first)) % tuple(cells)


def _write_rows(args, header, rows, metadata):
    fmt_name = args.format or "csv"
    if fmt_name == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, _SnapshotRows):
            buf.writelines(rows.csv_lines())
        else:
            for row in rows:
                writer.writerow([fmt(cell) for cell in row])
        text = buf.getvalue()
    elif isinstance(rows, _SnapshotRows):
        # the rows go into the empty list that ends the document
        text = json.dumps({"metadata": metadata, "rows": []}, indent=2,
                          sort_keys=True)
        text = (text[:-len("[]\n}")] + "[\n" + ",\n".join(rows.json_rows())
                + "\n  ]\n}\n")
    else:
        payload = {
            "metadata": metadata,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _metadata(args, command, **extra):
    meta = {"command": command, "version": __version__,
            "model": {k: v for k, v in _model_spec(args).items()
                      if v is not None}}
    meta.update(extra)
    return meta


def _cmd_expect_time(args):
    model = build_rate_model(_model_spec(args))
    report = expected_absorption_time(model, args.start or 1)
    header = ["exact_mean", "approx_mean", "approx_mean_refined", "variance",
              "start_state", "time_unit"]
    row = [report.exact_mean, report.approx_mean, report.approx_mean_refined,
           report.variance, report.start_state, report.time_unit]
    _write_rows(args, header, [row], _metadata(args, "expect-time"))


def _parse_grid(args):
    if args.t_grid is not None:
        grid = [float(v) for v in args.t_grid.split(",") if v.strip()]
        if not grid:
            raise PureBirthError("--t-grid is empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise PureBirthError("--t-grid must be strictly increasing")
        return grid
    if args.t is not None:
        return [args.t]
    raise PureBirthError("forward requires --t or --t-grid")


def _cmd_forward(args):
    model = build_rate_model(_model_spec(args))
    grid = _parse_grid(args)
    config = (SolverConfig() if args.abs_tol is None
              else SolverConfig(abs_tol=args.abs_tol))
    snapshots = forward_grid(model, args.start or 1, grid, config)
    blocks = []
    for snap in snapshots:
        keep = snap.probabilities > PROB_FLOOR
        blocks.append((snap.time, snap.states[keep].tolist(),
                       snap.probabilities[keep].tolist()))
    _write_rows(args, ["time", "state", "probability"], _SnapshotRows(blocks),
                _metadata(args, "forward", times=grid,
                          forward_scheme=snapshots[0].scheme,
                          max_mass_defect=max(s.mass_defect
                                              for s in snapshots)))


def _require_arg(args, name):
    value = getattr(args, name)
    if value is None:
        raise PureBirthError(f"--{name} is required")
    return value


def _jobs(args):
    return 1 if args.jobs is None else args.jobs


def _summary_row(summary):
    header = ["replicates", "master_seed", "mean", "std_error"] + [
        f"q{round(100 * q):02d}" for q in QUANTILE_LEVELS] + ["time_unit"]
    row = [summary.replicates, summary.master_seed, summary.mean,
           summary.std_error] + [summary.quantiles[q] for q in
                                 QUANTILE_LEVELS] + [summary.time_unit]
    return header, row


def _cmd_simulate(args):
    model = build_rate_model(_model_spec(args))
    start = args.start or 1
    replicates = _require_arg(args, "replicates")
    seed = _require_arg(args, "seed")
    summary = estimate_absorption_time(model, start, replicates, seed,
                                       n_jobs=_jobs(args))
    if args.trajectories:
        with open(args.trajectories, "w", encoding="utf-8",
                  newline="") as handle:
            handle.write("replicate,time,state\n")
            # one %-template per replicate; "%.17g" % t == f"{t:.17g}"
            parts = [f"%.17g,{k}\n"
                     for k in range(start, model.absorbing_state + 1)]
            for first, times in event_time_blocks(model, start, replicates,
                                                  seed):
                for i, row in enumerate(times, first):
                    pre = f"{i},"
                    handle.write((pre + pre.join(parts))
                                 % tuple(row.tolist()))
    header, row = _summary_row(summary)
    _write_rows(args, header, [row],
                _metadata(args, "simulate", seed=seed, replicates=replicates,
                          rng_scheme=RNG_SCHEME))


def _cmd_sweep(args):
    param = _require_arg(args, "param")
    raw = _require_arg(args, "values")
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not values:
        raise PureBirthError("--values is empty")
    grid = [int(v) if param == "N" else float(v) for v in values]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise PureBirthError("--values must be strictly increasing")
    rows = []
    for value in grid:
        spec = _model_spec(args)
        spec[param] = value
        try:
            model = build_rate_model(spec)
            report = expected_absorption_time(model, args.start or 1)
        except PureBirthError as exc:
            raise PureBirthError(f"sweep point {param}={value}: {exc}") from exc
        rows.append([value, report.exact_mean, report.approx_mean])
    _write_rows(args, [param, "exact_mean", "approx_mean"], rows,
                _metadata(args, "sweep", param=param))


def _cmd_explosion(args):
    spec = _model_spec(args)
    spec["family"] = spec["family"] or "powerlaw"
    spec["exponent"] = spec["exponent"] if spec["exponent"] is not None else 2.0
    model = build_rate_model(spec)
    report = explosion_study(model, args.start or 1,
                             _require_arg(args, "replicates"),
                             _require_arg(args, "seed"),
                             n_jobs=_jobs(args))
    header, row = _summary_row(report.summary)
    header = ["cap", "analytic_mean", "limit_bound"] + header
    row = [report.cap, report.analytic_mean, report.limit_bound] + row
    _write_rows(args, header, [row],
                _metadata(args, "explosion", rng_scheme=RNG_SCHEME))


_COMMANDS = {
    "expect-time": _cmd_expect_time,
    "forward": _cmd_forward,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "explosion": _cmd_explosion,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, args.config, _config_actions(parser))
        _COMMANDS[args.command](args)
    except (PureBirthError, OSError, ValueError, ArithmeticError) as exc:
        print(f"purebirth: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
