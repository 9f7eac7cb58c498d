"""Command-line front end.

Subcommands: expect-time, forward, simulate, sweep, explosion.  Each flag
is declared once, in one of four argparse parent parsers, and a subcommand
lists the groups it reads: the flags every model takes (--c, --cap, --unit,
--start), the family flags (--family, --N, --lambda, --mu, --p,
--exponent), the output flags (--out, --format, --config) and the Monte
Carlo run flags (--replicates, --seed, --jobs).  explosion's model is
powerlaw with exponent 2, so it takes no family flag.  Model flags store
under their build_rate_model keys.  A flat key=value config file
(--config) may use the long flag names of any subcommand, and may set each
destination once; a key the subcommand does not take is ignored, and flags
override the file.  '#' starts a comment at the start of a line or after
whitespace, and a UTF-8 byte-order mark is skipped.  --t is another name
for --t-grid, and sweep refuses a --param that its family does not use.
Data goes to --out or stdout as CSV (RFC-4180 style, 17 significant
digits) or JSON (metadata header plus one object per row), written as it
is formatted once the work is done.  A writable regular file is replaced,
with its permission bits, not truncated; a symlink is written through, and
a refused or failed call leaves no new file.  Diagnostics go to stderr and
any failure exits nonzero.  An empty path, from a flag or a config line,
is refused before any work, and so are two paths that name one file.

main() builds its argument parser once per process and parses every call
with it: parsing reads the parser without changing it and returns a fresh
namespace, so repeated in-process calls stay independent of each other
and skip the parser build, about 2 ms; a one-shot process builds it once.
build_parser() still returns a new parser on every call.

simulate --trajectories draws each block once, one block at a time: the
summary is taken from the dumped blocks.  Every output of many floats,
the dump (one row per event) and forward's CSV and JSON rows, is rendered
by one exact kernel in numpy, in chunks of up to 8192 CSV cells (or one
longer dump row) or 2048 JSON rows.  A CSV cell has the bytes fmt would
write and a JSON cell those of repr.  In [1e-12, 1e16) the kernel forms
x * 10**q exactly in float64 by Dekker's two-product: CSV writes the
17-digit significand "%.17g" rounds to, and JSON the shortest of 15 to 17
digits that parses back to x, as repr does; in fixed point from 1e-4 and
with an exponent below it.  A cell whose digits that arithmetic cannot
decide, a JSON cell of 14 digits or fewer and any other cell (0.0, the
tiny and the huge) are fmt's or repr's.  The integer columns, the states
and the dump's replicate numbers, come from the same 4-digit table.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import re
import stat
import sys
from typing import Optional

import numpy as np

from . import __version__
from .analytic import expected_absorption_time
from .errors import PureBirthError, require_integer
from .forward import INVERSION_SCHEME, SolverConfig, forward_grid
from .montecarlo import (QUANTILE_LEVELS, RNG_SCHEME,
                         estimate_absorption_time, event_time_blocks,
                         summarize_terminal_times)
from .rates import _KEYS, POWERLAW, build_rate_model

PROB_FLOOR = 1e-12


def fmt(value) -> str:
    """Render one CSV cell; floats carry 17 significant digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _flag_groups():
    """The four flag groups of the module docstring, as argparse parents."""
    model, family, output, runs = (argparse.ArgumentParser(add_help=False)
                                   for _ in range(4))
    model.add_argument("--c", type=float, help="powerlaw coefficient")
    model.add_argument("--cap", type=int, help="powerlaw state cap")
    model.add_argument("--unit", dest="time_unit", metavar="UNIT",
                       help="time unit label")
    model.add_argument("--start", type=int, help="initial state (default 1)")
    family.add_argument("--family", help="hypergeometric, yule, or powerlaw")
    family.add_argument("--N", type=int, help="population size")
    family.add_argument("--lambda", type=float,
                        help="contact rate (hypergeometric)")
    family.add_argument("--mu", type=float, help="per-capita rate (yule)")
    family.add_argument("--p", type=float, help="transmission probability")
    family.add_argument("--exponent", type=float, help="powerlaw exponent")
    output.add_argument("--out", help="output path (default stdout)")
    output.add_argument("--format", choices=["csv", "json"],
                        help="output format (default csv)")
    output.add_argument("--config", help="flat key=value config file")
    runs.add_argument("--replicates", type=int)
    runs.add_argument("--seed", type=int, help="master seed")
    runs.add_argument("--jobs", type=int, help="parallel worker count")
    return model, family, output, runs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purebirth",
        description="Pure-birth CTMC infection model toolkit")
    parser.add_argument("--version", action="version",
                        version=f"purebirth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    model, family, output, runs = _flag_groups()
    any_model = [family, model, output]

    sub.add_parser("expect-time", parents=any_model,
                   help="exact and approximate expected absorption time")

    p = sub.add_parser("forward", parents=any_model,
                       help="state distribution from the forward equations")
    p.add_argument("--abs-tol", dest="abs_tol", type=float,
                   help="error allowed per time (default 1e-10): the "
                        "Poisson weight uniformization leaves out, or "
                        "inversion's bound plus its estimate")
    p.add_argument("--t", dest="t_grid", metavar="T",
                   help="another name for --t-grid")
    p.add_argument("--t-grid", dest="t_grid",
                   help="comma-separated strictly increasing times")

    p = sub.add_parser("simulate", parents=any_model + [runs],
                       help="Monte Carlo absorption-time summary")
    p.add_argument("--trajectories",
                   help="also dump per-event CSV rows to this path")

    p = sub.add_parser("sweep", parents=any_model,
                       help="expected time across a parameter grid")
    p.add_argument("--param", choices=["N", "p", "mu", "lambda", "c"])
    p.add_argument("--values", help="comma-separated grid values")

    # the family is powerlaw and the exponent 2, so no family flag
    sub.add_parser("explosion", parents=[model, output, runs],
                   help="cap-hitting times for lambda_k = c k^2")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main() parses with, built on first use."""
    return build_parser()


# the destinations that name files; an empty one is refused, not taken as
# no file
PATHS = ("out", "trajectories", "config")


def _require_distinct_paths(args):
    """Refuse two of the PATHS that name one file, so that no output
    overwrites the other or the config file: the same real path, or, when
    both exist, the same file by os.path.samefile."""
    named = [(dest, getattr(args, dest, None)) for dest in PATHS]
    named = [(dest, path) for dest, path in named if path is not None]
    for i, (first, a) in enumerate(named):
        for second, b in named[i + 1:]:
            if os.path.realpath(a) == os.path.realpath(b) or (
                    os.path.exists(a) and os.path.exists(b)
                    and os.path.samefile(a, b)):
                raise PureBirthError(
                    f"--{first} and --{second} name the same file")


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
    another subcommand is ignored; a key of none is an error, and so are
    two lines that set one destination (t and t-grid share one)."""
    seen = {}  # destination -> (key, line number) that set it
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, 1):
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PureBirthError(
                    f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in actions:
                raise PureBirthError(f"{path}:{lineno}: unknown key {key!r}")
            action = actions[key]
            if action.dest in seen:
                first, at = seen[action.dest]
                raise PureBirthError(f"{path}:{lineno}: {key} sets the same "
                                     f"input as {first} at {path}:{at}")
            seen[action.dest] = key, lineno
            if getattr(args, action.dest, False) is None:
                if action.dest in PATHS and not value:
                    raise PureBirthError(
                        f"{path}:{lineno}: {key} is an empty path")
                if action.type is not None:
                    value = _convert(action.type, value,
                                     f"{path}:{lineno}: {key}")
                if action.choices is not None and value not in action.choices:
                    raise PureBirthError(
                        f"{path}:{lineno}: {key} must be one of "
                        f"{', '.join(action.choices)}, got {value!r}")
                setattr(args, action.dest, value)


def _convert(kind, value: str, where: str):
    """int(value) or float(value); a value that is not one is an error
    that names where it came from."""
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise PureBirthError(
            f"{where} must be {noun}, got {value!r}") from None


# build_rate_model's keys, which are also the model flags' destinations
MODEL_KEYS = ("family", "N", "lambda", "mu", "p", "c", "exponent", "cap",
              "time_unit")


def _model_spec(args) -> dict:
    return {key: getattr(args, key, None) for key in MODEL_KEYS}


def _increasing(text: str, kind, flag: str, where: str) -> list:
    """The comma list text as kind (int or float), refused if it is empty
    or not strictly increasing; a bad value is named after where."""
    values = [_convert(kind, v.strip(), where) for v in text.split(",")
              if v.strip()]
    if not values:
        raise PureBirthError(f"{flag} is empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise PureBirthError(f"{flag} must be strictly increasing")
    return values


class _SnapshotRows:
    """The rows (time, state, probability) of forward_grid's snapshots
    whose probability is above PROB_FLOOR, and under inversion above its
    error_bound, at or below which it carries no digits.  Both formats are
    rendered by _render, in chunks that may span snapshots: CSV up to
    DUMP_CELLS rows at a time with fmt's digits, JSON up to JSON_ROWS rows
    with repr's.  len() counts the rows.  Every snapshot has a row, since
    its mass is 1 within MASS_DEFECT_TOL."""

    def __init__(self, snapshots):
        self.snapshots = snapshots

    def __len__(self):
        return sum(int(np.count_nonzero(keep)) for keep in self._keep())

    def _keep(self):
        for snap in self.snapshots:
            floor = (max(PROB_FLOOR, snap.error_bound)
                     if snap.scheme == INVERSION_SCHEME else PROB_FLOOR)
            yield snap.probabilities > floor

    def dropped(self):
        """Per snapshot, the fsum of the probabilities not written."""
        return [math.fsum(snap.probabilities[~keep].tolist())
                for snap, keep in zip(self.snapshots, self._keep())]

    def _chunks(self, rows):
        """(snapshot, state index, probability) arrays of the rows, up to
        rows at a time; a chunk may span snapshots."""
        parts, size = [], 0
        for i, (snap, keep) in enumerate(zip(self.snapshots, self._keep())):
            kept = np.flatnonzero(keep)
            while kept.size:
                part, kept = kept[:rows - size], kept[rows - size:]
                parts.append((np.full(part.size, i), part,
                              snap.probabilities[part]))
                size += part.size
                if size == rows:
                    yield [np.concatenate(column) for column in zip(*parts)]
                    parts, size = [], 0
        if parts:
            yield [np.concatenate(column) for column in zip(*parts)]

    def csv_lines(self):
        # the word tables of the times and of the states, which every
        # snapshot shares; fmt's digits, and str(k), need no quoting
        times = _words([fmt(snap.time).encode() + b","
                        for snap in self.snapshots])
        states = _integers(self.snapshots[0].states, tail=b",")
        for which, index, probs in self._chunks(DUMP_CELLS):
            yield _render(times[which], states[index], probs,
                          _NEWLINE).decode()

    def json_rows(self):
        # the list of row objects json.dumps(..., indent=2, sort_keys=True)
        # writes, from its "[" up to its closing "]": each row is
        # ',\n    {\n      "probability": ' (whose "," is the list's "["
        # on the first row), the cell, ',\n      "state": ' and the state,
        # and ',\n      "time": <t>\n    }'; json.dumps(x) == repr(x) for
        # a finite float
        times = _words([b',\n      "time": %s\n    }' % json.dumps(
            snap.time).encode() for snap in self.snapshots])
        states = _integers(self.snapshots[0].states)
        for i, (which, index, probs) in enumerate(self._chunks(JSON_ROWS)):
            text = _render(_OPEN_ROW, probs, _STATE, states[index],
                           times[which], fallback=repr).decode()
            yield text if i else "[" + text[1:]


@contextlib.contextmanager
def _output(path, mode, **kwargs):
    """open(path, mode, **kwargs), but a writable regular file at path is
    unlinked and made anew with its permission bits (ext4 truncates slowly),
    and an error while open removes a file made here; the rest open as is."""
    try:
        handle, made = open(path, mode.replace("w", "x"), **kwargs), True
    except FileExistsError:
        old = os.lstat(path).st_mode
        made, opener = stat.S_ISREG(old), None
        if made and os.access(path, os.W_OK):
            with contextlib.suppress(OSError):
                os.unlink(path)
                opener = lambda p, flags: os.open(p, flags, stat.S_IMODE(old))
        handle = open(path, mode, opener=opener, **kwargs)
    try:
        with handle:
            yield handle
    except BaseException:
        if made:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _write_rows(args, header, rows, metadata):
    """Write rows to --out or stdout, each chunk as it is formatted."""
    with (_output(args.out, "w", encoding="utf-8", newline="")
          if args.out is not None
          else contextlib.nullcontext(sys.stdout)) as handle:
        if (args.format or "csv") == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            if isinstance(rows, _SnapshotRows):
                handle.writelines(rows.csv_lines())
            else:
                writer.writerows([fmt(cell) for cell in row] for row in rows)
        elif isinstance(rows, _SnapshotRows):
            # the rows go into the empty list that ends the document
            head = json.dumps({"metadata": metadata, "rows": []}, indent=2,
                              sort_keys=True)
            handle.write(head[:-len("[]\n}")])
            handle.writelines(rows.json_rows())
            handle.write("\n  ]\n}\n")
        else:
            rows = [dict(zip(header, row)) for row in rows]
            handle.write(json.dumps({"metadata": metadata, "rows": rows},
                                    indent=2, sort_keys=True) + "\n")


def _metadata(args, command, **extra):
    meta = {"command": command, "version": __version__,
            "model": {k: v for k, v in _model_spec(args).items()
                      if v is not None}}
    meta.update(extra)
    return meta


def _cmd_expect_time(args):
    model = build_rate_model(_model_spec(args))
    report = expected_absorption_time(model, _start(args))
    header = ["exact_mean", "approx_mean", "approx_mean_refined", "variance",
              "start_state", "time_unit"]
    row = [report.exact_mean, report.approx_mean, report.approx_mean_refined,
           report.variance, report.start_state, report.time_unit]
    _write_rows(args, header, [row], _metadata(args, "expect-time"))


def _cmd_forward(args):
    model = build_rate_model(_model_spec(args))
    if args.t_grid is None:
        raise PureBirthError("forward requires --t or --t-grid")
    grid = _increasing(args.t_grid, float, "--t-grid", "--t-grid")
    config = (SolverConfig() if args.abs_tol is None
              else SolverConfig(abs_tol=args.abs_tol))
    snapshots = forward_grid(model, _start(args), grid, config)
    rows = _SnapshotRows(snapshots)
    meta = _metadata(args, "forward", times=grid,
                     forward_scheme=snapshots[0].scheme,
                     max_mass_defect=max(s.mass_defect for s in snapshots),
                     max_error_bound=max(s.error_bound for s in snapshots))
    if args.format == "json":  # a CSV output has no metadata
        meta["max_dropped_mass"] = max(rows.dropped())
    _write_rows(args, ["time", "state", "probability"], rows, meta)


def _require_arg(args, name):
    value = getattr(args, name)
    if value is None:
        raise PureBirthError(f"--{name} is required")
    return value


def _jobs(args):
    return 1 if args.jobs is None else args.jobs


def _start(args):
    return 1 if args.start is None else args.start


# The CSV writers write each float as fmt does, "%.17g", but render the
# cells of [1e-12, 1e16) in numpy: there "%.17g" is the 17-digit significand
# D of x, rounded half to even, with its trailing zeros (and a bare point)
# dropped, written in fixed point from 1e-4 and as d.ddd...e-XX below it.
DUMP_CELLS = 2 ** 13        # a chunk: whole rows of up to this many cells
_SPLIT = 134217729.0        # 2**27 + 1, Veltkamp's splitting constant
# 10**min(q, 22), exact: 5**22 < 2**53
_POW = np.array([float(10 ** min(q, 22)) for q in range(31)])
_POW_HI = _SPLIT * _POW - (_SPLIT * _POW - _POW)
_POW_LO = _POW - _POW_HI
_UNSURE = 2.0 ** -40        # see _scaled
_TEN = np.array([float(10 ** q) for q in range(31)])  # rounded past 10**22
_POWERS = 10 ** np.arange(1, 8)  # k's digits less one: searchsorted in it


def _words(strings, width=None):
    """The strings NUL-padded to ``width`` bytes, a multiple of 8 (by
    default the longest rounded up), as the rows of a uint64 array.  Its
    words are little-endian, like all of the writers': byte j of a word is
    its bits 8j to 8j + 7."""
    width = width or -(-max(map(len, strings)) // 8) * 8
    return np.frombuffer(b"".join(s.ljust(width, b"\0") for s in strings),
                         "<u8").reshape(len(strings), width // 8)


# tables of 24-byte fields by column: word k of field i is table[k][i]
# by byte count m: the first m bytes of a field
_FIRST = _words([b"\xff" * m for m in range(25)], 24).T
# by d + 13, then d + 42 with a point: what precedes the digits, or sits
# between them, in a cell of exponent d; below -4, as for d = 0, and then
# the exponent "e-XX" at bytes 18-21, after every digit and the point (the
# NULs between them are deleted)
_LEAD = _words([(b"\0" + b"." * point).ljust(18, b"\0") + b"e-%02d" % -d
                if d < -4 else b"0." + b"0" * (-d - 1) if d < 0 else
                b"\0" * (d + 1) + b"." * point
                for point in (0, 1) for d in range(-13, 16)], 24).T
# by d + 13: the bits the digits past the units digit move by, one byte for
# the point, or 1 - d bytes for "0." and the zeros
_SHIFT = np.array([8 * (1 - d if -4 <= d < 0 else 1) for d in range(-13, 16)],
                  np.uint64)
_NEWLINE = _words([b"\n"])  # the last word column of a forward CSV row
# forward's JSON rows: up to JSON_ROWS at a time, whose 15 words a row
# take less than DUMP_CELLS CSV rows of 6 words; the words before the
# probability and between it and the state
JSON_ROWS = DUMP_CELLS // 4
_OPEN_ROW = _words([b',\n    {\n      "probability": '])
_STATE = _words([b',\n      "state": '])


@functools.cache
def _groups_of_four():
    """For k < 10**4: k's 4 ASCII digits in the low bytes of a uint64, and
    the count of its trailing zeros as 4 digits.  Built by the first
    render, so that importing the module costs no memory for them."""
    ascii4 = np.frombuffer(b"".join(b"%04d" % k for k in range(10000)),
                           "<u4").astype(np.uint64)
    zeros = sum((np.arange(10000) % 10 ** j == 0).astype(np.int64)
                for j in range(1, 5))
    return ascii4, zeros


def _integers(k, head=b"", tail=b""):
    """_words of head + b"%d" % k + tail for each k of an int64 array, with
    a head and a tail of up to 8 bytes.  Where head and the digits fit one
    word, 0 <= k < 10**(8 - len(head)), it is built in numpy: k's 8 digits
    from _groups_of_four's table, the first at byte 0, shifted right past
    their leading zeros to sit after head, and tail after them, running
    into a second word if it must."""
    if not 0 <= k.min() <= k.max() < 10 ** (8 - len(head)):
        return _words([b"%s%d%s" % (head, v, tail) for v in k.tolist()])
    ascii4 = _groups_of_four()[0]
    # end: the bit at which tail starts, 8 * (len(head) + digits)
    end = np.uint64(8) * (np.searchsorted(_POWERS, k, "right").astype(
        np.uint64) + np.uint64(len(head) + 1))
    word = ascii4[k // 10000] | (ascii4[k % 10000] << np.uint64(32))
    word >>= np.uint64(64 + 8 * len(head)) - end
    word <<= np.uint64(8 * len(head))
    after = np.uint64(int.from_bytes(tail, "little"))
    word |= np.uint64(int.from_bytes(head, "little")) | (after << end)
    if int(end.max()) + 8 * len(tail) <= 64:
        return word[:, None]
    # numpy shifts a uint64 by 64 or more to 0
    return np.stack([word, after >> (np.uint64(64) - end)], axis=1)


def _two_product(x, q):
    """p, e with p + e == x * 10**min(q, 22) exactly (Dekker's TwoProduct)."""
    b, b_hi, b_lo = _POW[q], _POW_HI[q], _POW_LO[q]
    p = x * b
    hi = _SPLIT * x
    hi -= hi - x
    lo = x - hi
    e = hi * b_hi - p
    e += hi * b_lo
    e += lo * b_hi
    e += lo * b_lo
    return p, e


def _scaled(x, q):
    """p, e, unsure with p + e == x * 10**q, for x * 10**q below 1e18 and
    q >= 0; unsure marks the cells whose rounding it may not decide.

    Up to q = 22 this is _two_product, exact.  Past it 10**q is no double;
    _two_product gives x * 10**22 == p1 + e1, p1 * 10**r == p2 + e2 and
    e1 * 10**r == p3 + e3 exactly, r = q - 22 <= 8.  The small terms are
    summed in float64: |e2| <= 64 and |p3| < 112, so p + e is x * 10**q
    within 2**-44.  A cell whose e lies within _UNSURE of a multiple of
    1/2 is marked: its rounding, or its comparison with 1e16 or 1e17, could
    go either way.  A tie, such as 3 / 2**25 at q = 24, is one of them."""
    p, e = _two_product(x, q)
    unsure = np.zeros(len(x), bool)
    far = np.flatnonzero(q > 22)
    if far.size:
        r = q[far] - 22
        p2, e2 = _two_product(p[far], r)
        p3, e3 = _two_product(e[far], r)
        rest = e2 + p3 + e3
        high = p2 + rest
        low = (p2 - high) + rest
        p[far], e[far] = high, low
        unsure[far] = np.abs(low - 0.5 * np.rint(2.0 * low)) < _UNSURE
    return p, e, unsure


def _significand(x, d):
    """(d, D, frac, unsure) for float64 x in [1e-12, 1e16) and an int64
    guess d of its decimal exponent that is off by at most one, corrected
    in place: the exponent and the 17-digit significand D that "%.17g"
    writes, 1e16 <= D < 1e17, as int64, with D + frac == x * 10**q, and
    _scaled's unsure marks.

    D is rint(x * 10**q) with q = 16 - d.  _scaled gives p + e ==
    x * 10**q, exactly for q <= 22.  When x * 10**q >= 1e16 > 2**53, p is
    an even integer, so p + rint(e) is the rounding half to even that
    "%.17g" does; it is summed in int64, exact below 2**63, and frac is
    e - rint(e).  Two corrections make d the exponent:
    * down, when p + e < 1e16 (p < 1e16, or p == 1e16 and e < 0): d - 1,
      and the product again;
    * up, when D >= 1e17: d + 1, and the product again.  A guess one too
      low gives this; so would a cell corrected down whose x * 10**(q + 1)
      rounds to 1e17, and it goes back to its first d, where D = 1e16.
    A cell that _scaled marks on any product is marked unsure."""
    p, e, unsure = _scaled(x, 16 - d)
    down = np.flatnonzero((p < 1e16) | ((p == 1e16) & (e < 0)))
    if down.size:
        d[down] -= 1
        p[down], e[down], more = _scaled(x[down], 16 - d[down])
        unsure[down] |= more
    D = p.astype(np.int64) + np.rint(e).astype(np.int64)
    up = np.flatnonzero(D >= 10 ** 17)
    if up.size:
        d[up] += 1
        p, e[up], more = _scaled(x[up], 16 - d[up])
        D[up] = p.astype(np.int64) + np.rint(e[up]).astype(np.int64)
        unsure[up] |= more
    return d, D, e - np.rint(e), unsure


def _shortest(x, d, D, frac):
    """(S, unsure): the significand repr writes for float64 x in
    [1e-12, 1e16), padded to 17 digits, from _significand's d, D and frac,
    unless it has 14 digits or fewer; and the cells whose digits this does
    not decide.

    repr writes the shortest digits that parse back to x and, of those,
    the ones nearest x (Gay 1990).  Scaled by 10**q, x is D + frac, and
    the reals that parse back to x lie within h, half its ulp, of it
    (inclusive when its last bit is 0).  At k = 16, 15 and 14 digits, the
    nearest multiple of u = 10**(17 - k) lies min(r + frac, u - r - frac)
    away, r = D mod u; S is that multiple at the shortest k within h, else
    D.  Unsure: a distance within 1e-6 of h, a decimal tie and a power of
    two (whose interval below x is h / 2)."""
    m, exponent = np.frexp(x)
    h = np.ldexp(_TEN[16 - d], exponent - 54)
    unsure = m == 0.5
    S = D.copy()
    for u in (10, 100, 1000):
        r = D % u
        below = r + frac  # x * 10**q less the multiple of u at or below D
        above = u - below
        near = np.minimum(below, above)
        unsure |= (np.abs(near - h) < 1e-6) | (below == above)
        S = np.where(near < h, D - r + u * (above < below), S)
    return S, unsure


def _fixed17(x, shortest=False):
    """(cells, unsure): "%.17g" % x, or repr(x) if shortest, for float64 x
    in [1e-12, 1e16), as 24 bytes per cell once their NULs are deleted (an
    (n, 3) uint64 array), and the cells it leaves to them: those that
    _significand or _shortest marks.  In that domain both write the
    significand of _significand, or of _shortest, without its trailing
    zeros and without a point that no digit follows: in fixed point for an
    exponent d >= -4, else as for d = 0 followed by "e-XX".  But repr also
    leaves a cell of 14 digits or fewer, which _shortest does not find, and
    writes "1234.0" where "%.17g" writes "1234".  np.log10 gives the
    exponent within one."""
    d, D, frac, unsure = _significand(x, np.floor(np.log10(x))
                                      .astype(np.int64))
    if shortest:
        D, more = _shortest(x, d, D, frac)
        unsure |= more
    ascii4, trailing_zeros = _groups_of_four()

    # D as its first digit and four groups of 4 digits
    first = D // 10 ** 16
    D -= first * 10 ** 16
    high = D // 10 ** 8
    low = D - high * 10 ** 8
    groups = [high // 10000, high % 10000, low // 10000, low % 10000]
    # last: the index of D's last nonzero digit of the 17
    zeros = trailing_zeros[groups[3]]
    for k, group in ((4, groups[2]), (8, groups[1]), (12, groups[0])):
        more = np.flatnonzero(zeros == k)
        zeros[more] += trailing_zeros[group[more]]
    last = 16 - zeros
    # the 17 ASCII digits at bytes 0-16 of three little-endian words
    a = ascii4[groups[0]] | (ascii4[groups[1]] << np.uint64(32))
    b = ascii4[groups[2]] | (ascii4[groups[3]] << np.uint64(32))
    first = first.astype(np.uint64) + np.uint64(ord("0"))
    digits = [first | (a << np.uint64(8)),
              (a >> np.uint64(56)) | (b << np.uint64(8)),
              b >> np.uint64(56)]

    # fixed: the exponent of the fixed-point layout, d, or 0 for the
    # exponent form; keep the digits up to the last nonzero one or its
    # units digit; the first max(fixed + 1, 0) stay put and the rest move
    # right to make room for the point, or for "0." and the zeros before
    # the first digit
    fixed = np.where(d < -4, 0, d)
    keep = np.maximum(last, fixed) + 1
    stay = np.maximum(fixed + 1, 0)
    shift = _SHIFT[d + 13]
    back = np.uint64(64) - shift
    lead = d + 13 + 29 * (last > fixed)
    out = np.empty((len(x), 3), np.uint64)
    carry = np.uint64(0)
    for k in range(3):
        word = digits[k] & _FIRST[k][keep]
        kept = word & _FIRST[k][stay]
        word ^= kept
        kept |= _LEAD[k][lead]
        kept |= carry
        carry = word >> back
        word <<= shift
        out[:, k] = kept | word
    if shortest:
        unsure |= (last < 14) | (last <= fixed)
    return out, unsure


def _cells(x, fallback=fmt):
    """fallback(x[i]) for every float64 cell, fmt or repr, as 24 bytes once
    their NULs are deleted: an (n, 3) uint64 array.  _fixed17 renders the
    cells of its domain and fallback the rest: 0.0, cells below 1e-12 and
    cells of 1e16 or more, and those _fixed17 leaves to it."""
    inside = (x >= 1e-12) & (x < 1e16)
    cells, unsure = _fixed17(np.where(inside, x, 1.0), fallback is repr)
    other = np.flatnonzero(unsure | ~inside)
    if other.size:
        cells[other] = _words([fallback(t).encode()
                               for t in x[other].tolist()], 24)
    return cells


def _render(*columns, fallback=fmt):
    """Text as bytes: the word columns of its lines side by side, the NULs
    deleted.  A column is an array of uint64 words, with one row per line
    or broadcast to the lines, or a float64 array of cells, which _cells
    renders with fallback's digits."""
    columns = [_cells(c.ravel(), fallback).reshape(c.shape + (3,))
               if c.dtype == np.float64 else c for c in columns]
    lines = np.broadcast_shapes(*(c.shape[:-1] for c in columns))
    line = np.concatenate([np.broadcast_to(c, lines + c.shape[-1:])
                           for c in columns], axis=-1)
    return line.astype("<u8", copy=False).tobytes().translate(None, b"\0")


def _trajectory_lines(first, times, start):
    """The dump's rows "replicate,time,state\\n" of one block of
    event_time_blocks, as bytes, whole rows of up to DUMP_CELLS cells (or
    one row) at a time."""
    rows, states = times.shape
    prefix = _integers(np.arange(first, first + rows), tail=b",")
    suffix = _integers(np.arange(start, start + states), b",", b"\n")
    height = max(1, DUMP_CELLS // states)
    for r in range(0, rows, height):
        yield _render(prefix[r:r + height, None], times[r:r + height],
                      suffix)


def _write_summary(args, command, summary, header=(), row=()):
    """Write one Monte Carlo summary row, after the given leading columns."""
    header = [*header, "replicates", "master_seed", "mean", "std_error", *(
        f"q{round(100 * q):02d}" for q in QUANTILE_LEVELS), "time_unit"]
    row = [*row, summary.replicates, summary.master_seed, summary.mean,
           summary.std_error, *(summary.quantiles[q] for q in QUANTILE_LEVELS),
           summary.time_unit]
    _write_rows(args, header, [row], _metadata(
        args, command, seed=summary.master_seed,
        replicates=summary.replicates, rng_scheme=RNG_SCHEME))


def _cmd_simulate(args):
    model = build_rate_model(_model_spec(args))
    start = _start(args)
    replicates = _require_arg(args, "replicates")
    seed = _require_arg(args, "seed")
    if args.trajectories is not None:
        # the summary takes the dumped blocks' terminal times, so each block
        # is drawn once; estimate_absorption_time's checks, in its order,
        # come before the file is opened
        require_integer("replicates", replicates, 2)
        require_integer("n_jobs", _jobs(args), 1)
        blocks = event_time_blocks(model, start, replicates, seed)
        terminal = np.empty(replicates)
        with _output(args.trajectories, "wb") as handle:
            handle.write(b"replicate,time,state\n")
            for first, times in blocks:
                handle.writelines(_trajectory_lines(first, times, start))
                terminal[first:first + len(times)] = times[:, -1]
                del times  # so that one block is held while the next is drawn
        summary = summarize_terminal_times(terminal, seed, model.time_unit)
    else:
        summary = estimate_absorption_time(model, start, replicates, seed,
                                           n_jobs=_jobs(args))
    _write_summary(args, "simulate", summary)


def _cmd_sweep(args):
    param = _require_arg(args, "param")
    grid = _increasing(_require_arg(args, "values"),
                       int if param == "N" else float, "--values",
                       f"--values: {param}")
    # an unknown or missing family is left to the first point's build
    used = _KEYS.get(args.family, {}).values()
    if used and param not in used:
        raise PureBirthError(f"sweep --param {param}: the {args.family} "
                             f"family uses only {', '.join(used)}")
    rows = []
    for value in grid:
        spec = _model_spec(args)
        spec[param] = value
        try:
            model = build_rate_model(spec)
            report = expected_absorption_time(model, _start(args))
        except PureBirthError as exc:
            raise PureBirthError(f"sweep point {param}={value}: {exc}") from exc
        rows.append([value, report.exact_mean, report.approx_mean])
    _write_rows(args, [param, "exact_mean", "approx_mean"], rows,
                _metadata(args, "sweep", param=param))


def _cmd_explosion(args):
    args.family, args.exponent = POWERLAW, 2.0
    model = build_rate_model(_model_spec(args))
    replicates = _require_arg(args, "replicates")
    seed = _require_arg(args, "seed")
    start = _start(args)
    # the start state is checked before the replicates, jobs and seed
    analytic = expected_absorption_time(model, start)
    summary = estimate_absorption_time(model, start, replicates, seed,
                                       n_jobs=_jobs(args))
    _write_summary(args, "explosion", summary,
                   ["cap", "analytic_mean", "limit_bound"],
                   [model.state_cap, analytic.exact_mean,
                    analytic.approx_mean])


_COMMANDS = {
    "expect-time": _cmd_expect_time,
    "forward": _cmd_forward,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "explosion": _cmd_explosion,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        for dest in PATHS:
            if getattr(args, dest, None) == "":
                raise PureBirthError(f"--{dest} is an empty path")
        if args.config is not None:
            _apply_config(args, args.config, _config_actions(parser))
        _require_distinct_paths(args)
        _COMMANDS[args.command](args)
    except (PureBirthError, OSError, ValueError, ArithmeticError,
            MemoryError) as exc:
        print(f"purebirth: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
