"""Spans and counters recorded around the calls into each purebirth module.

The benchmark never edits the library.  Instead, for each traced pass of a
run, it replaces the names each module looks up at call time (for example
``purebirth.analytic.rate_at`` or ``purebirth.forward.solve_ivp``) with
timing wrappers, and puts the originals back afterwards.

Every wrapped function belongs to a layer: the purebirth module that defines
it (``rates``, ``analytic``, ``forward``, ``montecarlo``, ``cli``) or none for
third-party code such as scipy's ``solve_ivp``.  A layer's self time is the
time spent in its wrapped functions minus the time their wrapped callees
took.  A call counts towards ``<layer>.calls`` when it enters the layer from
outside it.

Coarse calls are kept as spans (name, start, end, parent, job id) in memory
and written out when the run ends.  Calls made thousands of times per job
(``rate_at``, ``replicate_stream``, ``build_rate_model``, ``simulate_path``)
are only counted and timed, so that tracing does not grow with N.

Work done in forked ``--jobs`` workers runs the wrapped functions inside the
child processes, whose counters are discarded; in the parent it appears only
as ``montecarlo.pool_wait_s``.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class _Frame:
    __slots__ = ("layer", "span_id", "child_s")

    def __init__(self, layer, span_id):
        self.layer = layer
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """In-memory spans and counters for one traced phase of a run."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent id, job id]
        self.counts = defaultdict(float)
        self.max_values = defaultdict(float)
        self.missing = []        # hook targets the library no longer has
        self._stack = []
        self._next_id = 0
        self._job_id = None
        self._patches = []

    # -- job roots ---------------------------------------------------------

    def begin_job(self, job_id, name):
        self._job_id = job_id
        self._stack.append(_Frame(None, self._open_span()))
        return _clock(), name

    def end_job(self, token):
        start, name = token
        frame = self._stack.pop()
        self.spans.append([frame.span_id, name, start, _clock(), None,
                           self._job_id])
        self._job_id = None

    def _open_span(self):
        self._next_id += 1
        return self._next_id

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, layer=None, key=None, record=True, hook=None):
        """Time every call of ``fn``; see the module docstring."""
        stack = self._stack
        counts = self.counts
        spans = self.spans
        key = key or name

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(layer, self._open_span() if record else None)
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            elapsed = end - start
            if parent is not None:
                parent.child_s += elapsed
            counts[key + "_s"] += elapsed
            counts[key + "_calls"] += 1
            if layer is not None:
                counts[layer + ".self_s"] += elapsed - frame.child_s
                if parent is None or parent.layer != layer:
                    counts[layer + ".calls"] += 1
            if record:
                spans.append([frame.span_id, name, start, end,
                              parent.span_id if parent else None,
                              self._job_id])
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def child_timer(self, fn, key, when=None):
        """Time calls of ``fn`` as a child outside every layer, optionally
        only those for which ``when(args, kwargs)`` holds."""
        stack = self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                if stack:
                    stack[-1].child_s += elapsed
                counts[key] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace ``owner.attr`` by ``make(original)`` until ``unpatch``."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- the hook table ----------------------------------------------------------

def _forward_grid_hook(tracer, snapshots, args, kwargs):
    if snapshots:
        tracer.counts["forward.states"] += len(snapshots[0].states)
        worst = max(float(s.mass_defect) for s in snapshots)
        tracer.max_values["forward.max_mass_defect"] = max(
            tracer.max_values["forward.max_mass_defect"], worst)


def _solve_ivp_hook(tracer, sol, args, kwargs):
    for field in ("nfev", "njev", "nlu"):
        tracer.counts["forward." + field] += int(getattr(sol, field, 0) or 0)


def _ensemble_hook(tracer, result, args, kwargs):
    model, start_state, replicates = args[:3]
    tracer.counts["montecarlo.replicates"] += replicates
    tracer.counts["montecarlo.holding_times"] += replicates * max(
        model.absorbing_state - start_state, 0)


def _path_hook(tracer, path, args, kwargs):
    # simulate_path as called by the CLI's trajectory dump: one replicate,
    # one CSV row per event
    events = len(path.events)
    tracer.counts["montecarlo.replicates"] += 1
    tracer.counts["montecarlo.holding_times"] += max(events - 1, 0)
    tracer.counts["cli.rows_out"] += events


def _write_rows_hook(tracer, result, args, kwargs):
    tracer.counts["cli.rows_out"] += len(args[2])


def _uses_pool(args, kwargs):
    n_jobs = kwargs.get("n_jobs", args[5] if len(args) > 5 else 1)
    return bool(n_jobs) and n_jobs > 1


def install(tracer):
    """Wrap the module-level names the library looks up at call time.

    Names missing from the library are listed in ``tracer.missing`` and
    their metrics stay zero.
    """
    from purebirth import analytic, cli, forward, montecarlo, rates

    def span(name, layer, key=None, hook=None, record=True):
        return lambda fn: tracer.wrap(fn, name, layer, key, record, hook)

    # rates: leaves, counted only
    build = span("rates.build_rate_model", "rates", "rates.build",
                 record=False)
    tracer.patch(rates, "build_rate_model", build)
    tracer.patch(cli, "build_rate_model", build)
    rate_at = span("rates.rate_at", "rates", "rates.rate_at", record=False)
    for module in (analytic, forward, montecarlo):
        tracer.patch(module, "rate_at", rate_at)

    # analytic
    tracer.patch(cli, "expected_absorption_time",
                 span("analytic.expected_absorption_time", "analytic",
                      "analytic.expect"))
    tracer.patch(analytic, "harmonic_number",
                 span("analytic.harmonic_number", "analytic",
                      "analytic.harmonic"))
    law = span("analytic.law", "analytic", "analytic.law")
    tracer.patch(analytic, "hitting_time_distribution", law)
    law_type = getattr(analytic, "HittingTimeDistribution", None)
    if law_type is not None:
        tracer.patch(law_type, "cdf", law)
        tracer.patch(law_type, "pdf", law)

    # forward
    tracer.patch(cli, "forward_grid",
                 span("forward.forward_grid", "forward", "forward.grid",
                      hook=_forward_grid_hook))
    tracer.patch(forward, "solve_ivp",
                 span("scipy.solve_ivp", None, "forward.integrate",
                      hook=_solve_ivp_hook))

    # montecarlo
    for owner in (cli, montecarlo):
        tracer.patch(owner, "estimate_absorption_time",
                     span("montecarlo.estimate_absorption_time",
                          "montecarlo", "montecarlo.estimate"))
    tracer.patch(cli, "explosion_study",
                 span("montecarlo.explosion_study", "montecarlo",
                      "montecarlo.explosion"))
    tracer.patch(montecarlo, "empirical_distribution_at",
                 span("montecarlo.empirical_distribution_at", "montecarlo",
                      "montecarlo.empirical"))
    tracer.patch(montecarlo, "summarize_terminal_times",
                 span("montecarlo.summarize_terminal_times", "montecarlo",
                      "montecarlo.summarize"))
    stream = span("montecarlo.replicate_stream", "montecarlo",
                  "montecarlo.stream", record=False)
    tracer.patch(montecarlo, "replicate_stream", stream)
    tracer.patch(cli, "replicate_stream", stream)
    tracer.patch(cli, "simulate_path",
                 span("montecarlo.simulate_path", "montecarlo",
                      "montecarlo.path", hook=_path_hook, record=False))

    def ensemble(fn):
        pooled = tracer.child_timer(fn, "montecarlo.pool_wait_s", _uses_pool)

        def counted(*args, **kwargs):
            result = pooled(*args, **kwargs)
            _ensemble_hook(tracer, result, args, kwargs)
            return result
        return counted
    tracer.patch(montecarlo, "_simulate_ensemble", ensemble)

    def pool(factory):
        def counted(*args, **kwargs):
            workers = kwargs.get("max_workers", args[0] if args else None)
            tracer.counts["montecarlo.workers_started"] += workers or 0
            return factory(*args, **kwargs)
        return counted
    tracer.patch(montecarlo, "ProcessPoolExecutor", pool)

    # cli
    tracer.patch(cli, "_write_rows",
                 span("cli.write_rows", "cli", "cli.write",
                      hook=_write_rows_hook))
    tracer.patch(cli, "main", span("cli.main", "cli", "cli.main"))
