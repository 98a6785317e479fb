"""In-memory span tracer that wraps sclaw's layer call sites from outside.

Nothing under ``src/`` is edited: ``install()`` rebinds the names the
layers use to call each other (module globals such as
``sclaw.harness.pair_l1_distances`` and class attributes such as
``FluxModel.eo_flux``) to timing wrappers.  Each thread keeps its own
span stack, so blocks run by the harness worker pool are attributed to
the worker that ran them.  Spans carry their own work counts and stay
in memory; ``summarize()`` turns them into per-layer metrics once the
commands have finished.
"""

from __future__ import annotations

import bisect
import inspect
import json
import sys
import threading
import time
from dataclasses import replace

import numpy as np

_clock = time.perf_counter

# count metrics; each must repeat exactly between traced repetitions
COUNTS = ("models.philox_normals", "models.eo_flux_calls",
          "solvers.cell_steps", "solvers.skeleton_solves", "harness.blocks",
          "mollifier.table_points", "diagnostics.wedge_evals",
          "ratefn.iterations", "ratefn.line_search_trials",
          "ratefn.trial_failures")
RATIOS = ("harness.parallelism", "harness.serial_parallelism",
          "ratefn.accept_ratio", "trace.coverage", "trace.overhead_frac")


def unit(name):
    if name in COUNTS:
        return "count"
    if name in RATIOS:
        return "ratio"
    return "1/s" if name.endswith("_per_s") else "s"


class Span:
    __slots__ = ("name", "start", "end", "child", "count", "parent",
                 "thread", "nested", "failed", "tag")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.nested = parent is not None and parent.name == name
        self.child = 0.0      # time covered by direct children, same thread
        self.count = 0
        self.failed = False
        self.tag = None       # wrapper-specific: see install()
        self.start = _clock()
        self.end = None

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.dur - self.child

    def as_dict(self):
        return {"name": self.name, "thread": self.thread,
                "start": self.start, "end": self.end,
                "parent": None if self.parent is None else self.parent.name,
                "count": self.count}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._last_lam = None

    # -- span stack ---------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name):
        st = self._stack()
        span = Span(name, st[-1] if st else None, threading.get_ident())
        st.append(span)
        return span

    def close(self, span):
        span.end = _clock()
        st = self._stack()
        st.pop()
        if span.parent is not None:
            span.parent.child += span.dur
        self.spans.append(span)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr, name, count=None, before=None,
             kind=None, bind=False):
        """Rebind owner.attr to a timing wrapper recording spans `name`.

        count(arguments, result) gives the span's work count and
        before(arguments, span) runs first, with the span already open;
        arguments maps parameter names to values when bind is set (it
        costs microseconds per call), else it is None.  kind is
        "classmethod" for class methods.  A missing attribute is
        reported on stderr and skipped, so a renamed call site lowers
        trace.coverage instead of breaking the run.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else \
            getattr(owner, attr, None)
        if raw is None:
            print(f"perfbench: trace target {owner.__name__}.{attr} not "
                  f"found; not traced", file=sys.stderr)
            return
        func = raw.__func__ if kind == "classmethod" else raw
        sig = inspect.signature(func) if bind else None
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                a = sig.bind(*args, **kwargs).arguments if bind else None
                if before is not None:
                    before(a, span)
                result = func(*args, **kwargs)
                if count is not None:
                    span.count = count(a, result)
                return result
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = func
        setattr(owner, attr, classmethod(wrapper) if kind == "classmethod"
                else wrapper)

    # -- the sclaw layer map ------------------------------------------------

    def install(self):
        import sclaw.cli as cli
        import sclaw.diagnostics as diagnostics
        import sclaw.harness as harness
        import sclaw.ratefn as ratefn
        import sclaw.solvers as solvers
        from sclaw.grid import Trajectory
        from sclaw.mollifier import KernelTables
        from sclaw.models import FluxModel, NoisePath

        def cell_steps(members, base=False):
            """members x paths x steps x cells of one stepping call."""
            def count(a, _result):
                cfg = a["cfg"]
                if base:
                    cfg = replace(cfg, epsilon=a["epsilon"])
                steps = solvers.resolve_time_grid(cfg, a["flux"], a["eta"])[0]
                paths = len(a["path_indices"]) if "path_indices" in a else 1
                return members * paths * steps * a["eta"].grid.cells
            return count

        def wedges(a, _result):
            pair, moll = a["pair"], a["moll"]
            grid = pair[0].grid
            _, gw = moll.gradient_weights(grid)
            return ((len(pair[0].times) - 1) * grid.cells
                    * int((gw != 0.0).sum()))

        def new_rate(_a, _span):
            self._last_lam = None

        def mark_trial(a, span):
            # the first objective at each penalty level is the level's
            # reference value; later ones at the same lam are trials
            span.tag = a["lam"] == self._last_lam   # a line-search trial
            self._last_lam = a["lam"]

        # models
        self.wrap(NoisePath, "generate", "models.philox", kind="classmethod",
                  count=lambda _a, r: int(r.increments.size))
        self.wrap(FluxModel, "eo_flux", "models.eo_flux")
        self.wrap(FluxModel, "sup_abs_a", "models.cfl_check")
        self.wrap(cli, "validate_flux", "models.validate")
        self.wrap(cli, "validate_noise", "models.validate")
        # solvers
        for attr, members in (("pair_l1_distances", 2),
                              ("pair_moment_maxes", 2),
                              ("scaled_endpoints", 1),
                              ("base_small_time_endpoints", 1)):
            self.wrap(harness, attr, "solvers.sweep", bind=True,
                      count=cell_steps(members, attr.startswith("base")))
        self.wrap(cli, "solve_coupled_pair", "solvers.pair_run", bind=True,
                  count=cell_steps(2))
        self.wrap(ratefn, "solve_skeleton", "solvers.skeleton")
        # harness
        for mod in (cli, harness):
            for attr in ("estimate_tail", "exp_equiv_scan", "moment_scan",
                         "scaling_check"):
                if attr in vars(mod):
                    self.wrap(mod, attr, "harness.tally")
        self.wrap(harness, "map_blocks", "harness.map_blocks",
                  before=lambda _a, span: setattr(span, "tag",
                                                  harness.worker_count()))
        self.wrap(harness, "ks_2samp", "harness.ks")
        # mollifier
        for attr in ("X", "Xi"):
            self.wrap(KernelTables, attr, "mollifier.table", bind=True,
                      count=lambda a, _r: int(np.size(a["r"])))
        # diagnostics
        self.wrap(diagnostics, "transport_term", "diagnostics.transport",
                  bind=True, count=wedges)
        self.wrap(cli, "bound_check_J", "diagnostics.J")
        self.wrap(cli, "bound_check_I", "diagnostics.I")
        self.wrap(cli, "error_term", "diagnostics.error_term")
        # ratefn
        self.wrap(cli, "rate_estimate", "ratefn.rate_estimate",
                  before=new_rate)
        self.wrap(ratefn, "penalty_objective", "ratefn.objective",
                  bind=True, before=mark_trial)
        # cli
        self.wrap(cli, "load_config", "cli.config")
        for attr in ("write_manifest", "_write_lines", "emit_plot_data",
                     "write_bound_reports"):
            self.wrap(cli, attr, "cli.io")
        self.wrap(Trajectory, "to_csv", "cli.io")

    # -- results ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def summarize(spans, iterations: int) -> dict:
    """Per-layer metrics from the finished spans of one traced repetition.

    A layer's total time counts only its outermost spans (a span nested
    directly in a span of the same name is skipped); its self time is
    the duration minus the time its direct children cover.
    """
    tot, self_t, cnt, calls = {}, {}, {}, {}
    trials = trial_s = trial_fail = 0
    cmd_wall = cmd_cov = 0.0
    for s in spans:
        n = s.name
        if not s.nested:
            tot[n] = tot.get(n, 0.0) + s.dur
        self_t[n] = self_t.get(n, 0.0) + s.self_time
        cnt[n] = cnt.get(n, 0) + s.count
        calls[n] = calls.get(n, 0) + 1
        if n == "ratefn.objective" and s.tag:
            trials += 1
            trial_s += s.dur
            trial_fail += s.failed
        if n == "cli.command":
            cmd_wall += s.dur
            cmd_cov += s.child

    def rate(num, den):
        return num / den if den > 0 else 0.0

    philox = cnt.get("models.philox", 0)
    cell_steps = cnt.get("solvers.sweep", 0) + cnt.get("solvers.pair_run", 0)
    stepping_s = tot.get("solvers.sweep", 0.0) + tot.get("solvers.pair_run",
                                                         0.0)
    skel = calls.get("solvers.skeleton", 0)
    table_pts = cnt.get("mollifier.table", 0)
    wedge = cnt.get("diagnostics.transport", 0)
    # sweep blocks grouped by the worker count of the map that ran them;
    # maps run one at a time, so a block belongs to the map spanning it
    maps = sorted((s.start, s.end, s.tag) for s in spans
                  if s.name == "harness.map_blocks")
    starts = [m[0] for m in maps]
    busy = {True: 0.0, False: 0.0}
    wall = {True: 0.0, False: 0.0}
    for start, end, workers in maps:
        wall[workers > 1] += end - start
    for s in spans:
        if s.name == "solvers.sweep":
            i = bisect.bisect_right(starts, s.start) - 1
            pooled = i >= 0 and s.start <= maps[i][1] and maps[i][2] > 1
            busy[pooled] += s.dur
    return {
        "models.philox_normals": philox,
        "models.philox_s": tot.get("models.philox", 0.0),
        "models.philox_normals_per_s": rate(philox,
                                            tot.get("models.philox", 0.0)),
        "models.eo_flux_calls": calls.get("models.eo_flux", 0),
        "models.eo_flux_s": tot.get("models.eo_flux", 0.0),
        "models.cfl_check_s": tot.get("models.cfl_check", 0.0),
        "models.validate_s": tot.get("models.validate", 0.0),
        "solvers.cell_steps": cell_steps,
        "solvers.sweep_self_s": self_t.get("solvers.sweep", 0.0),
        "solvers.cell_steps_per_s": rate(cell_steps, stepping_s),
        "solvers.pair_run_s": tot.get("solvers.pair_run", 0.0),
        "solvers.skeleton_solves": skel,
        "solvers.skeleton_s": tot.get("solvers.skeleton", 0.0),
        "solvers.skeleton_solves_per_s": rate(skel,
                                              tot.get("solvers.skeleton", 0.0)),
        "harness.blocks": calls.get("solvers.sweep", 0),
        "harness.busy_s": busy[True],
        "harness.map_wall_s": wall[True],
        "harness.parallelism": rate(busy[True], wall[True]),
        "harness.serial_parallelism": rate(busy[False], wall[False]),
        "harness.ks_s": tot.get("harness.ks", 0.0),
        "harness.tally_self_s": self_t.get("harness.tally", 0.0),
        "mollifier.table_points": table_pts,
        "mollifier.table_s": tot.get("mollifier.table", 0.0),
        "mollifier.table_points_per_s": rate(table_pts,
                                             tot.get("mollifier.table", 0.0)),
        "diagnostics.wedge_evals": wedge,
        "diagnostics.transport_self_s": self_t.get("diagnostics.transport",
                                                   0.0),
        "diagnostics.wedge_evals_per_s": rate(
            wedge, tot.get("diagnostics.transport", 0.0)),
        "diagnostics.J_s": tot.get("diagnostics.J", 0.0),
        "ratefn.iterations": iterations,
        "ratefn.line_search_trials": trials,
        "ratefn.accept_ratio": rate(iterations, trials),
        "ratefn.trial_failures": trial_fail,
        "ratefn.line_search_s": trial_s,
        "ratefn.gradient_s": self_t.get("ratefn.rate_estimate", 0.0),
        "cli.config_s": tot.get("cli.config", 0.0),
        "cli.io_s": tot.get("cli.io", 0.0),
        "trace.coverage": rate(cmd_cov, cmd_wall),
    }
