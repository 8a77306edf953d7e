"""Per-layer spans and counters, recorded from outside the solver.

``Tracer.install()`` swaps wrappers in for each layer's public functions at
the name the caller looks them up by (a ``from x import y`` binding is a
separate name from ``x.y``, so both get patched), and ``uninstall()`` puts
the originals back.  Spans (name, start, end, parent, solve id) stay in
memory until ``write_spans``; self time is a span's duration minus its
direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from orienteer import formulation, instance, lp, separation, simplex, solver

# (module, attribute, span name): every place a layer is looked up from
WRAPPED = (
    (instance, "parse_instance", "instance.parse"),
    (instance, "preprocess", "instance.preprocess"),
    (solver, "preprocess", "instance.preprocess"),
    (instance, "min_time_matrix", "instance.min_time"),
    (solver, "min_time_matrix", "instance.min_time"),
    (formulation, "min_time_matrix", "instance.min_time"),
    (solver, "_screen", "solver.screen"),
    (separation, "build_conflict_set", "separation.conflict_set"),
    (solver, "build_conflict_set", "separation.conflict_set"),
    (solver, "build_flow_formulation", "formulation.build"),
    (solver, "build_arrival_formulation", "formulation.build"),
    (solver, "cutting_plane_phase", "solver.root"),
    (solver, "branch_and_bound", "solver.search"),
    (solver, "separate_connectivity", "separation.connectivity"),
    (solver, "separate_conflict", "separation.conflict"),
    (solver, "separate_lifted_cover", "separation.cover"),
    (solver, "filter_cuts", "separation.filter"),
    (separation, "knapsack_max", "separation.knapsack"),
    (separation, "max_flow_min_cut", "maxflow"),
    (lp, "solve", "lp.stateless_solve"),
    (simplex, "solve_dense", "simplex.dense"),
    (lp.HighsSession, "__init__", "lp.session_build"),
    (lp.HighsSession, "solve", "lp.session_solve"),
    (lp.HighsSession, "add_rows", "lp.session_add_rows"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, solve id]
        self.counts = defaultdict(float)
        self.solve_id = None
        self._stack = []
        self._saved = []

    # -- spans ---------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.solve_id])
        self._stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def inside(self, name):
        return any(self.spans[k][0] == name for k in self._stack)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer.close()
            tracer.observe(name, args, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        for owner, attr, name in WRAPPED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def observe(self, name, args, out):
        """Counters read off a layer call's arguments and result."""
        c = self.counts
        if name == "lp.session_solve":
            session = args[0]
            c["lp.simplex_iters"] += session._h.getInfo().simplex_iteration_count
            if out is None:
                c["lp.session_fallbacks"] += 1
            if self.inside("solver.search"):
                c["search_lp_solves"] += 1
        elif name == "lp.stateless_solve" and self.inside("solver.search"):
            c["search_lp_solves"] += 1
        elif name == "maxflow":
            c["maxflow.arcs"] += len(args[0].tails)
        elif name == "separation.filter":
            c["separation.candidates"] += len(args[0])
            c["separation.kept"] += len(out)
        elif name == "formulation.build":
            c["formulation.rows"] += out.model.n_rows
            c["formulation.cols"] += out.model.n_cols
        elif name == "solver.root":
            c["solver.root_rounds"] += out.iterations
        elif name == "solver.search":
            c["solver.nodes"] += out[4]["nodes"]
            c["solver.pool_activated"] += out[4]["pool_activated"]

    # -- summaries -----------------------------------------------------

    def totals(self):
        """{span name: (calls, total seconds, self seconds, durations)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own, durs = out.get(name, (0, 0.0, 0.0, []))
            durs.append(end - start)
            out[name] = (calls + 1, total + end - start, own + end - start - child[k], durs)
        return out

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, solve_id in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, solve_id]) + "\n")
