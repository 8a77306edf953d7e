#!/usr/bin/env python3
"""Solver benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload cpa-solve --seed 3 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/`` with no
install.  The load is a closed loop in one process: one solve at a time, each
capped at ``NODE_CAP`` branch-and-bound nodes so work is bounded by count,
never by the clock.  The instance list is walked in passes until the next
pass would overrun ``--seconds`` (at least one pass); short solves repeat
within a pass.  Times are per solve, the median over all its samples, each
scaled to a nominal host speed: before each instance the run times a fixed
reference kernel (the HiGHS engine the solver uses, on a fixed LP), and a
sample counts ``REF_NOMINAL_S / reference seconds`` times its wall seconds,
the reference seconds being the median of the five timings nearest it.
On a shared VM the host's speed moves by 30% for minutes at a time, which a
one-minute run cannot average out; the reference moves with it.

Inputs: the workload's corpus is drawn by ``corpus.py`` at
``corpus.DEFAULT_SEED``, and ``--seed`` shuffles the solve order.  The solvers
do the same work on every seed, and the optima and statuses recorded in
``expected.json`` hold for every seed (README.md says why the seed does not
draw fresh instances).

Every solve is checked (route validity, reward = lower bound, LB <= UB,
root >= LB, agreement with the recorded optimum, identical nodes and bounds
across repeats); a solve that raises or fails a check counts in ``failed``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics (see README.md for the
layer to end-to-end map).  Details per instance, the environment and the
spans go to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

NODE_CAP = 400
# median wall seconds of ``reference_seconds`` on the shared 2-core x86_64 VM
# the bounds in BENCHMARK.json were set on; a time metric reads as seconds
# on a host where the reference takes this long
REF_NOMINAL_S = 0.0105
SETUP_REPEATS = 5
# set-up is timed against a fresh interpreter importing only the solver's
# heavy dependencies; its median wall seconds on the same VM
SETUP_REF_CODE = "import numpy, scipy.optimize"
SETUP_REF_NOMINAL_S = 0.92
MIN_SAMPLE_S = 0.2
MAX_REPEATS = 10
TOL = 1e-6

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import orienteer
from orienteer.instance import parse_instance
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_instance(fh.read(), name=path)
"""


@dataclass
class Outcome:
    status: str
    lower: float = -math.inf
    upper: float = math.inf
    lp_bound: float | None = None
    root_bound: float | None = None
    nodes: int = 0
    routes: list = field(default_factory=list)
    reason: str = ""

    def fingerprint(self):
        return (self.status, self.lower, self.upper, self.lp_bound, self.root_bound, self.nodes)


# -- workloads -----------------------------------------------------------------


def _from_report(rep):
    return Outcome(
        status=rep.status,
        lower=rep.lower_bound,
        upper=rep.upper_bound,
        lp_bound=rep.lp_bound,
        root_bound=rep.root_bound,
        nodes=rep.node_count,
        routes=rep.routes,
        reason=rep.reason,
    )


def solve_cpa(inst, config):
    from orienteer import solver

    return _from_report(solver.solve_stop(inst, config))


def solve_base(inst, config):
    from orienteer import solver

    return _from_report(solver.solve_baseline(inst, config))


def root_cuts(inst, config):
    from orienteer import instance, separation, solver

    pre, _ = instance.preprocess(inst)
    conflicts = separation.build_conflict_set(pre, pre.min_times)
    phase = solver.cutting_plane_phase(pre, config, conflicts=conflicts)
    return Outcome(
        status=phase.status,
        lp_bound=phase.lp_bound,
        root_bound=phase.upper_bound,
        nodes=phase.iterations,
    )


def baseline_root_bound(inst, config):
    """The baseline's bound after its root node's cut rounds: a one-node
    search stops with the open root bound as its upper bound."""
    from orienteer import solver

    return solver.solve_baseline(inst, replace(config, max_nodes=1)).upper_bound


RUNNERS = {"cpa-solve": solve_cpa, "baseline-bc": solve_base, "root-cuts": root_cuts}

# layers each workload is meant to stress; a traced run that records no
# call for one of them fails
REQUIRED_SPANS = {
    "cpa-solve": (
        "instance.preprocess", "instance.min_time", "solver.screen", "formulation.build",
        "lp.session_build", "lp.session_solve", "lp.session_add_rows", "solver.root",
        "solver.search", "separation.connectivity", "separation.conflict", "separation.cover",
        "separation.knapsack", "separation.filter", "separation.conflict_set", "maxflow",
    ),
    "root-cuts": (
        "instance.preprocess", "instance.min_time", "formulation.build", "lp.session_solve",
        "lp.session_add_rows", "solver.root", "separation.connectivity", "separation.conflict",
        "separation.cover", "separation.knapsack", "separation.filter",
        "separation.conflict_set", "maxflow",
    ),
    "baseline-bc": (
        "instance.preprocess", "solver.screen", "formulation.build", "lp.stateless_solve",
        "lp.session_solve", "lp.session_add_rows", "solver.search",
        "separation.connectivity", "maxflow",
    ),
}


# -- checks --------------------------------------------------------------------


def check(workload, inst, out, expected):
    """Problems with one solve's output; empty when it is correct."""
    from orienteer.cli import validate_solution

    bad = []
    if workload == "root-cuts":
        if out.status != expected["status"]:
            return [f"root loop ended {out.status}, recorded {expected['status']}"]
        if out.status != "bound":
            return []
        if abs(out.lp_bound - expected["lp_bound"]) > TOL * max(1.0, abs(expected["lp_bound"])):
            bad.append(f"LP bound {out.lp_bound} != recorded {expected['lp_bound']}")
        if out.root_bound > out.lp_bound + TOL:
            bad.append(f"root bound {out.root_bound} above LP bound {out.lp_bound}")
        known = expected["known_reward"]
        if known is not None and out.root_bound < known - TOL:
            bad.append(f"root bound {out.root_bound} cuts off known reward {known}")
        return bad

    if out.status not in ("optimal", "infeasible", "time-limit"):
        bad.append(f"unknown status {out.status}")
    if out.routes:
        verdict = validate_solution(inst, out.routes)
        if not verdict.ok:
            bad.append("invalid routes: " + "; ".join(verdict.violations))
        if verdict.reward != out.lower:
            bad.append(f"route reward {verdict.reward} != lower bound {out.lower}")
    elif out.lower > -math.inf:
        bad.append("lower bound without routes")
    if out.lower > out.upper + TOL:
        bad.append(f"LB {out.lower} above UB {out.upper}")
    if out.root_bound is not None and out.root_bound < out.lower - TOL:
        bad.append(f"root bound {out.root_bound} below LB {out.lower}")
    if out.status == "optimal" and out.lower != out.upper:
        bad.append("optimal with a gap")

    want = expected["status"]
    if want == "infeasible":
        if out.status == "optimal" or out.lower > -math.inf:
            bad.append("recorded infeasible, found a solution")
    elif out.status == "infeasible":
        bad.append(f"recorded {want}, reported infeasible")
    elif want == "optimal":
        value = expected["value"]
        if out.status == "optimal" and out.lower != value:
            bad.append(f"optimum {out.lower} != recorded {value}")
        if not out.lower <= value <= out.upper + TOL:
            bad.append(f"recorded optimum {value} outside [{out.lower}, {out.upper}]")
    else:  # open: only the recorded bounds are known
        lo = expected["lower"] if expected["lower"] is not None else -math.inf
        if out.lower > expected["upper"] + TOL or out.upper < lo - TOL:
            bad.append(f"[{out.lower}, {out.upper}] misses recorded [{lo}, {expected['upper']}]")
    return bad


# -- host speed ----------------------------------------------------------------


def make_reference():
    """A zero-argument function returning the wall seconds of one fixed run of
    the HiGHS engine: build a seeded sparse LP (80 rows, 160 columns, box
    bounds) in column form, then solve it 40 times, each with another single
    column fixed at zero, warm-started from the previous basis as a search
    dive is.  It calls scipy's bundled HiGHS directly and never the solver's
    code, so a change to the solver cannot move it."""
    import numpy as np
    from scipy.optimize._highspy import _core as hc

    rs = np.random.RandomState(3)
    n, m = 160, 80
    dense = (rs.rand(m, n) < 0.1) * rs.randint(1, 9, (m, n))

    def reference_seconds():
        t0 = time.perf_counter()
        h = hc._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("threads", 1)
        model = hc.HighsLp()
        model.num_col_, model.num_row_ = n, m
        model.col_cost_ = (-np.arange(1.0, n + 1)) % 7 - 1
        model.col_lower_, model.col_upper_ = np.zeros(n), np.ones(n)
        model.row_lower_, model.row_upper_ = np.full(m, -np.inf), np.full(m, 10.0)
        values = dense.astype(float)
        cols = [np.nonzero(values[:, j])[0] for j in range(n)]
        starts = np.zeros(n + 1, dtype=np.int32)
        starts[1:] = np.cumsum([len(c) for c in cols])
        model.a_matrix_.format_ = hc.MatrixFormat.kColwise
        model.a_matrix_.start_ = starts
        model.a_matrix_.index_ = np.concatenate(cols).astype(np.int32)
        model.a_matrix_.value_ = np.concatenate([values[c, j] for j, c in enumerate(cols)])
        ok = h.passModel(model) == hc.HighsStatus.kOk
        for j in range(40):
            h.changeColBounds(j, 0.0, 0.0)
            h.run()
            ok = ok and h.getModelStatus() == hc.HighsModelStatus.kOptimal
            h.changeColBounds(j, 0.0, 1.0)
        seconds = time.perf_counter() - t0
        if not ok:
            raise RuntimeError("the reference LP did not solve")
        return seconds

    return reference_seconds


# -- measurement ---------------------------------------------------------------


def measure_setup(paths):
    """(scaled, wall) median seconds from a fresh interpreter to the package
    imported and the workload's files parsed.  Each launch follows a launch
    of ``SETUP_REF_CODE`` and is scaled by ``SETUP_REF_NOMINAL_S`` over that
    launch's seconds, as solve times are scaled by the LP reference."""

    def launch(*args):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, *args], check=True, timeout=120, stdout=subprocess.DEVNULL
        )
        return time.perf_counter() - t0

    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        ref_s = launch("-c", SETUP_REF_CODE)
        wall.append(launch("-c", SETUP_CODE, SRC, *paths))
        scaled.append(wall[-1] * SETUP_REF_NOMINAL_S / ref_s)
    return statistics.median(scaled), statistics.median(wall)


def parse_files(paths):
    from orienteer import instance

    out = []
    for path in paths:
        with open(path) as fh:
            out.append(instance.parse_instance(fh.read(), name=os.path.basename(path)))
    return out


def solve_once(runner, inst, config):
    """(seconds, Outcome or error text) for one solve."""
    t0 = time.perf_counter()
    try:
        out = runner(inst, config)
    except Exception as exc:  # counted as a failed solve, never fatal
        out = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out


def run_pass(runner, instances, config, reference, repeat=True, tracer=None):
    """(pass seconds, per instance the reference seconds timed just before
    it, per instance a list of (seconds, outcome) samples) for one walk of
    the instance list.  With ``repeat`` a short solve is repeated until its
    samples add up to ``MIN_SAMPLE_S`` (at most ``MAX_REPEATS`` times), so its
    median rests on as many samples as a long one's."""
    refs = []
    results = []
    t_pass = time.perf_counter()
    for k, inst in enumerate(instances):
        gc.collect()  # each instance starts from the same collector state, whatever the order
        refs.append(reference())
        if tracer is not None:
            tracer.solve_id = k
            tracer.open("solve")
        samples = [solve_once(runner, inst, config)]
        while repeat and len(samples) < MAX_REPEATS and sum(dt for dt, _ in samples) < MIN_SAMPLE_S:
            samples.append(solve_once(runner, inst, config))
        if tracer is not None:
            tracer.close()
        results.append(samples)
    return time.perf_counter() - t_pass, refs, results


def environment():
    from orienteer import lp, maxflow
    import numpy
    import scipy

    return {
        "maxflow.KERNEL_COMPILED": maxflow.KERNEL_COMPILED,
        "lp.incremental_available": lp.incremental_available(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, pass_s, untraced_s):
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0, []))[0]

    def secs(name):
        return tot.get(name, (0, 0.0, 0.0, []))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0, []))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    lp_calls = calls("lp.session_solve")
    builds = calls("formulation.build")
    flows = calls("maxflow")
    nodes = c["solver.nodes"]
    session_solves = tot.get("lp.session_solve", (0, 0.0, 0.0, [0.0]))[3]
    fallbacks = (
        c["lp.session_fallbacks"] + c["lp.session_add_rows.raised"] + c["lp.session_build.raised"]
    )
    m = {
        "lp.session_solve_calls": (lp_calls, "count"),
        "lp.session_solve_s": (secs("lp.session_solve"), "s"),
        "lp.session_solve_ms_p50": (1e3 * statistics.median(session_solves), "ms"),
        "lp.simplex_iters_per_solve": (ratio(c["lp.simplex_iters"], lp_calls), "count"),
        "solver.lp_solves_per_node": (ratio(c["search_lp_solves"], nodes), "count"),
        "lp.session_add_rows_calls": (calls("lp.session_add_rows"), "count"),
        "lp.session_add_rows_s": (secs("lp.session_add_rows"), "s"),
        "lp.session_build_s": (secs("lp.session_build"), "s"),
        "formulation.build_s": (secs("formulation.build"), "s"),
        "formulation.rows": (ratio(c["formulation.rows"], builds), "count"),
        "formulation.cols": (ratio(c["formulation.cols"], builds), "count"),
        "maxflow.calls": (flows, "count"),
        "maxflow.s": (secs("maxflow"), "s"),
        "maxflow.us_per_call": (1e6 * ratio(secs("maxflow"), flows), "us"),
        "maxflow.arcs_per_call": (ratio(c["maxflow.arcs"], flows), "count"),
        "separation.conflict_s": (secs("separation.conflict"), "s"),
        "separation.conflict_self_s": (own("separation.conflict"), "s"),
        "separation.connectivity_s": (secs("separation.connectivity"), "s"),
        "separation.connectivity_self_s": (own("separation.connectivity"), "s"),
        "separation.cover_s": (secs("separation.cover"), "s"),
        "separation.cover_self_s": (own("separation.cover"), "s"),
        "separation.knapsack_calls": (calls("separation.knapsack"), "count"),
        "separation.filter_s": (secs("separation.filter"), "s"),
        "separation.conflict_set_s": (secs("separation.conflict_set"), "s"),
        "separation.candidates": (c["separation.candidates"], "count"),
        "separation.kept_ratio": (ratio(c["separation.kept"], c["separation.candidates"]), "ratio"),
        "solver.root_rounds": (c["solver.root_rounds"], "count"),
        "solver.root_s": (secs("solver.root"), "s"),
        "solver.root_self_s": (own("solver.root"), "s"),
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (ratio(nodes, secs("solver.search")), "1/s"),
        "solver.pool_activated": (c["solver.pool_activated"], "count"),
        "solver.search_s": (secs("solver.search"), "s"),
        "solver.search_self_s": (own("solver.search"), "s"),
        "solver.screen_s": (secs("solver.screen"), "s"),
        "instance.parse_s": (secs("instance.parse"), "s"),
        "instance.preprocess_s": (secs("instance.preprocess"), "s"),
        "instance.min_time_calls": (calls("instance.min_time"), "count"),
        "instance.min_time_s": (secs("instance.min_time"), "s"),
        "lp.stateless_solve_calls": (calls("lp.stateless_solve"), "count"),
        "lp.session_fallbacks": (fallbacks, "count"),
        "simplex.dense_calls": (calls("simplex.dense"), "count"),
        "trace.pass_s": (pass_s, "s"),
        "trace.overhead_s": (pass_s - untraced_s, "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# -- main ----------------------------------------------------------------------


def _num(v):
    if v is None:
        return None
    return v if math.isfinite(v) else str(v)


def measure(runner, instances, paths, config, seconds, traced):
    """(passes, untraced pass seconds, tracer).  An untraced run walks the
    list until the next pass would overrun ``seconds``; a traced run makes
    one untraced and one traced pass."""
    reference = make_reference()
    for _ in range(3):
        reference()  # warm-up: first-call costs of the engine
    try:
        runner(instances[0], config)  # warm-up: lazy imports and first-call costs
    except Exception:
        pass  # the passes count the failure
    if traced:
        from spans import Tracer

        untraced_s = run_pass(runner, instances, config, reference, repeat=False)[0]
        tracer = Tracer()
        tracer.install()
        try:
            parse_files(paths)
            passes = [run_pass(runner, instances, config, reference, repeat=False, tracer=tracer)]
        finally:
            tracer.uninstall()
        return passes, untraced_s, tracer
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(runner, instances, config, reference))
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(p[0] for p in passes) > seconds:
            return passes, None, None


def samples_of(passes, k):
    """Every (seconds, outcome) sample of instance ``k`` over all passes."""
    return [sample for _, _, results in passes for sample in results[k]]


def scaled_times(passes):
    """Per instance, the median of its samples' seconds scaled to the nominal
    host speed.  A sample is scaled by the median of the five reference
    timings nearest it in time (its own, the two before and the two after):
    that damps the jitter of one 10 ms timing, and the host's moves, which
    last tens of seconds, still show through."""
    n = len(passes[0][2])
    refs = [ref_s for _, pass_refs, _ in passes for ref_s in pass_refs]
    near = [statistics.median(refs[max(0, i - 2) : i + 3]) for i in range(len(refs))]
    return [
        statistics.median(
            dt * REF_NOMINAL_S / near[p * n + k]
            for p, (_, _, results) in enumerate(passes)
            for dt, _ in results[k]
        )
        for k in range(n)
    ]


def check_passes(workload, labels, instances, passes, expected):
    """(attempted, failed, problems, first outcome per label): every solve is
    checked, and each must match the instance's first solve exactly."""
    attempted = failed = 0
    problems = []
    first = {}
    for k, (label, inst) in enumerate(zip(labels, instances)):
        for _, out in samples_of(passes, k):
            attempted += 1
            if isinstance(out, str):
                bad = [out]
            else:
                bad = check(workload, inst, out, expected[label])
                if first.setdefault(label, out).fingerprint() != out.fingerprint():
                    bad.append("result differs between repeats")
            if bad:
                failed += 1
                problems.append(f"{label}: " + "; ".join(bad))
    return attempted, failed, problems, first


def end_to_end(workload, instances, labels, typical, first, passes, setup_s, config):
    closed = sum(
        1 for label in labels if label in first and first[label].status in ("optimal", "infeasible", "bound")
    )
    improvements = []
    for label, inst in zip(labels, instances):
        out = first.get(label)
        if out is None or out.lp_bound is None or not out.lp_bound > 0:
            continue
        root = baseline_root_bound(inst, config) if workload == "baseline-bc" else out.root_bound
        if root is not None and math.isfinite(root):
            improvements.append(100.0 * (out.lp_bound - root) / out.lp_bound)
    m = {
        "corpus_s": (sum(typical), "s"),
        "solve_p50_s": (statistics.median(typical), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "closed_share": (closed / len(labels), "ratio"),
        "root_improvement_pct": (statistics.mean(improvements) if improvements else 0.0, "%"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description="orienteer solver benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orienteer", "__init__.py")):
        print(f"perfbench: no orienteer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import corpus
    from orienteer import solver

    os.makedirs(WORK, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    paths = corpus.write_corpus(
        args.workload, corpus.DEFAULT_SEED, os.path.join(WORK, f"corpus-{args.workload}")
    )
    random.Random(args.seed).shuffle(paths)
    labels = [os.path.basename(p)[: -len(".txt")] for p in paths]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    setup_s, setup_wall_s = measure_setup(paths)
    instances = parse_files(paths)
    config = solver.SolveConfig(max_nodes=NODE_CAP, time_limit_s=3600.0)
    runner = RUNNERS[args.workload]
    passes, untraced_s, tracer = measure(runner, instances, paths, config, args.seconds, args.trace)
    attempted, failed, problems, first = check_passes(
        args.workload, labels, instances, passes, expected
    )
    missing = []
    if tracer is not None:
        totals = tracer.totals()
        missing = [s for s in REQUIRED_SPANS[args.workload] if s not in totals]
        if missing:
            problems.append("traced layers with zero calls: " + ", ".join(missing))

    # a solve's time is the median of all its samples, each scaled to the
    # nominal host speed; the wall-clock median is kept beside it
    typical = scaled_times(passes)
    wall = [statistics.median(dt for dt, _ in samples_of(passes, k)) for k in range(len(labels))]
    refs = [ref_s for _, pass_refs, _ in passes for ref_s in pass_refs]
    rows = []
    for label, seconds, wall_s in zip(labels, typical, wall):
        row = {"instance": label, "seconds_p50": seconds, "wall_seconds_p50": wall_s}
        out = first.get(label)
        if out is not None:
            row.update(
                status=out.status, nodes=out.nodes, lower=_num(out.lower), upper=_num(out.upper),
                lp_bound=_num(out.lp_bound), root_bound=_num(out.root_bound), reason=out.reason,
            )
        rows.append(row)

    if tracer is not None:
        metrics = layer_metrics(tracer, passes[0][0], untraced_s)
        tracer.write_spans(os.path.join(WORK, f"spans-{tag}.jsonl"))
    else:
        metrics = end_to_end(
            args.workload, instances, labels, typical, first, passes, setup_s, config
        )
    failed_share = failed / attempted
    env = environment()
    with open(os.path.join(WORK, f"result-{tag}.json"), "w") as fh:
        json.dump(
            {
                "workload": args.workload, "seed": args.seed,
                "node_cap": NODE_CAP, "passes": len(passes), "pass_s": [p[0] for p in passes],
                "reference_s_p50": statistics.median(refs), "corpus_wall_s": sum(wall),
                "setup_wall_s": setup_wall_s,
                "environment": env, "metrics": metrics, "failed_share": failed_share,
                "problems": problems, "instances": rows,
            },
            fh, indent=1,
        )

    print("env " + json.dumps(env, sort_keys=True))
    for row in rows:
        print("instance " + json.dumps(row))
    for msg in problems:
        print("FAIL " + msg, file=sys.stderr)
    print(f"passes {len(passes)}  instances {len(labels)}  solves {attempted}  node cap {NODE_CAP}")
    print(
        f"reference {statistics.median(refs):.6g} s (nominal {REF_NOMINAL_S} s)"
        f"  corpus wall {sum(wall):.6g} s  solve p50 wall {statistics.median(wall):.6g} s"
        f"  setup wall {setup_wall_s:.6g} s"
    )
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_share':34s} {failed_share:>14.6g} ratio")
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
