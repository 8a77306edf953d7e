"""Benchmark harness: one row per instance, deterministic aggregates.

Modes:
  lp         plain relaxation bound
  cpa        full cutting-plane pipeline
  baseline   branch-and-cut on the arrival-time formulation
  config1-5  root cutting loop restricted to a family subset
             (1 connectivity, 2 conflict, 3 cover, 4 connectivity+conflict,
              5 all), reporting the percentage bound improvement over the
             plain relaxation

CSV output carries only run-to-run deterministic fields; wall times live in
the JSON and text renderings, so identical configurations produce
byte-identical CSV.
"""

from __future__ import annotations

import concurrent.futures
import io
import json
import math
import multiprocessing
import re
import statistics
import time
from dataclasses import dataclass, field, replace

from . import solver
from .instance import instance_name, read_instance
from .separation import CONFLICT, CONNECTIVITY, COVER

CONFIG_FAMILIES = {
    "config1": frozenset({CONNECTIVITY}),
    "config2": frozenset({CONFLICT}),
    "config3": frozenset({COVER}),
    "config4": frozenset({CONNECTIVITY, CONFLICT}),
    "config5": frozenset({CONNECTIVITY, CONFLICT, COVER}),
}

# impact-flow / impact-arrival measure how much the per-arc value lower
# bounds tighten each relaxation: improvement = 100 (UB_without - UB_with)
# / UB_without
IMPACT_MODES = ("impact-flow", "impact-arrival")

MODES = tuple(solver.PIPELINES) + tuple(CONFIG_FAMILIES) + IMPACT_MODES


@dataclass
class BenchRow:
    instance: str
    set_id: str
    mode: str
    status: str
    lower: float | None
    upper: float | None
    gap: float
    wall_time: float
    cuts: dict = field(default_factory=dict)
    nodes: int = 0
    lp_bound: float | None = None
    improvement: float | None = None
    error: str = ""


def _set_id(name):
    m = re.match(r"p(\d+)", name)
    return m.group(1) if m else ""


def _num(v):
    if v is None or v == -math.inf or v == math.inf:
        return ""
    return f"{v:.6f}"


def bench_one(path, mode, config):
    """Solve one instance file in the given mode; failures land in the row."""
    name = instance_name(path)
    row = BenchRow(name, _set_id(name), mode, "error", None, None, 1.0, 0.0)
    t0 = time.monotonic()
    try:
        inst = read_instance(path)
        if mode in CONFIG_FAMILIES:
            # a zero-node search stops right after the root cutting loop
            rep = solver.solve_stop(inst, replace(config, families=CONFIG_FAMILIES[mode], max_nodes=0))
            if rep.status == "infeasible":
                row.status = "infeasible"
                row.improvement = 0.0
            else:
                row.status = "bound"
                row.upper = rep.root_bound
                row.lp_bound = rep.lp_bound
                row.cuts = {f: rep.cut_counts[f] for f in (CONNECTIVITY, CONFLICT, COVER)}
                if row.lp_bound:
                    row.improvement = 100.0 * (row.lp_bound - row.upper) / row.lp_bound
        elif mode in IMPACT_MODES:
            rep = _floor_impact(inst, mode.split("-", 1)[1])
            row.status = rep["status"]
            row.upper = rep.get("with_floor")
            row.lp_bound = rep.get("without_floor")
            if row.status == "bound" and row.lp_bound:
                row.improvement = 100.0 * (row.lp_bound - row.upper) / row.lp_bound
            elif row.status == "infeasible":
                row.improvement = 0.0
        else:
            rep = solver.PIPELINES[mode](inst, config)
            row.status = rep.status
            row.lower = None if rep.lower_bound == -math.inf else rep.lower_bound
            row.upper = None if rep.upper_bound in (-math.inf, math.inf) else rep.upper_bound
            row.gap = rep.gap
            row.cuts = dict(rep.cut_counts)
            row.nodes = rep.node_count
            row.lp_bound = rep.lp_bound
    except Exception as exc:  # never abort the batch
        row.status = "error"
        row.error = f"{type(exc).__name__}: {exc}"
    row.wall_time = time.monotonic() - t0
    return row


def _floor_impact(inst, kind):
    """How much the per-arc lower-bound rows tighten one relaxation."""
    from . import lp
    from .formulation import build_arrival_formulation, build_flow_formulation

    pre, blocker = solver._screen(inst)
    if blocker is not None:
        return {"status": "infeasible"}
    if kind == "flow":
        handle = build_flow_formulation(pre)
    else:
        handle = build_arrival_formulation(pre)
    start, count = handle.row_blocks["floor"]
    bare, _ = handle.model.split_rows(range(start, start + count))
    without = lp.solve(bare)
    full = lp.solve(handle.model)
    if without.status != "optimal" or full.status != "optimal":
        return {"status": "infeasible"}
    return {
        "status": "bound",
        "without_floor": without.objective,
        "with_floor": full.objective,
    }


def run_bench(paths, mode, config=solver.SolveConfig(), jobs=1):
    """One row per instance plus per-set aggregate footers."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
    if jobs > 1:
        # spawned workers start clean instead of forking a process that has
        # HiGHS loaded
        spawn = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
            rows = list(pool.map(bench_one, paths, [mode] * len(paths), [config] * len(paths)))
    else:
        rows = [bench_one(p, mode, config) for p in paths]
    rows.sort(key=lambda r: r.instance)
    return rows


def aggregate(rows):
    """Per-set summary: solved count, mean time over solved, gap stats over
    unsolved, improvement stats where present."""
    sets = {}
    for r in rows:
        sets.setdefault(r.set_id, []).append(r)
    out = []
    for sid in sorted(sets):
        group = sets[sid]
        solved = [r for r in group if r.status in ("optimal", "infeasible")]
        unsolved = [r for r in group if r.status == "time-limit"]
        imps = [r.improvement for r in group if r.improvement is not None]
        gaps = [100.0 * r.gap for r in unsolved]
        out.append(
            {
                "set": sid,
                "total": len(group),
                "solved": len(solved),
                "avg_time_solved": statistics.mean([r.wall_time for r in solved]) if solved else None,
                "avg_gap_unsolved": statistics.mean(gaps) if gaps else None,
                "stdev_gap_unsolved": statistics.stdev(gaps) if len(gaps) > 1 else None,
                "avg_improvement": statistics.mean(imps) if imps else None,
                "stdev_improvement": statistics.stdev(imps) if len(imps) > 1 else None,
            }
        )
    return out


CSV_FIELDS = (
    "instance,set,mode,status,lower,upper,gap_pct,cuts_connectivity,"
    "cuts_conflict,cuts_cover,nodes,lp_bound,improvement_pct,error"
)


def to_csv(rows):
    """Deterministic machine output: no wall-clock fields."""
    buf = io.StringIO()
    buf.write(CSV_FIELDS + "\n")
    for r in rows:
        buf.write(
            ",".join(
                [
                    r.instance,
                    r.set_id,
                    r.mode,
                    r.status,
                    _num(r.lower),
                    _num(r.upper),
                    f"{100.0 * r.gap:.4f}",
                    str(r.cuts.get(CONNECTIVITY, 0)),
                    str(r.cuts.get(CONFLICT, 0)),
                    str(r.cuts.get(COVER, 0)),
                    str(r.nodes),
                    _num(r.lp_bound),
                    _num(r.improvement),
                    r.error.replace(",", ";"),
                ]
            )
            + "\n"
        )
    for agg in aggregate(rows):
        buf.write(
            f"# set {agg['set'] or '?'}: solved {agg['solved']}/{agg['total']}"
            + (
                f", avg_gap_unsolved {agg['avg_gap_unsolved']:.2f}%"
                if agg["avg_gap_unsolved"] is not None
                else ""
            )
            + (
                f", avg_improvement {agg['avg_improvement']:.2f}%"
                if agg["avg_improvement"] is not None
                else ""
            )
            + "\n"
        )
    return buf.getvalue()


def to_json(rows):
    payload = {
        "rows": [r.__dict__ for r in rows],
        "aggregates": aggregate(rows),
    }
    return json.dumps(payload, indent=2, default=str) + "\n"


def to_text(rows):
    head = f"{'instance':<18} {'mode':<9} {'status':<10} {'LB':>10} {'UB':>10} {'gap%':>7} {'time(s)':>8} {'nodes':>7} {'cuts':>12}"
    lines = [head, "-" * len(head)]
    for r in rows:
        cuts = "/".join(
            str(r.cuts.get(f, 0)) for f in (CONNECTIVITY, CONFLICT, COVER)
        )
        lines.append(
            f"{r.instance:<18} {r.mode:<9} {r.status:<10} "
            f"{_num(r.lower) or '-':>10} {_num(r.upper) or '-':>10} "
            f"{100.0 * r.gap:>7.2f} {r.wall_time:>8.2f} {r.nodes:>7} {cuts:>12}"
        )
    for agg in aggregate(rows):
        t = f"{agg['avg_time_solved']:.2f}s" if agg["avg_time_solved"] is not None else "-"
        g = f"{agg['avg_gap_unsolved']:.2f}%" if agg["avg_gap_unsolved"] is not None else "-"
        if agg["stdev_gap_unsolved"] is not None:
            g += f" (sd {agg['stdev_gap_unsolved']:.2f})"
        i = f"{agg['avg_improvement']:.2f}%" if agg["avg_improvement"] is not None else "-"
        if agg["stdev_improvement"] is not None:
            i += f" (sd {agg['stdev_improvement']:.2f})"
        lines.append(
            f"[set {agg['set'] or '?'}] solved {agg['solved']}/{agg['total']}"
            f"  avg time {t}  avg unsolved gap {g}  avg improvement {i}"
        )
    return "\n".join(lines) + "\n"
