"""Benchmark harness: one row per instance, deterministic aggregates.

Every mode is a pipeline of ``solver.PIPELINES``, run on each instance the
same way and filled into one row:

  lp              plain relaxation bound
  cpa             full cutting-plane pipeline
  baseline        branch-and-cut on the arrival-time formulation
  root            the cutting-plane root loop alone, under ``--families``
  impact-flow     flow relaxation with and without its per-arc value lower
                  bounds
  impact-arrival  the same on the arrival-time relaxation

A ``bound`` row whose report has a root bound (``root`` and the impact modes)
carries the percentage improvement of that bound over ``lp_bound``:
100 (lp_bound - root_bound) / lp_bound.  An infeasible row has gap 0 and no
improvement, so the footer's average improvement is over ``bound`` rows only.
A set with a search row (optimal or time-limit) has a footer that counts
what was solved; a set without one, the relaxation-only modes', counts its
``bound`` and infeasible rows instead.

CSV output carries only run-to-run deterministic fields; wall times live in
the JSON and text renderings, so identical configurations produce
byte-identical CSV.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import math
import multiprocessing
import re
import statistics
import time
from dataclasses import dataclass, field

from . import solver
from .instance import instance_name, read_instance
from .separation import FAMILIES

MODES = tuple(solver.PIPELINES)


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
    stats: dict = field(default_factory=dict)  # SolveReport.stats of a pipeline's solve


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
        rep = solver.PIPELINES[mode](read_instance(path), config)
        row.status = rep.status
        row.lower = None if rep.lower_bound == -math.inf else rep.lower_bound
        row.upper = None if rep.upper_bound in (-math.inf, math.inf) else rep.upper_bound
        row.gap = rep.gap
        row.cuts = rep.cut_counts
        row.nodes = rep.node_count
        row.lp_bound = rep.lp_bound
        row.stats = rep.stats
        if rep.status == "bound" and rep.root_bound is not None and rep.lp_bound:
            row.improvement = 100.0 * (rep.lp_bound - rep.root_bound) / rep.lp_bound
    except Exception as exc:  # never abort the batch
        row.status = "error"
        row.error = f"{type(exc).__name__}: {exc}"
    row.wall_time = time.monotonic() - t0
    return row


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
    """Per-set summary: bound and infeasible counts; in a set with a search
    row (optimal or time-limit), also the solved count (optimal and
    infeasible) and mean time over solved, else those two are None; gap
    stats over unsolved, improvement stats where present."""
    sets = {}
    for r in rows:
        sets.setdefault(r.set_id, []).append(r)
    out = []
    for sid in sorted(sets):
        group = sets[sid]
        searched = any(r.status in ("optimal", "time-limit") for r in group)
        solved = [r for r in group if r.status in ("optimal", "infeasible")]
        unsolved = [r for r in group if r.status == "time-limit"]
        imps = [r.improvement for r in group if r.improvement is not None]
        gaps = [100.0 * r.gap for r in unsolved]
        out.append(
            {
                "set": sid,
                "total": len(group),
                "bound": sum(r.status == "bound" for r in group),
                "infeasible": sum(r.status == "infeasible" for r in group),
                "solved": len(solved) if searched else None,
                "avg_time_solved": (
                    statistics.mean([r.wall_time for r in solved]) if searched and solved else None
                ),
                "avg_gap_unsolved": statistics.mean(gaps) if gaps else None,
                "stdev_gap_unsolved": statistics.stdev(gaps) if len(gaps) > 1 else None,
                "avg_improvement": statistics.mean(imps) if imps else None,
                "stdev_improvement": statistics.stdev(imps) if len(imps) > 1 else None,
            }
        )
    return out


CSV_FIELDS = ",".join(
    (
        "instance,set,mode,status,lower,upper,gap_pct",
        *(f"cuts_{fam}" for fam in FAMILIES),
        "nodes,lp_bound,improvement_pct,error",
    )
)


def to_csv(rows):
    """Deterministic machine output: no wall-clock fields."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(CSV_FIELDS.split(","))
    for r in rows:
        out.writerow(
            [
                r.instance,
                r.set_id,
                r.mode,
                r.status,
                _num(r.lower),
                _num(r.upper),
                f"{100.0 * r.gap:.4f}",
                *(r.cuts.get(fam, 0) for fam in FAMILIES),
                r.nodes,
                _num(r.lp_bound),
                _num(r.improvement),
                r.error,
            ]
        )
    for agg in aggregate(rows):
        buf.write(
            f"# set {agg['set'] or '?'}: {_counts(agg, ', ')}"
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


def _counts(agg, sep):
    """A footer's row counts: solved in a set with a search row, else its
    bound and infeasible rows."""
    if agg["solved"] is not None:
        return f"solved {agg['solved']}/{agg['total']}"
    return sep.join(f"{key} {agg[key]}/{agg['total']}" for key in ("bound", "infeasible"))


TEXT_HEAD = ("instance", "mode", "status", "LB", "UB", "gap%", "time(s)", "nodes", "cuts")


def to_text(rows):
    """Human table: each column as wide as its longest cell; the first
    three align left, the numbers right."""
    table = [TEXT_HEAD] + [
        (
            r.instance,
            r.mode,
            r.status,
            _num(r.lower) or "-",
            _num(r.upper) or "-",
            f"{100.0 * r.gap:.2f}",
            f"{r.wall_time:.2f}",
            str(r.nodes),
            "/".join(str(r.cuts.get(fam, 0)) for fam in FAMILIES),
        )
        for r in rows
    ]
    widths = [max(len(cells[k]) for cells in table) for k in range(len(TEXT_HEAD))]
    lines = [
        " ".join(
            cell.ljust(w) if k < 3 else cell.rjust(w)
            for k, (cell, w) in enumerate(zip(cells, widths))
        )
        for cells in table
    ]
    lines.insert(1, "-" * len(lines[0]))
    for agg in aggregate(rows):
        t = f"{agg['avg_time_solved']:.2f}s" if agg["avg_time_solved"] is not None else "-"
        g = f"{agg['avg_gap_unsolved']:.2f}%" if agg["avg_gap_unsolved"] is not None else "-"
        if agg["stdev_gap_unsolved"] is not None:
            g += f" (sd {agg['stdev_gap_unsolved']:.2f})"
        i = f"{agg['avg_improvement']:.2f}%" if agg["avg_improvement"] is not None else "-"
        if agg["stdev_improvement"] is not None:
            i += f" (sd {agg['stdev_improvement']:.2f})"
        lines.append(
            f"[set {agg['set'] or '?'}] {_counts(agg, '  ')}"
            f"  avg time {t}  avg unsolved gap {g}  avg improvement {i}"
        )
    return "\n".join(lines) + "\n"
