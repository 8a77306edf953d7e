#!/usr/bin/env python3
"""Record the expected results of the base corpus into ``expected.json``.

Every solve-workload instance is solved by both pipelines under a generous
node cap and time limit; their statuses and optima must agree, and the
agreed answer is recorded.  An instance neither pipeline closes is recorded
as ``open`` with the tightest bounds the two proved.  Root-cut instances get
the plain relaxation bound, the root loop's status, and the best reward a
capped search found (a valid root bound never drops below it).

    python3 perfbench/record.py [--time-limit 120]

Rerun only when the corpus definition in ``corpus.py`` changes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402  (puts src/ on the path)
from orienteer import instance, separation, solver  # noqa: E402

BIG_CAP = 200_000


def _agree(a, b, label):
    """Merge two reports into one expected record, or raise on conflict."""
    statuses = {a.status, b.status}
    if "infeasible" in statuses:
        other = b if a.status == "infeasible" else a
        if other.status == "optimal" or other.lower_bound > -math.inf:
            raise SystemExit(f"{label}: pipelines disagree on feasibility")
        return {"status": "infeasible"}
    closed = [r for r in (a, b) if r.status == "optimal"]
    if closed:
        value = closed[0].lower_bound
        for r in (a, b):
            if not r.lower_bound <= value <= r.upper_bound + 1e-6:
                raise SystemExit(f"{label}: optimum {value} outside [{r.lower_bound}, {r.upper_bound}]")
        return {"status": "optimal", "value": value}
    lb = max(a.lower_bound, b.lower_bound)
    ub = min(a.upper_bound, b.upper_bound)
    if lb > ub + 1e-6:
        raise SystemExit(f"{label}: bounds cross")
    return {"status": "open", "lower": lb if lb > -math.inf else None, "upper": ub}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--time-limit", type=float, default=120.0)
    args = ap.parse_args(argv)
    config = solver.SolveConfig(max_nodes=BIG_CAP, time_limit_s=args.time_limit)
    out = {}
    seen = set()
    for workload in ("cpa-solve", "root-cuts"):
        for k, slot in corpus.WORKLOADS[workload]:
            label = slot.label(k)
            if label in seen:
                continue
            seen.add(label)
            inst = instance.parse_instance(corpus.make_instance_text(slot, corpus.DEFAULT_SEED, k))
            if workload == "root-cuts":
                pre, _ = instance.preprocess(inst)
                phase = solver.cutting_plane_phase(
                    pre, config, conflicts=separation.build_conflict_set(pre, pre.min_times)
                )
                found = solver.solve_stop(inst, solver.SolveConfig(max_nodes=300, time_limit_s=60.0))
                rec = {
                    "status": phase.status,
                    "lp_bound": phase.lp_bound,
                    "known_reward": found.lower_bound if found.lower_bound > -math.inf else None,
                }
            else:
                rec = _agree(solver.solve_stop(inst, config), solver.solve_baseline(inst, config), label)
            out[label] = rec
            print(label, rec, flush=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
