"""Command line: solve, generate, bench, validate."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import bench as bench_mod
from . import solver
from .instance import (
    InstanceError,
    generate_stop,
    read_instance,
    serialize_instance,
    validate_solution,
)
from .lp import export_lp_text
from .oracle import OracleBudgetExceeded, enumerate_optimal
from .separation import FAMILIES


def _add_param_flags(p):
    p.add_argument(
        "--time-limit", type=float, default=solver.SolveConfig.time_limit_s, help="seconds per solve"
    )
    p.add_argument(
        "--max-nodes",
        type=int,
        default=solver.SolveConfig.max_nodes,
        help="search-node budget; unlike wall-clock limits it truncates deterministically",
    )
    p.add_argument(
        "--families",
        default=",".join(FAMILIES),
        help="comma list of cut families to separate (cpa and root)",
    )


class UsageError(ValueError):
    """A flag value the solver cannot run with."""


def _config(args):
    fams = frozenset(f.strip() for f in args.families.split(",") if f.strip())
    bad = fams - solver.ALL_FAMILIES
    if bad:
        raise UsageError(f"unknown cut families: {sorted(bad)}")
    # NaN compares false with every deadline, so it would mean no limit
    if not args.time_limit >= 0:
        raise UsageError(f"--time-limit must be a nonnegative number, got {args.time_limit}")
    if args.max_nodes < 0:
        raise UsageError(f"--max-nodes must be nonnegative, got {args.max_nodes}")
    return solver.SolveConfig(time_limit_s=args.time_limit, families=fams, max_nodes=args.max_nodes)


def _cmd_solve(args):
    inst = read_instance(args.instance, args.mandatory.split() or None)
    cfg = _config(args)
    written = []

    def dump(model):
        # the relaxation the mode's pipeline builds, before it solves on it
        with open(args.dump_lp, "w") as fh:
            fh.write(export_lp_text(model, name=inst.name or "model"))
        written.append(args.dump_lp)

    rep = solver.PIPELINES[args.mode](inst, cfg, on_model=dump if args.dump_lp else None)
    if args.dump_lp and not written:
        # the screen named an unroutable mandatory vertex, which preprocessing
        # dropped: the relaxation left over would describe a different,
        # possibly feasible, model
        print(f"orienteer solve: no LP written to {args.dump_lp}: {rep.reason}", file=sys.stderr)
    status = rep.status
    payload = {
        "instance": inst.name,
        "mode": args.mode,
        "status": status,
        "lower_bound": None if rep.lower_bound == -math.inf else rep.lower_bound,
        "upper_bound": None if rep.upper_bound in (-math.inf, math.inf) else rep.upper_bound,
        "gap_pct": 100.0 * rep.gap,
        "routes": rep.routes,
        "cuts": rep.cut_counts,
        "lp_bound": rep.lp_bound,
        "timings_s": {k: round(v, 3) for k, v in rep.timings.items()},
        "reason": rep.reason,
        **rep.stats,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{inst.name}: {status}")
        if status == "optimal":
            print(f"  value {rep.lower_bound:g}")
            for r in rep.routes:
                print("  route " + " -> ".join(map(str, r)))
        elif status == "bound":
            print(f"  relaxation bound {payload['upper_bound']}")
        elif status == "time-limit":
            print(f"  bounds [{payload['lower_bound']}, {payload['upper_bound']}], gap {100*rep.gap:.2f}%")
        elif rep.reason:
            print(f"  {rep.reason}")
    return 0


def _cmd_generate(args):
    inst = read_instance(args.instance)
    out = generate_stop(inst, args.fraction, args.seed)
    text = serialize_instance(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _collect_paths(args):
    """The instance paths, each ``.manifest`` or ``.list`` file replaced by
    its entries: one per line, relative to the list file's directory, lines
    that are blank or start with ``#`` after indentation skipped."""
    paths = []
    for entry in args.instances:
        if entry.endswith(".manifest") or entry.endswith(".list"):
            with open(entry) as fh:
                lines = [ln.strip() for ln in fh]
            here = os.path.dirname(entry)
            paths.extend(os.path.join(here, ln) for ln in lines if ln and not ln.startswith("#"))
        else:
            paths.append(entry)
    return paths


def _cmd_bench(args):
    cfg = _config(args)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    paths = _collect_paths(args)
    rows = bench_mod.run_bench(paths, args.mode, cfg, jobs=args.jobs)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(bench_mod.to_csv(rows))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(bench_mod.to_json(rows))
    sys.stdout.write(bench_mod.to_text(rows))
    # a raised solve fails the run; its row says why
    return 1 if any(r.status == "error" for r in rows) else 0


def _vertex_id(token):
    try:
        return int(token)
    except ValueError:
        raise InstanceError(f"route token {token!r} is not a vertex id") from None


def _parse_routes(text):
    routes = []
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if chunk:
            routes.append([_vertex_id(t) for t in chunk.replace("->", " ").split()])
    return routes


def _cmd_validate(args):
    inst = read_instance(args.instance, args.mandatory.split() or None)
    if args.oracle:
        try:
            best = enumerate_optimal(inst, hard_cap=args.oracle_budget)
        except OracleBudgetExceeded:
            print("oracle: budget exhausted, instance too large for enumeration")
            return 2
        if best is None:
            print("oracle: infeasible")
        else:
            print(f"oracle: optimum {best.total_reward}")
            for r in best.routes:
                print("  route " + " -> ".join(map(str, r)))
        return 0
    if args.routes_file:
        with open(args.routes_file) as fh:
            routes = _parse_routes(fh.read())
    elif args.routes:
        routes = _parse_routes(args.routes)
    else:
        raise UsageError("validate needs --routes, --routes-file or --oracle")
    verdict = validate_solution(inst, routes)
    print(f"valid: {verdict.ok}; reward {verdict.reward}")
    for v in verdict.violations:
        print(f"  violation: {v}")
    return 0 if verdict.ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="orienteer", description="Exact team-orienteering solvers")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance")
    p.add_argument("instance")
    p.add_argument("--mode", default="cpa", choices=tuple(solver.PIPELINES))
    p.add_argument("--mandatory", default="", help="override mandatory ids, e.g. '3 7 9'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump-lp", default="", help="write the relaxation the mode solves in LP text format")
    _add_param_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("generate", help="turn a plain instance into one with mandatory stops")
    p.add_argument("instance")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", default="")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="run a batch and tabulate")
    p.add_argument("instances", nargs="+", help="instance files or a .manifest list")
    p.add_argument("--mode", default="cpa", choices=bench_mod.MODES)
    p.add_argument("--csv", default="")
    p.add_argument("--json-out", default="")
    p.add_argument("--jobs", type=int, default=1)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("validate", help="check a route set or enumerate the optimum")
    p.add_argument("instance")
    p.add_argument("--routes", default="", help="'0 2 5; 0 3 5'")
    p.add_argument("--routes-file", default="")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--oracle-budget", type=int, default=2_000_000)
    p.add_argument("--mandatory", default="")
    p.set_defaults(func=_cmd_validate)

    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, UsageError, OSError) as exc:
        # bad input gets one line, not a traceback
        print(f"orienteer {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
