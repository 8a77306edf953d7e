"""Command line: solve, generate, bench, validate."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from . import bench as bench_mod
from . import solver
from .formulation import build_flow_formulation as build_flow
from .instance import generate_stop, parse_instance, serialize_instance
from .oracle import OracleBudgetExceeded, enumerate_optimal


@dataclass
class Verdict:
    ok: bool
    violations: list
    reward: int
    durations: list


def validate_solution(inst, routes):
    """Independent route-set check: every rule violation is listed.

    Rules: each route runs origin to destination over present arcs within the
    time limit; no inner vertex is visited twice across routes; every
    mandatory vertex is covered; the fleet size bounds the route count.
    """
    violations = []
    durations = []
    seen = {}
    if len(routes) > inst.fleet_size:
        violations.append(f"{len(routes)} routes exceed fleet size {inst.fleet_size}")
    for ridx, route in enumerate(routes):
        label = f"route {ridx}"
        if len(route) < 2 or route[0] != inst.origin or route[-1] != inst.destination:
            violations.append(f"{label} must run from the origin to the destination")
            durations.append(math.inf)
            continue
        dur = 0.0
        broken = False
        for a, b in zip(route, route[1:]):
            if not (0 <= a < inst.vertex_count and 0 <= b < inst.vertex_count) or not inst.arc_mask[a, b]:
                violations.append(f"{label} uses missing arc ({a}, {b})")
                broken = True
                break
            dur += float(inst.travel_time[a, b])
        durations.append(math.inf if broken else dur)
        if not broken and dur > inst.time_limit + 1e-9:
            violations.append(f"{label} duration {dur:.6f} exceeds limit {inst.time_limit}")
        for v in route[1:-1]:
            if v in (inst.origin, inst.destination):
                violations.append(f"{label} revisits an endpoint")
            if v in seen:
                violations.append(f"vertex {v} visited by {seen[v]} and {label}")
            seen[v] = label
            if v not in inst.inner:
                violations.append(f"{label} visits vertex {v} which is not routable")
    missing = sorted(inst.mandatory - set(seen))
    if missing:
        violations.append(f"mandatory vertices not covered: {missing}")
    reward = sum(inst.rewards.get(v, 0) for v in seen)
    return Verdict(not violations, violations, reward, durations)


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
        default="connectivity,conflict,cover",
        help="comma list of cut families to separate",
    )


def _config(args):
    fams = frozenset(f.strip() for f in args.families.split(",") if f.strip())
    bad = fams - solver.ALL_FAMILIES
    if bad:
        raise SystemExit(f"unknown cut families: {sorted(bad)}")
    return solver.SolveConfig(time_limit_s=args.time_limit, families=fams, max_nodes=args.max_nodes)


def _read_instance(path, mandatory=None):
    with open(path) as fh:
        return parse_instance(
            fh.read(),
            mandatory_spec=mandatory,
            name=path.rsplit("/", 1)[-1].rsplit(".", 1)[0],
        )


def _cmd_solve(args):
    mandatory = [int(t) for t in args.mandatory.split()] if args.mandatory else None
    inst = _read_instance(args.instance, mandatory)
    cfg = _config(args)
    if args.mode in bench_mod.CONFIG_FAMILIES:
        # full pipeline restricted to the mode's cut families
        cfg = replace(cfg, families=bench_mod.CONFIG_FAMILIES[args.mode])
    if args.dump_lp:
        from . import lp as lp_mod
        from .instance import preprocess

        pre, _ = preprocess(inst)
        handle = build_flow(pre)
        with open(args.dump_lp, "w") as fh:
            fh.write(lp_mod.export_lp_text(handle.model, name=inst.name or "model"))
    rep = solver.PIPELINES.get(args.mode, solver.solve_stop)(inst, cfg)
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
        "nodes": rep.node_count,
        "lp_bound": rep.lp_bound,
        "timings_s": {k: round(v, 3) for k, v in rep.timings.items()},
        "reason": rep.reason,
        "lp_fallbacks": rep.lp_fallbacks,
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
    inst = _read_instance(args.instance)
    out = generate_stop(inst, args.fraction, args.seed)
    text = serialize_instance(out)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _collect_paths(args):
    paths = []
    for entry in args.instances:
        if entry.endswith(".manifest") or entry.endswith(".list"):
            with open(entry) as fh:
                paths.extend(ln.strip() for ln in fh if ln.strip() and not ln.startswith("#"))
        else:
            paths.append(entry)
    return paths


def _cmd_bench(args):
    cfg = _config(args)
    paths = _collect_paths(args)
    rows = bench_mod.run_bench(paths, args.mode, cfg, jobs=args.jobs)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(bench_mod.to_csv(rows))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(bench_mod.to_json(rows))
    sys.stdout.write(bench_mod.to_text(rows))
    return 0


def _parse_routes(text):
    routes = []
    for chunk in text.replace("\n", ";").split(";"):
        chunk = chunk.strip()
        if chunk:
            routes.append([int(t) for t in chunk.replace("->", " ").split()])
    return routes


def _cmd_validate(args):
    mandatory = [int(t) for t in args.mandatory.split()] if args.mandatory else None
    inst = _read_instance(args.instance, mandatory)
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
        raise SystemExit("validate needs --routes, --routes-file or --oracle")
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
    p.add_argument(
        "--mode",
        default="cpa",
        choices=tuple(solver.PIPELINES) + tuple(bench_mod.CONFIG_FAMILIES),
        help="config1..5 run the full pipeline restricted to a cut-family subset",
    )
    p.add_argument("--mandatory", default="", help="override mandatory ids, e.g. '3 7 9'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dump-lp", default="", help="write the relaxation in LP text format")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
