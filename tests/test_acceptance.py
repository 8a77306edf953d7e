"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria 3, 4, 8 and 9 replay published bound values on the public
team-orienteering benchmark; those tests skip with instructions when the
files are not present under data/chao (see data/README.md).  Everything else
runs on bundled or seeded-random instances.
"""

import glob
import itertools
import math
import os
import random
from dataclasses import replace

import pytest

from orienteer import bench, lp
from orienteer.cli import main
from orienteer.formulation import (
    build_arrival_formulation,
    build_flow_formulation,
)
from orienteer.instance import min_time_matrix, parse_instance, preprocess
from orienteer.oracle import enumerate_feasible, enumerate_optimal
from orienteer.separation import (
    CONFLICT,
    CONNECTIVITY,
    COVER,
    FilterParams,
    floor_bound,
    separate_lifted_cover,
)
from orienteer.solver import SolveConfig, cutting_plane_phase, solve_baseline, solve_stop

from conftest import (
    PAPER_CONFIGS,
    chao_dir,
    chao_path,
    make_random_instance,
    make_reward_universe,
    plain_cover,
    point_of_routes,
    require_chao,
    with_objective,
)

# published LP and root (LP+cuts) bounds for the instances first closed by
# the cutting-plane pipeline
TABLE_BOUNDS = {
    "p5.3.x": (1591.07, 1591.07),
    "p4.2.p": (1306.00, 1288.49),
    "p4.3.m": (1220.71, 1131.82),
    "p4.3.o": (1287.18, 1230.14),
    "p4.3.p": (1300.97, 1265.48),
    "p4.4.l": (972.42, 919.95),
    "p7.2.q": (1129.62, 1089.30),
    "p7.3.q": (1078.77, 1022.57),
}


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


def _sample_instances(count=30):
    """Thirty benchmark instances of the small sets when available,
    otherwise thirty seeded random desk-scale instances."""
    root = chao_dir()
    if root is not None:
        paths = sorted(
            p
            for pattern in ("p1.*", "p2.*", "p3.*")
            for p in glob.glob(os.path.join(root, pattern))
        )
        if len(paths) >= count:
            stride = max(1, len(paths) // count)
            chosen = paths[::stride][:count]
            out = []
            for p in chosen:
                with open(p) as fh:
                    out.append(parse_instance(fh.read(), name=os.path.basename(p)))
            return out, "benchmark sets 1-3 sample"
    rng = random.Random(1)
    return (
        [make_random_instance(rng, n_max=12, m_max=3) for _ in range(count)],
        "30 seeded random instances (benchmark files not present)",
    )


def test_criterion_1_formulation_equivalence():
    instances, source = _sample_instances()
    worst = 0.0
    for inst in instances:
        pre, _ = preprocess(inst)
        a = lp.solve(build_arrival_formulation(pre).model)
        f = lp.solve(build_flow_formulation(pre).model)
        assert a.status == f.status
        if a.status != "optimal":
            continue
        scale = max(1.0, abs(a.objective))
        gap = abs(a.objective - f.objective) / scale
        worst = max(worst, gap)
        assert gap <= 1e-6
    report(1, "formulation equivalence", f"{source}; worst relative gap {worst:.2e}")


def test_criterion_2_total_time_row_redundant():
    instances, source = _sample_instances()
    checked = 0
    for inst in instances:
        pre, _ = preprocess(inst)
        flow = build_flow_formulation(pre)
        timed = with_objective(
            flow.model, [(col, float(pre.travel_time[a])) for a, col in flow.x_index.items()]
        )
        budget = lp.solve(timed)
        if budget.status == "optimal":
            assert budget.objective <= pre.fleet_size * pre.time_limit + 1e-6

        plain = lp.solve(build_arrival_formulation(pre).model)
        padded = lp.solve(
            build_arrival_formulation(pre, include_total_time_row=True).model
        )
        if plain.status == "optimal":
            checked += 1
            assert abs(plain.objective - padded.objective) <= 1e-6 * max(
                1.0, abs(plain.objective)
            )
    assert checked >= 15
    report(2, "aggregate travel-time row redundant", f"{source}; {checked} optima compared")


def test_criterion_3_lp_column_regression():
    require_chao(TABLE_BOUNDS)
    worst = 0.0
    for name, (lp_bound, _) in sorted(TABLE_BOUNDS.items()):
        with open(chao_path(name)) as fh:
            inst = parse_instance(fh.read(), name=name)
        pre, _ = preprocess(inst)
        sol = lp.solve(build_flow_formulation(pre).model)
        assert sol.status == "optimal"
        err = abs(sol.objective - lp_bound)
        worst = max(worst, err)
        assert err <= 0.01, (name, sol.objective, lp_bound)
    report(3, "relaxation bound regression", f"8 instances, worst |error| {worst:.4f}")


def test_criterion_4_root_bounds_direction():
    require_chao(TABLE_BOUNDS)
    cfg = SolveConfig(time_limit_s=3600.0)
    details = []
    for name, (lp_bound, cuts_bound) in sorted(TABLE_BOUNDS.items()):
        with open(chao_path(name)) as fh:
            inst = parse_instance(fh.read(), name=name)
        pre, _ = preprocess(inst)
        phase = cutting_plane_phase(pre, cfg)
        assert phase.status == "bound"
        assert phase.upper_bound <= phase.lp_bound + 1e-9
        if name == "p5.3.x":
            assert abs(phase.upper_bound - 1591.07) <= 0.01
        else:
            assert abs(phase.upper_bound - cuts_bound) <= 0.01 * cuts_bound
        details.append(f"{name}:{phase.upper_bound:.2f}")
    report(4, "root bounds", "; ".join(details))


CRITERION5_CONFIG = SolveConfig(time_limit_s=300.0)


@pytest.fixture(scope="module")
def criterion5_runs():
    rng = random.Random(57005)
    runs = []
    for _ in range(50):
        inst = make_random_instance(rng, n_max=9, m_max=3)
        want = enumerate_optimal(inst)
        got = solve_stop(inst, CRITERION5_CONFIG)
        base = solve_baseline(inst, CRITERION5_CONFIG)
        runs.append((inst, want, got, base))
    return runs


def test_criterion_5_oracle_equivalence(criterion5_runs):
    infeasible = 0
    for inst, want, got, base in criterion5_runs:
        if want is None:
            infeasible += 1
            assert got.status == "infeasible", inst
            assert base.status == "infeasible", inst
        else:
            assert got.status == "optimal" and got.lower_bound == want.total_reward
            assert base.status == "optimal" and base.lower_bound == want.total_reward
    report(
        5,
        "oracle equivalence",
        f"50 instances ({infeasible} infeasible) agree across both methods and the oracle",
    )


def test_criterion_6_cut_validity(criterion5_runs):
    cuts_checked = 0
    for inst, want, got, base in criterion5_runs:
        emitted = list(got.cut_pool) + list(base.cut_pool)
        if not emitted:
            continue
        pre, _ = preprocess(inst)
        feasible = [point_of_routes(pre, rs.routes) for rs in enumerate_feasible(pre)]
        for cut in emitted:
            cuts_checked += 1
            for xv, yv in feasible:
                assert cut.violation(xv, yv) <= 1e-6, (inst, cut)
    assert cuts_checked > 0
    report(6, "cut validity", f"{cuts_checked} emitted cuts hold on every feasible solution")


def test_criterion_7_lifted_cover_oracle():
    rng = random.Random(777)
    produced = 0
    for _ in range(200):
        n = rng.randint(2, 12)
        rewards = [rng.randint(1, 15) for _ in range(n)]
        inst = make_reward_universe(n, rewards)
        yv = {i + 1: rng.choice([0.0, 1.0, round(rng.random(), 3)]) for i in range(n)}
        tau = sum(rewards[i] * yv[i + 1] for i in range(n)) + rng.uniform(0, 4)
        cap = floor_bound(tau)

        cut = separate_lifted_cover(yv, inst, tau)
        if cut is not None:
            produced += 1
            _, _, pi_map, mu_map = cut.origin
            assert all(isinstance(c, int) and c >= 1 for c in pi_map.values())
            assert all(isinstance(c, int) and c >= 0 for c in mu_map.values())
            coeff = dict(cut.y_terms)
            for bits in itertools.product((0, 1), repeat=n):
                if sum(r * b for r, b in zip(rewards, bits)) <= cap:
                    lhs = sum(coeff.get(i + 1, 0.0) * bits[i] for i in range(n))
                    assert lhs <= cut.rhs + 1e-9

            # the minimal cover behind the lifted cut is itself a valid cut
            plain = plain_cover(cut)
            cover = cut.origin[0]
            weight = sum(inst.rewards[i] for i in cover)
            assert weight > cap
            for member in cover:
                assert weight - inst.rewards[member] <= cap
            for bits in itertools.product((0, 1), repeat=n):
                if sum(r * b for r, b in zip(rewards, bits)) <= cap:
                    point = {i + 1: float(b) for i, b in enumerate(bits)}
                    assert plain.violation({}, point) <= 1e-9
    assert produced >= 50
    report(7, "lifted cover oracle", f"{produced} lifted cuts valid over full enumeration")


def test_criterion_8_small_set_solves():
    letters = "abcdefghijk"
    names = [f"p2.{m}.{c}" for m in (2, 3, 4) for c in letters]
    require_chao(names)
    cfg = SolveConfig(time_limit_s=60.0)
    times = []
    for name in names:
        with open(chao_path(name)) as fh:
            inst = parse_instance(fh.read(), name=name)
        rep = solve_stop(inst, cfg)
        assert rep.status == "optimal", (name, rep.status)
        times.append(rep.timings["total"])
        assert times[-1] <= 60.0
    report(
        8,
        "small set solved",
        f"33/33 optimal, max {max(times):.2f}s, mean {sum(times)/len(times):.2f}s",
    )


def test_criterion_9_configuration_monotonicity():
    root = require_chao(["p1.2.a", "p3.2.a", "p7.2.a"])
    cfg = SolveConfig(time_limit_s=3600.0)
    paths = sorted(
        p
        for pattern in ("p1.*", "p3.*", "p7.*")
        for p in glob.glob(os.path.join(root, pattern))
    )
    means = {}
    for k in (1, 2, 3, 5):
        rows = bench.run_bench(paths, "root", replace(cfg, families=PAPER_CONFIGS[k]))
        imps = [r.improvement for r in rows if r.improvement is not None]
        assert imps, k
        means[k] = sum(imps) / len(imps)
    for single in (1, 2, 3):
        assert means[5] >= means[single] - 0.1, means
    report(
        9,
        "configuration monotonicity",
        ", ".join(f"config{k}: {v:.2f}%" for k, v in sorted(means.items())),
    )


def test_criterion_10_bench_determinism(tmp_path):
    base = tmp_path / "toy.txt"
    base.write_text(
        "n 7\nm 2\ntmax 26\n0 0 0\n3 4 8\n6 1 4\n9 5 6\n4 9 3\n8 8 5\n12 0 0\n"
    )
    gen = tmp_path / "toy_stop.txt"
    assert main(["generate", str(base), "--fraction", "0.2", "--seed", "11", "-o", str(gen)]) == 0
    outputs = []
    for tag in ("one", "two"):
        csv_path = tmp_path / f"{tag}.csv"
        code = main(
            [
                "bench",
                str(base),
                str(gen),
                "--mode",
                "cpa",
                "--csv",
                str(csv_path),
                "--time-limit",
                "60",
            ]
        )
        assert code == 0
        outputs.append(csv_path.read_bytes())
    assert outputs[0] == outputs[1]
    report(10, "bench determinism", f"byte-identical CSV across runs ({len(outputs[0])} bytes)")
