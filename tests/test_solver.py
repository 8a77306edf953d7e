import itertools
import math
import os
import random
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orienteer import bench, lp, solver
from orienteer.formulation import build_flow_formulation
from orienteer.instance import (
    StopInstance,
    min_time_matrix,
    parse_instance,
    preprocess,
    read_instance,
    validate_solution,
)
from orienteer.oracle import enumerate_feasible, enumerate_optimal
from orienteer.solver import (
    SolveConfig,
    UncertifiedSolution,
    compute_gap,
    cutting_plane_phase,
    solve_baseline,
    solve_lp_only,
    solve_stop,
)
from orienteer.separation import (
    CLIQUE,
    CONFLICT,
    CONNECTIVITY,
    COVER,
    FAMILIES,
    FilterParams,
)

from conftest import (
    BRANCHING,
    PAPER_CONFIGS,
    I,
    J,
    K,
    L,
    S,
    T,
    make_figure_instance,
    make_random_instance,
    point_of_routes,
    unshifted,
)
from test_cli_helpers import independent_route_check

FAST = SolveConfig(time_limit_s=120.0)


def test_figure_unit_profit_route(figure_instance):
    rep = solve_stop(figure_instance, FAST)
    assert rep.status == "optimal"
    assert rep.lower_bound == 2.0
    assert rep.routes == [[S, L, J, T]]
    assert rep.gap == 0.0


def test_all_mandatory_covering_solve():
    # nothing profitable left: optimum 0 with routes covering every stop
    inst = make_figure_instance(time_limit=5.0, fleet=2, mandatory=(I, L, K, J))
    rep = solve_stop(inst, FAST)
    assert rep.status == "optimal"
    assert rep.lower_bound == 0.0
    covered = {v for route in rep.routes for v in route[1:-1]}
    assert covered == {I, L, K, J}


def test_figure_mandatory_infeasible():
    rep = solve_stop(make_figure_instance(fleet=2, mandatory=(I,)), FAST)
    assert rep.status == "infeasible"
    assert rep.gap == 0.0  # convention: proven infeasible counts as closed


def test_phase_bound_never_rises(rng):
    for _ in range(8):
        inst = make_random_instance(rng, tightness=(0.9, 1.5))
        pre, _ = preprocess(inst)
        phase = cutting_plane_phase(pre, FAST)
        if phase.status != "bound":
            continue
        assert phase.upper_bound <= phase.lp_bound + 1e-9


def test_phase_stops_immediately_on_integral_root(figure_instance):
    pre, _ = preprocess(make_figure_instance(time_limit=10.0))
    phase = cutting_plane_phase(pre, FAST)
    # nothing to separate when the relaxation is already integral
    sol = phase.solution
    assert phase.status == "bound"
    if all(
        abs(v - round(v)) < 1e-9
        for v in (sol.x[c] for c in phase.handle.x_index.values())
    ):
        assert phase.iterations == 0


def test_oracle_agreement_small_batch(rng):
    for _ in range(20):
        inst = make_random_instance(rng)
        want = enumerate_optimal(inst)
        got = solve_stop(inst, FAST)
        base = solve_baseline(inst, FAST)
        if want is None:
            assert got.status == "infeasible"
            assert base.status == "infeasible"
        else:
            assert got.status == "optimal" and got.lower_bound == want.total_reward
            assert base.status == "optimal" and base.lower_bound == want.total_reward


def test_incumbents_pass_independent_validation(rng):
    for _ in range(15):
        inst = make_random_instance(rng)
        rep = solve_stop(inst, FAST)
        if rep.status != "optimal":
            continue
        problems = independent_route_check(inst, rep.routes)
        assert problems == []
        reward = sum(
            inst.rewards.get(v, 0) for route in rep.routes for v in route[1:-1]
        )
        assert reward == rep.lower_bound


# reward schemes whose values all lie on a grid coarser than 1
GRID_REWARDS = {
    "times-5": lambda rng, p: 5 * p,
    "times-10": lambda rng, p: 10 * p,
    "from-0-6-9-15": lambda rng, p: rng.choice((0, 6, 9, 15)),
}


def _chao_style(rng, draw):
    """A draw shaped like ``BRANCHING``: 12-14 vertices on a 14 x 14 square,
    two or three vehicles, a time limit of 10-14 and rewards ``draw`` makes
    of 1-10; searches on such draws branch."""
    n = rng.randint(12, 14)
    coords = np.array([[rng.uniform(0, 14), rng.uniform(0, 14)] for _ in range(n)])
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    inner = frozenset(range(1, n - 1))
    return StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=frozenset(),
        profitable=inner,
        rewards={i: draw(rng, rng.randint(1, 10)) for i in sorted(inner)},
        travel_time=d,
        arc_mask=~np.eye(n, dtype=bool),
        fleet_size=rng.randint(2, 3),
        time_limit=rng.uniform(10, 14),
        coordinates=coords,
    )


def _mandatory_from_optimum(rng, inst, skipped):
    """``inst`` with half the vertices of its optimum mandatory, plus, with
    ``skipped``, one vertex the optimum leaves out, which may leave no
    feasible route set."""
    visited = sorted(v for route in enumerate_optimal(inst).routes for v in route[1:-1])
    mand = set(rng.sample(visited, len(visited) // 2))
    rest = sorted(inst.inner - set(visited))
    if skipped and rest:
        mand.add(rng.choice(rest))
    return _with_mandatory(inst, frozenset(mand))


def _with_mandatory(inst, mand):
    return replace(
        inst,
        mandatory=mand,
        profitable=inst.inner - mand,
        rewards={i: p for i, p in inst.rewards.items() if i not in mand},
    )


def _mandatory_heavy(rng, inst):
    """Move most inner vertices into the mandatory set."""
    inner = sorted(inst.inner)
    return _with_mandatory(inst, frozenset(rng.sample(inner, max(1, (2 * len(inner)) // 3))))


@pytest.mark.parametrize("scheme", sorted(GRID_REWARDS))
def test_oracle_agreement_on_reward_grid(scheme):
    # both pipelines meet the oracle on random draws, half of them
    # mandatory-heavy, and on Chao-style draws with mandatory vertices, whose
    # searches branch and hand nodes to the worker engine
    rng = random.Random(f"grid-{scheme}")
    draw = GRID_REWARDS[scheme]
    reached = {"heavy": 0, "infeasible": 0, "worker": 0}

    def agree(inst, k):
        want, reports = _agree_with_oracle(inst, (scheme, k))
        reached["infeasible"] += want is None
        reached["worker"] += sum(got.stats["prefetched"] > 0 for got in reports)

    for k in range(80):
        inst = make_random_instance(rng, tightness=(0.9, 2.2), mandatory_share=0.0)
        inst = replace(inst, rewards={i: draw(rng, p) for i, p in inst.rewards.items()})
        if k % 2:
            inst = _mandatory_heavy(rng, inst)
            reached["heavy"] += 1
        agree(inst, k)
    for k in range(80, 120):
        agree(_mandatory_from_optimum(rng, _chao_style(rng, draw), skipped=k % 2), k)
    assert all(reached.values()), reached  # the draws reach every kind


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(sorted(GRID_REWARDS)),
    skipped=st.booleans(),
)
def test_oracle_agreement_on_chao_style_draws(seed, scheme, skipped):
    # the Chao-style mandatory draws above, drawn by hypothesis; derandomized
    # so that every run checks the same examples
    rng = random.Random(seed)
    inst = _mandatory_from_optimum(rng, _chao_style(rng, GRID_REWARDS[scheme]), skipped)
    _agree_with_oracle(inst, (scheme, seed, skipped))


def _agree_with_oracle(inst, label):
    """Assert that both pipelines meet the oracle on ``inst``; return the
    oracle's optimum (None when infeasible) and the two reports."""
    want = enumerate_optimal(inst)
    reports = []
    for solve in (solve_stop, solve_baseline):
        got = solve(inst, FAST)
        if want is None:
            assert got.status == "infeasible", (label, solve.__name__)
        else:
            assert got.status == "optimal", (label, solve.__name__)
            assert got.lower_bound == want.total_reward, (label, solve.__name__)
        reports.append(got)
    return want, reports


def _clustered(rng):
    """A mandatory-heavy draw rich in conflict cliques: one or two vehicles,
    three or four clusters of one or two vertices 4-6 away from the depot in
    different directions, and a limit of 11-14, which lets a route reach one
    cluster but seldom two.  About half the vertices are mandatory, so some
    draws are infeasible."""
    coords = [(0.0, 0.0)]
    clusters = rng.randint(3, 4)
    for c in range(clusters):
        angle = 2 * math.pi * (c + rng.uniform(-0.15, 0.15)) / clusters
        radius = rng.uniform(4, 6)
        for _ in range(rng.randint(1, 2)):
            coords.append(
                (
                    radius * math.cos(angle) + rng.uniform(-0.5, 0.5),
                    radius * math.sin(angle) + rng.uniform(-0.5, 0.5),
                )
            )
    coords.append((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
    coords = np.array(coords)
    n = len(coords)
    inner = frozenset(range(1, n - 1))
    mand = frozenset(v for v in sorted(inner) if rng.random() < 0.5)
    return StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=mand,
        profitable=inner - mand,
        rewards={i: rng.randint(1, 10) for i in sorted(inner - mand)},
        travel_time=np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)),
        arc_mask=~np.eye(n, dtype=bool),
        fleet_size=rng.randint(1, 2),
        time_limit=rng.uniform(11, 14),
        coordinates=coords,
    )


def test_clique_rows_agree_with_the_oracle():
    # both pipelines meet the oracle on clique-rich draws, and every clique
    # row the main pipeline appends holds at every feasible route set
    emitted = []

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        inst = _clustered(random.Random(seed))
        _, (got, _) = _agree_with_oracle(inst, seed)
        rows = [cut for cut in got.cut_pool if cut.family == CLIQUE]
        pre, _ = preprocess(inst)
        for rs in enumerate_feasible(pre) if rows else ():
            xv, yv = point_of_routes(pre, rs.routes)
            assert all(cut.violation(xv, yv) <= 1e-6 for cut in rows), (seed, rs)
        emitted.append(len(rows))

    check()
    assert sum(k > 0 for k in emitted) >= 5, emitted  # the draws reach the family


def test_reduced_cost_fixing_agrees_with_the_oracle():
    # searches that branch with an incumbent in hand, half of them on a
    # reward grid of 5: fixing by reduced cost must keep every optimum
    rng = random.Random("reduced-cost-fixing")
    fixing = {solve_stop: 0, solve_baseline: 0}
    for k in range(120):
        inst = make_random_instance(rng, n_max=11, tightness=(1.2, 2.2), mandatory_share=0.0)
        if k % 2:
            inst = replace(inst, rewards={i: 5 * p for i, p in inst.rewards.items()})
        want = enumerate_optimal(inst)
        for solve in fixing:
            got = solve(inst, FAST)
            fixing[solve] += got.stats["reduced_cost_fixed"] > 0
            assert got.status == "optimal", (k, solve.__name__)
            assert got.lower_bound == want.total_reward, (k, solve.__name__)
    assert all(fixing.values()), fixing  # both searches fixed columns somewhere


def test_uncertified_incumbent_raises(rng, monkeypatch):
    inst = next(
        i
        for i in (make_random_instance(rng, mandatory_share=0.0) for _ in range(50))
        if solve_stop(i, FAST).lower_bound > 0 and _overlong_routes(preprocess(i)[0])
    )
    want = solve_stop(inst, FAST)

    # a heuristic candidate that runs past the time limit is dropped, and
    # the search still finds and certifies the optimum
    def overlong(pre, y):
        routes = _overlong_routes(pre)
        return validate_solution(pre, routes).reward, routes

    monkeypatch.setattr(solver, "lp_guided_routes", overlong)
    for solve in (solve_stop, solve_baseline):
        got = solve(inst, FAST)
        assert got.status == "optimal" and got.lower_bound == want.lower_bound
        assert independent_route_check(inst, got.routes) == []
        assert got.stats["heuristic_discarded"] >= 1 and got.stats["heuristic_incumbents"] == 0

    # with no heuristic incumbent, every reported route comes from
    # extract_routes, whose output the stubs below break
    monkeypatch.setattr(solver, "lp_guided_routes", lambda pre, y: None)
    real = solver.extract_routes

    def truncated(handle, x):
        # every route stops short of the destination
        return [route[:-1] for route in real(handle, x)]

    monkeypatch.setattr(solver, "extract_routes", truncated)
    for solve in (solve_stop, solve_baseline):
        with pytest.raises(UncertifiedSolution, match="from the origin to the destination"):
            solve(inst, FAST)

    # valid routes that collect less than the reported value
    monkeypatch.setattr(solver, "extract_routes", lambda handle, x: [])
    for solve in (solve_stop, solve_baseline):
        with pytest.raises(UncertifiedSolution, match="routes collect 0, reported"):
            solve(inst, FAST)


def _overlong_routes(inst):
    """One route over present arcs whose only fault is its duration, or
    None when there is none of 3 or 4 inner vertices."""
    s, t = inst.origin, inst.destination
    for size in (3, 4):
        for inner in itertools.permutations(sorted(inst.inner), size):
            routes = [[s, *inner, t]]
            violations = validate_solution(inst, routes).violations
            if violations and all("exceeds limit" in v for v in violations):
                return routes
    return None


def _draw_y(rng, inst):
    """Visit values in [0, 1], some exactly 0 or 1, as an LP optimum has."""
    return {v: rng.choice((0.0, 1.0, rng.random())) for v in range(inst.vertex_count)}


def test_lp_guided_routes_are_valid():
    rng = random.Random("lp-guided")
    built = refused = 0
    for k in range(240):
        inst = make_random_instance(rng, tightness=(0.9, 2.2), mandatory_share=0.0)
        if k % 2:
            inst = _mandatory_heavy(rng, inst)
        for target in (inst, preprocess(inst)[0]):
            want = enumerate_optimal(target)
            got = solver.lp_guided_routes(target, _draw_y(rng, target))
            if got is None:
                refused += 1
                continue
            value, routes = got
            verdict = validate_solution(target, routes)
            assert verdict.violations == [], (k, routes)
            assert verdict.reward == value, k
            assert want is not None and value <= want.total_reward, k
            built += 1
    assert built and refused


def test_lp_guided_routes_refuse_an_unplaceable_mandatory_vertex():
    # vertex 1 lies only on a route of 5 time units, over the limit of 4
    inst = make_figure_instance(fleet=2, mandatory=(I,))
    assert solver.lp_guided_routes(inst, {v: 1.0 for v in range(6)}) is None
    reachable = make_figure_instance(fleet=2, mandatory=(L,))
    value, routes = solver.lp_guided_routes(reachable, {v: 1.0 for v in range(6)})
    assert validate_solution(reachable, routes).ok and value == 1  # L then J


def test_discarded_heuristic_candidate_never_reported(rng, monkeypatch):
    # candidates whose claimed reward the routes do not collect are dropped
    instances = [make_random_instance(rng, tightness=(0.9, 1.6)) for _ in range(8)]
    want = [(solve_stop(i, FAST), solve_baseline(i, FAST)) for i in instances]
    real = solver.lp_guided_routes

    def overclaimed(pre, y):
        got = real(pre, y)
        return None if got is None else (got[0] + 1000, got[1])

    monkeypatch.setattr(solver, "lp_guided_routes", overclaimed)
    discarded = 0
    for inst, pair in zip(instances, want):
        for solve, ref in zip((solve_stop, solve_baseline), pair):
            got = solve(inst, FAST)
            assert got.status == ref.status
            assert got.stats["heuristic_incumbents"] == 0
            if got.status == "optimal":
                assert got.lower_bound == ref.lower_bound < 1000
                assert independent_route_check(inst, got.routes) == []
            discarded += got.stats["heuristic_discarded"]
    assert discarded  # the stub's candidates reached the validator


def test_incumbent_satisfies_every_pool_row(rng):
    for _ in range(10):
        inst = make_random_instance(rng, tightness=(0.9, 1.5))
        rep = solve_stop(inst, FAST)
        if rep.status != "optimal" or not rep.routes:
            continue
        pre, _ = preprocess(inst)
        handle = build_flow_formulation(pre)
        from conftest import point_of_routes

        xv, yv = point_of_routes(pre, rep.routes)
        for cut in rep.cut_pool:
            assert cut.violation(xv, yv) <= 1e-6


def test_families_disabled_still_exact(rng):
    bare = replace(FAST, families=frozenset())
    for _ in range(10):
        inst = make_random_instance(rng)
        want = enumerate_optimal(inst)
        got = solve_stop(inst, bare)
        if want is None:
            assert got.status == "infeasible"
        else:
            assert got.status == "optimal" and got.lower_bound == want.total_reward


def test_single_family_configs_exact(rng):
    for fams in (
        frozenset({CONNECTIVITY}),
        frozenset({CONFLICT}),
        frozenset({COVER}),
    ):
        cfg = replace(FAST, families=fams)
        for _ in range(4):
            inst = make_random_instance(rng)
            want = enumerate_optimal(inst)
            got = solve_stop(inst, cfg)
            if want is None:
                assert got.status == "infeasible"
            else:
                assert got.status == "optimal" and got.lower_bound == want.total_reward


def test_methods_share_optimal_values(rng):
    for _ in range(10):
        inst = make_random_instance(rng)
        a = solve_stop(inst, FAST)
        b = solve_baseline(inst, FAST)
        assert a.status == b.status
        if a.status == "optimal":
            assert a.lower_bound == b.lower_bound


def test_root_loop_stops_at_the_deadline(rng):
    inst = make_random_instance(rng, mandatory_share=0.0)
    pre, _ = preprocess(inst)
    # a deadline already past: the root LP is solved, no round runs
    phase = cutting_plane_phase(pre, FAST, deadline=time.monotonic() - 1)
    assert phase.status == "time-limit"
    assert phase.iterations == 0
    assert phase.upper_bound == phase.lp_bound
    rep = solve_stop(inst, replace(FAST, time_limit_s=0.0))
    assert rep.status == "time-limit"
    assert rep.upper_bound >= enumerate_optimal(inst).total_reward - 1e-9


def test_time_limit_report_keeps_valid_bounds(rng):
    # a search stopped at its node cap reports an upper bound between the
    # optimum and the bound it starts from: the root's for cpa, the LP's for
    # the baseline; with no node at all it reports that bound itself
    pipelines = {"cpa": (solve_stop, "root_bound"), "baseline": (solve_baseline, "lp_bound")}
    capped = dict.fromkeys(pipelines, 0)
    for _ in range(300):
        if min(capped.values()) >= 3:
            break
        inst = make_random_instance(rng, n_max=10, m_max=4, tightness=(1.5, 2.5))
        for mode, (solve, start) in pipelines.items():
            rep = solve(inst, replace(FAST, max_nodes=1))
            if rep.status != "time-limit":
                continue
            capped[mode] += 1
            want = enumerate_optimal(inst).total_reward
            assert want - 1e-9 <= rep.upper_bound <= getattr(rep, start), mode
            assert rep.lower_bound <= want, mode
            assert 0.0 <= rep.gap <= 1.0
            bare = solve(inst, replace(FAST, max_nodes=0))
            assert bare.status == "time-limit" and bare.node_count == 0
            assert bare.upper_bound == getattr(bare, start), mode
    assert min(capped.values()) >= 3, capped


def test_reported_bounds_are_ordered(rng):
    for _ in range(10):
        inst = make_random_instance(rng, tightness=(0.9, 1.5))
        rep = solve_stop(inst, FAST)
        if rep.status != "optimal":
            continue
        assert rep.lp_bound >= rep.root_bound - 1e-9
        assert rep.root_bound >= rep.lower_bound - 1e-9


def _stub_engine(monkeypatch, **methods):
    """Sessions opened from here on hold an engine with ``methods``
    replaced; every other call goes to the real engine (``lp.solve`` builds
    fresh engines of its own)."""

    class Stubbed:
        def __init__(self, engine):
            self._engine = engine

        def __getattr__(self, name):
            return getattr(self._engine, name)

    for name, fn in methods.items():
        setattr(Stubbed, name, fn)
    opened = lp.HighsSession.__init__

    def init(self, model):
        opened(self, model)
        self._h = Stubbed(self._h)

    monkeypatch.setattr(lp.HighsSession, "__init__", init)


def test_unclassified_engine_status_falls_back_and_counts(rng, monkeypatch):
    instances = [make_random_instance(rng, mandatory_share=0.0) for _ in range(4)]
    want = [(solve_stop(i, FAST), solve_baseline(i, FAST)) for i in instances]
    assert all(r.stats["lp_fallbacks"] == 0 for pair in want for r in pair)
    unknown = lp._hcore.HighsModelStatus.kUnknown
    _stub_engine(monkeypatch, getModelStatus=lambda self: unknown)
    for inst, pair in zip(instances, want):
        for solve, ref in zip((solve_stop, solve_baseline), pair):
            got = solve(inst, FAST)
            assert got.stats["lp_fallbacks"] >= 1
            assert got.status == ref.status == "optimal"
            assert got.lower_bound == ref.lower_bound
            assert got.upper_bound == ref.upper_bound


def test_fallbacks_count_every_session_solve_once(rng, monkeypatch):
    # the main pipeline's root and search share one session, so a solve whose
    # every session LP falls back counts each of them exactly once
    inst = make_random_instance(rng, mandatory_share=0.0)
    unknown = lp._hcore.HighsModelStatus.kUnknown
    _stub_engine(monkeypatch, getModelStatus=lambda self: unknown)
    solves = []
    solve = lp.HighsSession.solve

    def counted(self, bounds_override=None):
        solves.append(self)
        return solve(self, bounds_override)

    monkeypatch.setattr(lp.HighsSession, "solve", counted)
    for pipeline in (solve_stop, solve_baseline):
        solves.clear()
        rep = pipeline(inst, FAST)
        assert rep.status == "optimal"
        assert rep.stats["lp_fallbacks"] == len(solves) >= 1, pipeline.__name__


def test_main_pipeline_searches_in_the_root_session(monkeypatch):
    # the search goes on in the root's session: one session per solve (its
    # worker's engine lives inside it), one LP per node on one of the two
    # engines, and the first node starts at the root's optimal basis
    opened = []
    init = lp.HighsSession.__init__
    solve = lp.HighsSession.solve
    solves = []

    def counted_init(self, model):
        opened.append(model)
        init(self, model)

    def counted_solve(self, bounds_override=None):
        sol = solve(self, bounds_override)
        if bounds_override is not None:
            solves.append(self._h.getInfo().simplex_iteration_count)
        return sol

    monkeypatch.setattr(lp.HighsSession, "__init__", counted_init)
    monkeypatch.setattr(lp.HighsSession, "solve", counted_solve)
    rep = solve_stop(parse_instance(BRANCHING), FAST)
    assert rep.node_count > 1 and len(opened) == 1
    # node solves set column bounds; root solves keep those in force; the
    # worker settles the rest of the nodes' LPs
    assert rep.stats["prefetched"] >= 1
    assert len(solves) + rep.stats["prefetched"] == rep.node_count
    assert solves[0] == 0


def test_baseline_search_starts_from_the_root_basis(monkeypatch):
    # the baseline solves its root LP once, with lp.solve, and the search's
    # first node goes on from that solve's final basis: no simplex iteration,
    # and the same report as a search whose first node starts from scratch
    inst = parse_instance(BRANCHING)
    stateless = []
    node_iters = []
    lp_solve = lp.solve
    session_solve = lp.HighsSession.solve
    set_basis = lp.HighsSession.set_basis

    def counted_lp_solve(model):
        stateless.append(model)
        return lp_solve(model)

    def counted_solve(self, bounds_override=None):
        sol = session_solve(self, bounds_override)
        self.solved = True
        if not node_iters:
            node_iters.append(self._h.getInfo().simplex_iteration_count)
        return sol

    monkeypatch.setattr(lp, "solve", counted_lp_solve)
    monkeypatch.setattr(lp.HighsSession, "solve", counted_solve)
    seeded = solve_baseline(inst, FAST)
    assert seeded.node_count > 1 and len(stateless) == 1
    assert node_iters == [0]

    def unseeded_set_basis(self, saved):
        # a basis handed over before the session's first solve is dropped
        if getattr(self, "solved", False):
            set_basis(self, saved)

    monkeypatch.setattr(lp.HighsSession, "set_basis", unseeded_set_basis)
    stateless.clear()
    node_iters.clear()
    unseeded = solve_baseline(inst, FAST)
    assert len(stateless) == 1 and node_iters[0] > 0
    # the search spends the first node's iterations more, and nothing else
    # differs
    assert unseeded.stats["lp_iterations"] == seeded.stats["lp_iterations"] + node_iters[0]
    unseeded.stats["lp_iterations"] = seeded.stats["lp_iterations"]
    assert _without_timers(seeded) == _without_timers(unseeded)


# the counters that depend on thread timing: seconds, and which of the two
# engines settled a popped node's LP
TIMED_STATS = ("heuristic_s", "prefetch_wait_s", "prefetched", "stolen")


def _without_timers(rep):
    stats = {k: v for k, v in rep.stats.items() if k not in TIMED_STATS}
    return replace(rep, timings={}, stats=stats)


@pytest.mark.parametrize("pipeline", [solve_stop, solve_baseline])
def test_worker_leaves_the_report_repeatable(pipeline):
    # a cpa job the worker has not started is solved on the search's own
    # engine, which gives the worker's result bit for bit; the baseline's
    # jobs run in submission order on the worker's one engine; so nothing
    # but the timers and the counts of who solved what depends on when the
    # jobs finish
    inst = parse_instance(BRANCHING)
    first, second = pipeline(inst, FAST), pipeline(inst, FAST)
    assert first.stats["prefetched"] >= 1
    assert _without_timers(first) == _without_timers(second)


def _slow_worker(monkeypatch, delay):
    """Each job of a session's worker sleeps ``delay`` seconds first."""
    prefetch = lp.HighsSession._prefetch

    def slowed(self, *args):
        time.sleep(delay)
        return prefetch(self, *args)

    monkeypatch.setattr(lp.HighsSession, "_prefetch", slowed)


def _open_draw(rng):
    """A Chao-style draw with 21 vertices on a 20 x 20 square, two or three
    vehicles, a time limit of 15-25 and rewards 5-50: about one in four
    branches past ten nodes."""
    n = 21
    coords = np.array([[rng.uniform(0, 20), rng.uniform(0, 20)] for _ in range(n)])
    inner = frozenset(range(1, n - 1))
    return StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=frozenset(),
        profitable=inner,
        rewards={i: 5 * rng.randint(1, 10) for i in sorted(inner)},
        travel_time=np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)),
        arc_mask=~np.eye(n, dtype=bool),
        fleet_size=rng.randint(2, 3),
        time_limit=rng.uniform(15, 25),
        coordinates=coords,
    )


def test_reports_do_not_depend_on_the_worker_speed(monkeypatch):
    # a slower worker leaves more cpa jobs unstarted, for the search to take
    # back, and more running, to wait for; the baseline waits for every job
    config = SolveConfig(time_limit_s=120.0, max_nodes=60)
    rng = random.Random("worker-speed")
    draws = (_open_draw(rng) for _ in range(40))
    branching = [i for i in draws if solve_stop(i, config).node_count >= 10][:3]
    instances = [parse_instance(BRANCHING)] + branching
    assert len(instances) == 4
    reports = {}
    for delay in (0.0, 0.003, 0.02):
        with monkeypatch.context() as patched:
            _slow_worker(patched, delay)
            reports[delay] = [(solve_stop(i, config), solve_baseline(i, config)) for i in instances]
    fast = [tuple(map(_without_timers, pair)) for pair in reports[0.0]]
    for delay in (0.003, 0.02):
        assert [tuple(map(_without_timers, pair)) for pair in reports[delay]] == fast, delay
    assert sum(cpa.stats["stolen"] for cpa, _ in reports[0.02]) >= 1
    assert all(base.stats["stolen"] == 0 for pair in reports.values() for _, base in pair)


def test_cpa_reports_do_not_depend_on_the_prefetch_cap(monkeypatch):
    # a frozen session's engine is rebuilt from its row store when the search
    # first branches, submitted jobs or not, and it solves a node's LP to the
    # same bits, and leaves its engine as it was, whether the LP went to the
    # worker or not; so every cap, 0 included, gives the same cpa report
    config = SolveConfig(time_limit_s=120.0, max_nodes=60)
    rng = random.Random("prefetch-cap")
    draws = (_open_draw(rng) for _ in range(40))
    branching = [i for i in draws if solve_stop(i, config).node_count >= 10][:3]
    instances = [parse_instance(BRANCHING)] + branching
    assert len(instances) == 4
    submit = lp.HighsSession.submit
    submitted = []

    def counted(self, *args):
        submitted[-1] += 1
        return submit(self, *args)

    monkeypatch.setattr(lp.HighsSession, "submit", counted)
    reports = {}
    for cap in (0, 1, 2, 1000):
        monkeypatch.setattr(solver, "PREFETCH_PER_DIVE", cap)
        submitted.append(0)
        reports[cap] = [_without_timers(solve_stop(i, config)) for i in instances]
    assert 0 == submitted[0] < submitted[1] < submitted[2] < submitted[3]
    assert reports[0] == reports[1] == reports[2] == reports[1000]


def test_only_the_search_prices_with_devex(monkeypatch):
    # both engines of a search session, its own and the worker's, price with
    # lp.SEARCH_EDGE_WEIGHTS; the cpa root loop and every lp.solve engine (the
    # baseline's root, the bound modes, any fallback) keep HiGHS's default
    def pricing(engine):
        return engine.getOptionValue("simplex_dual_edge_weight_strategy")[1]

    built = []
    engine, stateless_solve, close = lp._engine, lp.solve, lp.HighsSession.close
    stateless, searched = [], []

    def recorded_engine(model, cost=None):
        built.append(engine(model, cost))
        return built[-1]

    def recorded_solve(model):
        first = len(built)
        sol = stateless_solve(model)
        stateless.extend(built[first:])
        return sol

    def closing(self):
        searched.append((pricing(self._h), pricing(self._twin)))
        close(self)

    monkeypatch.setattr(lp, "_engine", recorded_engine)
    monkeypatch.setattr(lp, "solve", recorded_solve)
    monkeypatch.setattr(lp.HighsSession, "close", closing)
    inst = parse_instance(BRANCHING)
    phase = cutting_plane_phase(preprocess(inst)[0])
    assert pricing(phase.session._h) == -1
    for pipeline in (solve_stop, solve_baseline):
        assert pipeline(inst, FAST).node_count > 1
    assert lp.SEARCH_EDGE_WEIGHTS == 1  # Devex
    assert searched == [(1, 1)] * 2
    solve_lp_only(inst)
    assert len(stateless) >= 2 and all(pricing(h) == -1 for h in stateless)


def test_no_thread_outlives_a_solve(monkeypatch):
    inst = parse_instance(BRANCHING)
    before = threading.active_count()
    ends = {
        "optimal": FAST,
        "time-limit": SolveConfig(max_nodes=2),  # a job is still queued here
        "tiny-limit": SolveConfig(time_limit_s=1e-4),
    }
    for pipeline in (solve_stop, solve_baseline):
        for end, config in ends.items():
            rep = pipeline(inst, config)
            assert rep.status == end.replace("tiny-limit", "time-limit"), (pipeline.__name__, end)
            assert threading.active_count() == before, (pipeline.__name__, end)

    # an exception at the second node, after the first submitted a job
    monkeypatch.setattr(solver, "HEURISTIC_EVERY", 2)
    calls = []

    def raising(handle, x, stats):
        calls.append(stats["nodes"])
        if len(calls) > 1:
            raise RuntimeError("heuristic failed")

    monkeypatch.setattr(solver, "_lp_guided_incumbent", raising)
    for pipeline in (solve_stop, solve_baseline):
        calls.clear()
        with pytest.raises(RuntimeError, match="heuristic failed"):
            pipeline(inst, FAST)
        assert calls == [1, 2] and threading.active_count() == before, pipeline.__name__


def test_rejected_row_append_raises(rng, monkeypatch):
    # a row append the engine rejects ends the solve; it must not quietly
    # switch the rest of the run to one-shot solves
    inst = next(
        i
        for i in (make_random_instance(rng, tightness=(0.9, 1.4)) for _ in range(50))
        if solve_stop(i, FAST).cut_pool
    )
    rejected = lp._hcore.HighsStatus.kError
    _stub_engine(monkeypatch, addRows=lambda self, *args: rejected)
    with pytest.raises(lp.LpError, match="rejected appended rows"):
        solve_stop(inst, FAST)


def test_unbounded_node_lp_raises(rng, monkeypatch):
    # every formulation bounds its objective, so an unbounded node LP is an
    # engine fault: it must end the solve, not prune the node as infeasible
    inst = make_random_instance(rng, mandatory_share=0.0)
    solve = lp.HighsSession.solve

    def unbounded_at_nodes(self, bounds_override=None):
        if bounds_override is not None:  # node solves fix column bounds
            return lp.LpSolution("unbounded", math.inf, None)
        return solve(self, bounds_override)

    monkeypatch.setattr(lp.HighsSession, "solve", unbounded_at_nodes)
    for pipeline in (solve_stop, solve_baseline):
        with pytest.raises(lp.LpError, match="unbounded"):
            pipeline(inst, FAST)


def test_instance_with_an_unclassified_node_lp_solves_infeasible():
    # a seeded mandatory-heavy instance with no feasible route set, which
    # the baseline proves by a long search (819 nodes): HiGHS leaves one of
    # its worker jobs unclassified, which the session restarts on its own
    # engine, and no node LP falls back to fresh engines
    inst = read_instance(os.path.join(os.path.dirname(__file__), "data", "unclassified_node_lp.txt"))
    for pipeline in (solve_stop, solve_baseline):
        assert pipeline(inst, FAST).status == "infeasible", pipeline.__name__


def test_branching_takes_the_largest_fractional_visit_then_the_most_fractional_arc(
    figure_instance,
):
    handle = build_flow_formulation(preprocess(figure_instance)[0])
    order = solver._branch_order(handle)
    ys, xs = order
    assert list(ys) == sorted(handle.y_index.values())
    assert list(xs) == sorted(handle.x_index.values())
    x = np.zeros(handle.model.n_cols)
    x[xs] = 0.5
    x[ys[:3]] = [1.0, 0.6, 0.6]
    assert solver._pick_branch_column(order, x) == ys[1]  # tie: lowest id
    x[ys[2]] = 0.9
    assert solver._pick_branch_column(order, x) == ys[2]  # largest, not most fractional
    x[ys] = np.round(x[ys])
    x[xs[:4]] = [0.0, 0.8, 0.6, 0.4]
    assert solver._pick_branch_column(order, x) == xs[2]  # most fractional arc, lowest id
    x[xs] = 1.0
    assert solver._pick_branch_column(order, x) is None


def test_reduced_cost_fixing_touches_binary_columns_only(figure_instance):
    # moving any column off its value would cost 1e6, far below the cutoff;
    # still only arc and visit columns may be fixed: the bound covers a full
    # move to the other binary value, which a flow or slack column (here
    # bounded by [0, 1] with one vehicle) need not make
    handle = build_flow_formulation(preprocess(figure_instance)[0])
    order = solver._branch_order(handle)
    binary = sorted(np.concatenate(order).tolist())
    n = handle.model.n_cols
    bounds = np.array([handle.model.lower, handle.model.upper], dtype=float).T
    assert tuple(bounds[handle.slack_index]) == (0.0, 1.0)
    for value, dual in ((0.0, -1e6), (1.0, 1e6)):
        sol = lp.LpSolution("optimal", 10.0, np.full(n, value), np.full(n, dual))
        fixed = solver._reduced_cost_fixings(order, sol, bounds, cutoff=5.0)
        assert sorted(c for c, _, _ in fixed) == binary
        assert all(lo == up == value for _, lo, up in fixed)
        # no fixing when the move keeps the bound at the cutoff, or from a
        # fractional value, or for a column a fixing already holds
        assert solver._reduced_cost_fixings(order, sol, bounds, cutoff=10.0 - 1e6) == ()
        half = lp.LpSolution("optimal", 10.0, np.full(n, 0.5), sol.dual)
        assert solver._reduced_cost_fixings(order, half, bounds, cutoff=5.0) == ()
        held = bounds.copy()
        held[binary] = value
        assert solver._reduced_cost_fixings(order, sol, held, cutoff=5.0) == ()


def test_lp_only_bound(figure_instance):
    rep = solve_lp_only(figure_instance)
    assert rep.status == "bound"
    assert rep.upper_bound == pytest.approx(2.0, abs=1e-9)
    assert rep.lp_bound == rep.upper_bound


# a Chao-style draw with two vehicles and four mandatory vertices: each
# mandatory vertex alone passes the screen, but the flow relaxation cannot
# cover all four within the limit of 20; under a limit of 23 the flow model
# without its floor rows is feasible and the full one still is not
EXHAUSTED = (
    "n 21\nm 2\ntmax 20.0\n10.9 7.3 0\n9.7 1.3 35\n4.0 15.5 10\n17.9 7.3 0\n"
    "16.6 16.3 20\n3.3 15.0 0\n2.2 18.7 35\n6.3 0.4 0\n4.4 6.5 30\n16.2 19.4 30\n"
    "3.1 10.3 40\n1.4 10.9 0\n12.5 1.6 10\n7.7 3.1 30\n7.5 2.5 20\n10.2 3.4 15\n"
    "5.3 2.6 30\n5.1 5.1 40\n16.0 13.8 25\n0.9 16.4 40\n9.1 11.3 0\nM: 3 5 7 11\n"
)

RELAXATION_KINDS = {"lp": "flow", "impact-flow": "flow", "impact-arrival": "arrival"}


def _build(pre, kind):
    return getattr(solver, f"build_{kind}_formulation")(pre)


def _floor_free_bound(pre, kind):
    """The LP bound of formulation ``kind`` with its shift undone and no
    floor row written (``unshifted``), or None when that LP is
    infeasible."""
    sol = lp.solve(unshifted(_build(pre, kind), floors=False))
    return sol.objective if sol.status == "optimal" else None


def test_bound_modes_on_an_infeasible_relaxation():
    # the screen passes and the full LP is infeasible: every relaxation mode
    # ends infeasible; an impact mode keeps the bound without the floor rows
    # in lp_bound, None when that LP is infeasible too, and lp keeps none
    kept = []
    for limit in ("20.0", "23"):
        inst = parse_instance(EXHAUSTED.replace("tmax 20.0", f"tmax {limit}"))
        pre, blocker = solver._screen(inst)
        assert blocker is None
        for mode, kind in RELAXATION_KINDS.items():
            rep = solver.PIPELINES[mode](inst, FAST)
            assert (rep.status, rep.reason) == ("infeasible", "linear relaxation infeasible"), mode
            assert rep.upper_bound == -math.inf and rep.root_bound is None, mode
            want = None if mode == "lp" else _floor_free_bound(pre, kind)
            if want is None:
                assert rep.lp_bound is None, (limit, mode)
            else:
                assert rep.lp_bound == pytest.approx(want, abs=1e-6), (limit, mode)
                kept.append((limit, mode))
    assert kept == [("23", "impact-flow")]


def test_bound_modes_report_the_full_and_the_floor_free_bound(rng):
    # lp: its bound in both upper and lp_bound; an impact mode: the full
    # bound as upper and root bound, the floor-free one as lp_bound
    bounded = 0
    for _ in range(6):
        inst = make_random_instance(rng, tightness=(0.9, 1.4))
        pre = solver._screen(inst)[0]
        for mode, kind in RELAXATION_KINDS.items():
            rep = solver.PIPELINES[mode](inst, FAST)
            if rep.status == "infeasible":
                continue
            assert rep.status == "bound" and rep.lower_bound == -math.inf, mode
            bounded += 1
            full = lp.solve(_build(pre, kind).model).objective
            assert rep.upper_bound == full, mode
            if mode == "lp":
                assert (rep.lp_bound, rep.root_bound) == (full, None)
            else:
                assert rep.root_bound == full
                assert rep.lp_bound == pytest.approx(_floor_free_bound(pre, kind), abs=1e-6), mode
    assert bounded >= 9


# (status, upper, lp_bound, root_bound) as bench's CSV prints them, by case
# and bound mode: the figure instance, EXHAUSTED at the limit where the
# floor-free flow LP is feasible, and seeded random and Chao-style draws
PINNED_BOUNDS = {
    "figure": {
        "lp": ("bound", "2.000000", "2.000000", ""),
        "impact-flow": ("bound", "2.000000", "2.000000", "2.000000"),
        "impact-arrival": ("bound", "2.000000", "2.000000", "2.000000"),
    },
    "exhausted-23": {
        "lp": ("infeasible", "", "", ""),
        "impact-flow": ("infeasible", "", "157.594492", ""),
        "impact-arrival": ("infeasible", "", "", ""),
    },
    "random-3": {
        "lp": ("infeasible", "", "", ""),
        "impact-flow": ("infeasible", "", "", ""),
        "impact-arrival": ("infeasible", "", "", ""),
    },
    "random-19": {
        "lp": ("bound", "26.973007", "26.973007", ""),
        "impact-flow": ("bound", "26.973007", "27.053251", "26.973007"),
        "impact-arrival": ("bound", "26.973007", "27.639543", "26.973007"),
    },
    "random-20": {
        "lp": ("bound", "29.777699", "29.777699", ""),
        "impact-flow": ("bound", "29.777699", "30.409961", "29.777699"),
        "impact-arrival": ("bound", "29.777699", "29.777699", "29.777699"),
    },
    "chao-1": {
        "lp": ("bound", "29.074289", "29.074289", ""),
        "impact-flow": ("bound", "29.074289", "29.083525", "29.074289"),
        "impact-arrival": ("bound", "29.074289", "29.074289", "29.074289"),
    },
    "chao-8": {
        "lp": ("bound", "23.401792", "23.401792", ""),
        "impact-flow": ("bound", "23.401792", "23.773125", "23.401792"),
        "impact-arrival": ("bound", "23.401792", "23.570638", "23.401792"),
    },
}


def _pinned_case(name):
    if name == "figure":
        return make_figure_instance()
    if name == "exhausted-23":
        return parse_instance(EXHAUSTED.replace("tmax 20.0", "tmax 23"))
    family, seed = name.rsplit("-", 1)
    rng = random.Random(int(seed))
    if family == "random":
        return make_random_instance(rng, n_max=16, tightness=(1.05, 1.8))
    return _chao_style(rng, lambda rng, p: p)


@pytest.mark.parametrize("name", sorted(PINNED_BOUNDS))
def test_bound_columns_are_pinned(name):
    # the bound columns of the three relaxation modes, which any rewrite of
    # the formulations must leave as they are
    inst = _pinned_case(name)
    for mode, want in PINNED_BOUNDS[name].items():
        rep = solver.PIPELINES[mode](inst)
        got = (rep.status, *(bench._num(v) for v in (rep.upper_bound, rep.lp_bound, rep.root_bound)))
        assert got == want, mode


def test_bound_modes_look_their_builder_up_at_call_time(figure_instance, monkeypatch):
    # a builder patched into the solver module, as a tracer wraps it, is the
    # one every relaxation mode calls: once for lp, and for an impact mode
    # once more with its floors at 0
    built = []
    for kind in ("flow", "arrival"):
        name = f"build_{kind}_formulation"
        original = getattr(solver, name)

        def counted(pre, *args, kind=kind, original=original, **kwargs):
            built.append((kind, kwargs.get("floors", True)))
            return original(pre, *args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    for mode, kind in RELAXATION_KINDS.items():
        built.clear()
        solver.PIPELINES[mode](figure_instance, FAST)
        assert built == [(kind, True)] + ([] if mode == "lp" else [(kind, False)]), mode


def test_solver_reports_cut_counts(rng):
    total = dict.fromkeys(FAMILIES, 0)
    for _ in range(25):
        inst = make_random_instance(rng, tightness=(0.9, 1.4))
        rep = solve_stop(inst, FAST)
        for fam in total:
            total[fam] += rep.cut_counts.get(fam, 0)
        assert rep.node_count >= 0
        # every report counts its own cut pool by family
        for other in (rep, solve_baseline(inst, FAST), solve_lp_only(inst, FAST)):
            want = {fam: sum(c.family == fam for c in other.cut_pool) for fam in total}
            assert other.cut_counts == want
    assert sum(total.values()) > 0


# one vehicle cannot visit the mandatory vertices 1, 3 and 4 within 16 time
# units, yet the relaxation without cuts is feasible
UNCOVERABLE = "n 6\nm 1\ntmax 16\n3 2 0\n1 2 0\n2 4 6\n9 2 0\n8 2 0\n8 9 0\nM: 1 3 4\n"


def test_infeasible_exits_keep_their_counts():
    inst = parse_instance(UNCOVERABLE)
    assert enumerate_optimal(inst) is None
    # the baseline's search, not its root LP, proves infeasibility
    rep = solve_baseline(inst, FAST)
    assert rep.reason == "search exhausted without a feasible point"
    assert rep.status == "infeasible" and rep.gap == 0.0
    assert rep.node_count == rep.stats["nodes"] >= 1
    assert math.isfinite(rep.lp_bound)
    assert rep.cut_pool and rep.cut_counts[CONNECTIVITY] == len(rep.cut_pool)
    # the main pipeline's root cuts empty a feasible relaxation, and its
    # report keeps them, with the same stats keys at zero
    phase = cutting_plane_phase(preprocess(inst)[0], FAST)
    assert phase.status == "infeasible" and math.isfinite(phase.lp_bound) and phase.cuts
    root = solve_stop(inst, FAST)
    assert root.reason == "linear relaxation infeasible"
    assert root.lp_bound == phase.lp_bound
    assert root.cut_pool == phase.cuts
    assert sum(root.cut_counts.values()) == len(phase.cuts)
    assert root.stats.keys() == rep.stats.keys() and root.node_count == 0


def test_bench_config_row_keeps_the_counts_of_an_emptied_root(tmp_path):
    path = tmp_path / "uncoverable.txt"
    path.write_text(UNCOVERABLE)
    cfg = replace(FAST, families=PAPER_CONFIGS[5])
    want = solve_stop(parse_instance(UNCOVERABLE), cfg)
    row = bench.bench_one(str(path), "root", cfg)
    assert row.status == "infeasible" and row.gap == 0.0 and row.improvement is None
    assert row.cuts == want.cut_counts and sum(row.cuts.values()) > 0
    assert row.stats.keys() == want.stats.keys()
    assert row.lp_bound == want.lp_bound  # the relaxation solved before the cuts emptied it


def test_gap_conventions():
    assert compute_gap("infeasible", None, None) == 0.0
    assert compute_gap("time-limit", -math.inf, 10.0) == 1.0
    assert compute_gap("time-limit", 5.0, 10.0) == 0.5
    assert compute_gap("optimal", 0.0, 0.0) == 0.0


def test_deterministic_replay(rng):
    inst = make_random_instance(rng, tightness=(0.9, 1.4))
    a = solve_stop(inst, FAST)
    b = solve_stop(inst, FAST)
    assert a.status == b.status
    assert a.lower_bound == b.lower_bound
    assert a.routes == b.routes
    assert a.node_count == b.node_count
    assert a.cut_counts == b.cut_counts
