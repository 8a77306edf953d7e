import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from orienteer import lp, solver
from orienteer.formulation import build_flow_formulation
from orienteer.instance import min_time_matrix, preprocess, validate_solution
from orienteer.oracle import enumerate_optimal
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
    CONFLICT,
    CONNECTIVITY,
    COVER,
    FilterParams,
)

from conftest import I, J, K, L, S, T, make_figure_instance, make_random_instance
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


def _mandatory_heavy(rng, inst):
    """Move most inner vertices into the mandatory set."""
    inner = sorted(inst.inner)
    mand = frozenset(rng.sample(inner, max(1, (2 * len(inner)) // 3)))
    return replace(
        inst,
        mandatory=mand,
        profitable=frozenset(inner) - mand,
        rewards={i: p for i, p in inst.rewards.items() if i not in mand},
    )


@pytest.mark.parametrize("scheme", sorted(GRID_REWARDS))
def test_oracle_agreement_on_reward_grid(scheme):
    rng = random.Random(f"grid-{scheme}")
    draw = GRID_REWARDS[scheme]
    infeasible = heavy = 0
    for k in range(80):
        inst = make_random_instance(rng, tightness=(0.9, 2.2), mandatory_share=0.0)
        inst = replace(inst, rewards={i: draw(rng, p) for i, p in inst.rewards.items()})
        if k % 2:
            inst = _mandatory_heavy(rng, inst)
            heavy += 1
        want = enumerate_optimal(inst)
        infeasible += want is None
        for solve in (solve_stop, solve_baseline):
            got = solve(inst, FAST)
            if want is None:
                assert got.status == "infeasible", (scheme, k, solve.__name__)
            else:
                assert got.status == "optimal", (scheme, k, solve.__name__)
                assert got.lower_bound == want.total_reward, (scheme, k, solve.__name__)
    assert heavy and infeasible  # the draw reaches both kinds of instance


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
        assert got.heuristic_discarded >= 1 and got.heuristic_incumbents == 0

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
            assert got.heuristic_incumbents == 0
            if got.status == "optimal":
                assert got.lower_bound == ref.lower_bound < 1000
                assert independent_route_check(inst, got.routes) == []
            discarded += got.heuristic_discarded
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
    inst = make_random_instance(rng, n_max=9, tightness=(1.8, 2.2))
    squeezed = replace(FAST, max_nodes=1)
    rep = solve_stop(inst, squeezed)
    if rep.status == "time-limit":
        want = enumerate_optimal(inst)
        if want is not None:
            assert rep.upper_bound >= want.total_reward - 1e-9
            if rep.lower_bound != -math.inf:
                assert rep.lower_bound <= want.total_reward
        assert 0.0 <= rep.gap <= 1.0


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
    assert all(r.lp_fallbacks == 0 for pair in want for r in pair)
    unknown = lp._hcore.HighsModelStatus.kUnknown
    _stub_engine(monkeypatch, getModelStatus=lambda self: unknown)
    for inst, pair in zip(instances, want):
        for solve, ref in zip((solve_stop, solve_baseline), pair):
            got = solve(inst, FAST)
            assert got.lp_fallbacks >= 1
            assert got.status == ref.status == "optimal"
            assert got.lower_bound == ref.lower_bound
            assert got.upper_bound == ref.upper_bound


def test_rejected_row_append_raises(rng, monkeypatch):
    # a row append the engine rejects ends the solve; it must not quietly
    # switch the rest of the run to one-shot solves
    inst = next(
        i
        for i in (make_random_instance(rng, tightness=(0.9, 1.4)) for _ in range(50))
        if sum(solve_stop(i, FAST).cut_counts.values()) > 0  # root cuts or pool rows
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


def test_lp_only_bound(figure_instance):
    rep = solve_lp_only(figure_instance)
    assert rep.status == "bound"
    assert rep.upper_bound == pytest.approx(2.0, abs=1e-9)
    assert rep.lp_bound == rep.upper_bound


def test_solver_reports_cut_counts(rng):
    total = {"connectivity": 0, "conflict": 0, "cover": 0}
    for _ in range(25):
        inst = make_random_instance(rng, tightness=(0.9, 1.4))
        rep = solve_stop(inst, FAST)
        for fam in total:
            total[fam] += rep.cut_counts.get(fam, 0)
        assert rep.node_count >= 0
    assert sum(total.values()) > 0


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
