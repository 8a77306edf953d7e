import math
import random
from dataclasses import replace

import pytest

from orienteer import lp
from orienteer.formulation import build_flow_formulation
from orienteer.instance import min_time_matrix, preprocess
from orienteer.oracle import enumerate_optimal
from orienteer.solver import (
    SolveConfig,
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
