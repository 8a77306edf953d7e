import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from orienteer import lp
from orienteer.formulation import build_flow_formulation
from orienteer.instance import min_time_matrix, parse_instance, preprocess
from orienteer.oracle import enumerate_feasible
from orienteer.separation import (
    ConflictSet,
    Cut,
    FilterParams,
    build_conflict_set,
    filter_cuts,
    floor_bound,
    inner_product,
    knapsack_max,
    separate_conflict,
    separate_connectivity,
    separate_lifted_cover,
)

from conftest import (
    I,
    J,
    K,
    L,
    S,
    T,
    make_figure_instance,
    make_random_instance,
    make_reward_universe,
    point_of_routes,
)

# the two-path fractional points of the 6-vertex example
HALVES_POINT = (
    {(S, I): 0.5, (I, K): 0.5, (K, J): 0.5, (S, L): 0.5, (L, J): 0.5, (J, T): 1.0, (L, T): 0.0},
    {S: 1.0, T: 1.0, J: 1.0, I: 0.5, K: 0.5, L: 0.5},
)
THIRDS_POINT = (
    {(S, I): 0.3, (I, K): 0.3, (K, J): 0.3, (J, T): 0.3, (S, L): 0.7, (L, T): 0.7, (L, J): 0.0},
    {S: 1.0, T: 1.0, I: 0.3, K: 0.3, J: 0.3, L: 0.7},
)


# -- conflict pairs -----------------------------------------------------------


def test_conflict_pairs_of_figure(figure_instance):
    pairs = build_conflict_set(figure_instance, min_time_matrix(figure_instance))
    assert (I, J) in pairs.pairs  # the pair the construction is built around
    # soundness: no single feasible route may serve a listed pair
    single = replace(figure_instance, fleet_size=1)
    for rs in enumerate_feasible(single):
        for route in rs.routes:
            body = set(route[1:-1])
            for (a, b) in pairs:
                assert not {a, b} <= body


def test_conflict_pairs_empty_when_limit_loose(rng):
    # on a complete graph every pairwise tour time is finite, so a large
    # enough limit clears the set (pairs with no connecting path at all stay
    # conflicting forever, hence the complete graph here)
    inst = make_random_instance(rng, n_max=8)
    loose = replace(inst, time_limit=1e6)
    assert len(build_conflict_set(loose, min_time_matrix(loose))) == 0


def test_conflict_pairs_empty_on_unit_complete_graph():
    inst = parse_instance("n 6\nm 2\ntmax 4\n" + "\n".join("0 0 1" for _ in range(6)))
    # all distances zero: nothing can conflict
    assert len(build_conflict_set(inst, min_time_matrix(inst))) == 0
    d = np.ones((6, 6))
    np.fill_diagonal(d, 0.0)
    unit = replace(inst, travel_time=d, coordinates=None)
    # any pair fits: 1 + 1 + 1 = 3 <= 4
    assert len(build_conflict_set(unit, min_time_matrix(unit))) == 0


def test_conflict_pairs_soundness_on_randoms(rng):
    for _ in range(15):
        inst = make_random_instance(rng, n_max=8, tightness=(0.9, 1.6))
        pairs = build_conflict_set(inst, min_time_matrix(inst))
        single = replace(inst, fleet_size=1, mandatory=frozenset(),
                         profitable=frozenset(range(1, inst.vertex_count - 1)),
                         rewards={i: inst.rewards.get(i, 0) for i in range(1, inst.vertex_count - 1)})
        for rs in enumerate_feasible(single):
            for route in rs.routes:
                body = set(route[1:-1])
                for (a, b) in pairs:
                    assert not {a, b} <= body, (route, (a, b))


# -- connectivity cuts --------------------------------------------------------


def test_connectivity_silent_on_integral_points(figure_instance):
    xv, yv = point_of_routes(figure_instance, [[S, L, J, T]])
    assert separate_connectivity(xv, yv, figure_instance) == []


def test_connectivity_silent_on_thirds_point(figure_instance):
    xv, yv = THIRDS_POINT
    assert separate_connectivity(xv, yv, figure_instance, FilterParams(0.05, 0.03)) == []


def test_connectivity_catches_detached_cycle():
    # a fractional cycle on {2, 3} with full visit values but no path to the
    # destination: flow value 0 against a visit value of 1
    inst = parse_instance("n 6\nm 2\ntmax 50\n" + "\n".join(f"{i} 0 1" for i in range(6)))
    pre, _ = preprocess(inst)
    xv = {a: 0.0 for a in pre.arcs()}
    yv = {v: 0.0 for v in range(6)}
    xv[(0, 1)] = xv[(1, 5)] = 1.0
    yv[0] = yv[1] = yv[5] = 1.0
    xv[(2, 3)] = xv[(3, 2)] = 1.0
    yv[2] = yv[3] = 1.0
    cuts = separate_connectivity(xv, yv, pre)
    assert cuts, "the detached cycle must be exposed"
    hit = [c for c in cuts if c.origin[0] == frozenset({2, 3})]
    assert hit
    cut = hit[0]
    assert cut.violation(xv, yv) == pytest.approx(1.0)
    assert cut.y_terms in (((2, -1.0),), ((3, -1.0),))


def test_connectivity_cut_arcs_cover_whole_graph_not_support():
    # coefficients must include every present arc leaving the cut side, also
    # the ones the fractional point does not use
    inst = parse_instance("n 6\nm 2\ntmax 50\n" + "\n".join(f"{i} 0 1" for i in range(6)))
    pre, _ = preprocess(inst)
    xv = {a: 0.0 for a in pre.arcs()}
    yv = {v: 0.0 for v in range(6)}
    xv[(2, 3)] = xv[(3, 2)] = 1.0
    yv[2] = yv[3] = 1.0
    cuts = separate_connectivity(xv, yv, pre)
    cut = [c for c in cuts if c.origin[0] == frozenset({2, 3})][0]
    expected_arcs = {(i, j) for (i, j) in pre.arcs() if i in (2, 3) and j not in (2, 3)}
    assert {a for a, _ in cut.x_terms} == expected_arcs


# -- conflict cuts ------------------------------------------------------------


def test_conflict_cut_on_halves_point(figure_instance):
    pairs = build_conflict_set(figure_instance, min_time_matrix(figure_instance))
    xv, yv = HALVES_POINT
    cuts = separate_conflict(xv, yv, figure_instance, pairs)
    # the construction pair yields both cut sides, each short by 0.5
    got = {(c.origin[1], c.origin[2]): c for c in cuts}
    enter = got[((I, J), "enter")]
    assert enter.origin[0] == frozenset({I, L, K, J, T})
    assert enter.violation(xv, yv) == pytest.approx(0.5)
    leave = got[((I, J), "leave")]
    assert leave.origin[0] == frozenset({S, I, L, K, J})
    assert leave.violation(xv, yv) == pytest.approx(0.5)
    assert {a for a, _ in leave.x_terms} == {(L, T), (J, T)}


def test_conflict_respects_violation_threshold(figure_instance):
    pairs = ConflictSet(((I, J),))
    xv, yv = THIRDS_POINT
    assert separate_conflict(xv, yv, figure_instance, pairs, FilterParams(0.3, 0.03)) == []
    low = separate_conflict(xv, yv, figure_instance, pairs, FilterParams(0.05, 0.03))
    assert [c.origin[0] for c in low if c.origin[2] == "enter"] == [frozenset({I, K, J})]


def test_conflict_silent_on_integral_points(figure_instance):
    pairs = build_conflict_set(figure_instance, min_time_matrix(figure_instance))
    xv, yv = point_of_routes(figure_instance, [[S, L, J, T]])
    assert separate_conflict(xv, yv, figure_instance, pairs) == []


def test_conflict_cut_closes_the_halves_point(figure_instance):
    # pin the fractional point into the user-cut relaxation: feasible before
    # the cut, infeasible after
    handle = build_flow_formulation(figure_instance)
    model = lp.LpModel()
    for lo, up, obj in zip(handle.model.lower, handle.model.upper, handle.model.objective):
        model.add_column(lo, up, obj)
    start, count = handle.row_blocks["floor"]
    soft = set(range(start, start + count))
    for ridx, row in enumerate(handle.model.rows):
        if ridx not in soft:
            model.add_row(row)
    xv, yv = HALVES_POINT
    for a, col in handle.x_index.items():
        model.lower[col] = model.upper[col] = xv[a]
    for v, col in handle.y_index.items():
        model.lower[col] = model.upper[col] = yv[v]
    assert lp.solve(model).status == "optimal"

    cut = Cut(
        family="conflict",
        x_terms=(((L, T), 1.0), ((J, T), 1.0)),
        y_terms=((I, -1.0), (J, -1.0)),
        relation=">=",
        rhs=0.0,
    )
    pinned = model.copy()
    pinned.add_row(cut.to_row(handle))
    assert lp.solve(pinned).status == "infeasible"


def test_conflict_guard_keeps_pair_inside_cut_side(rng):
    # whenever a cut comes back, its vertex set must contain the pair
    for _ in range(10):
        inst = make_random_instance(rng, tightness=(0.9, 1.3))
        pre, _ = preprocess(inst)
        pairs = build_conflict_set(inst, min_time_matrix(inst))
        handle = build_flow_formulation(pre)
        sol = lp.solve(handle.model)
        if sol.status != "optimal":
            continue
        xv, yv = handle.point_from_solution(sol)
        for cut in separate_conflict(xv, yv, pre, pairs, FilterParams(0.05, 0.03)):
            V, (a, b), side = cut.origin
            assert {a, b} <= V


# -- exact knapsack -----------------------------------------------------------


def test_knapsack_fixed_item_blocks_the_rest():
    assert knapsack_max([1, 1], [3, 3], 5, fixed_one={0}) == (1, frozenset({0}))


def test_knapsack_zero_capacity():
    assert knapsack_max([1, 2], [3, 1], 0) == (0, frozenset())


def test_knapsack_three_items():
    # all 8 subsets: {0,2} fits at weight 4 and beats every other at value 6
    value, chosen = knapsack_max([4, 3, 2], [3, 2, 1], 4)
    assert (value, chosen) == (6, frozenset({0, 2}))


def test_knapsack_infeasible_fixing_reported():
    assert knapsack_max([1, 1], [3, 3], 5, fixed_one={0, 1}) is None


def test_knapsack_matches_enumeration(rng):
    for _ in range(120):
        n = rng.randint(1, 9)
        profits = [rng.randint(0, 8) for _ in range(n)]
        weights = [rng.randint(1, 7) for _ in range(n)]
        cap = rng.randint(0, 18)
        fixed_one = frozenset(i for i in range(n) if rng.random() < 0.15)
        fixed_zero = frozenset(i for i in range(n) if i not in fixed_one and rng.random() < 0.15)
        best = None
        for bits in itertools.product((0, 1), repeat=n):
            if any(bits[i] for i in fixed_zero) or any(not bits[i] for i in fixed_one):
                continue
            if sum(w * b for w, b in zip(weights, bits)) > cap:
                continue
            val = sum(p * b for p, b in zip(profits, bits))
            best = val if best is None else max(best, val)
        got = knapsack_max(profits, weights, cap, fixed_zero, fixed_one)
        if best is None:
            assert got is None
        else:
            assert got is not None and got[0] == best
            assert sum(weights[i] for i in got[1]) <= cap
            assert sum(profits[i] for i in got[1]) == best


# -- lifted covers ------------------------------------------------------------


def test_cover_cut_spec_example():
    inst = make_reward_universe(3, [3, 3, 3])
    yv = {1: 0.9, 2: 0.9, 3: 0.0}
    cut = separate_lifted_cover(yv, inst, dual_bound=5.4)
    assert cut.relation == "<=" and cut.rhs == 1.0
    assert cut.y_terms == ((1, 1.0), (2, 1.0), (3, 1.0))
    assert cut.violation({}, yv) == pytest.approx(0.8)


def test_cover_cut_none_on_zero_point():
    inst = make_reward_universe(3, [3, 3, 3])
    assert separate_lifted_cover({1: 0.0, 2: 0.0, 3: 0.0}, inst, 5.0) is None


def test_cover_floor_guard():
    assert floor_bound(5.4) == 5
    assert floor_bound(5.0 - 1e-3) == 4
    assert floor_bound(5.0 - 1e-12) == 5  # numeric fuzz must not cut valid points
    assert floor_bound(5.0) == 5


def test_unlifted_cover_is_minimal(rng):
    for _ in range(60):
        n = rng.randint(2, 9)
        rewards = [rng.randint(1, 9) for _ in range(n)]
        inst = make_reward_universe(n, rewards)
        yv = {i + 1: rng.choice([0.0, 1.0, rng.random()]) for i in range(n)}
        tau = sum(rewards[i] * yv[i + 1] for i in range(n))
        cut = separate_lifted_cover(yv, inst, tau, lift=False)
        if cut is None:
            continue
        cover = cut.origin[0]
        weight = sum(inst.rewards[i] for i in cover)
        cap = floor_bound(tau)
        assert weight > cap
        for member in cover:
            assert weight - inst.rewards[member] <= cap  # minimality
        assert cut.rhs == len(cover) - 1
        assert all(c == 1.0 for _, c in cut.y_terms)


def test_cover_from_point_objective_has_fractional_member(rng):
    # with the bound taken from the point itself, a greedy cover over the
    # support always keeps a strictly fractional member
    for _ in range(200):
        n = rng.randint(2, 10)
        rewards = [rng.randint(1, 9) for _ in range(n)]
        y = [rng.choice([0.0, 1.0, round(rng.random(), 3)]) for _ in range(n)]
        tau = sum(r * v for r, v in zip(rewards, y))
        cap = floor_bound(tau)
        order = sorted((i for i in range(n) if y[i] > 0), key=lambda i: (-y[i], i))
        cover, total = [], 0
        for i in order:
            if total > cap:
                break
            cover.append(i)
            total += rewards[i]
        if total <= cap:
            continue
        assert any(0 < y[i] < 1 for i in cover)


def _phi_points(rewards, cap):
    n = len(rewards)
    for bits in itertools.product((0, 1), repeat=n):
        if sum(r * b for r, b in zip(rewards, bits)) <= cap:
            yield bits


def test_lifted_cover_validity_and_coefficient_contract(rng):
    produced = 0
    for _ in range(120):
        n = rng.randint(2, 10)
        rewards = [rng.randint(1, 12) for _ in range(n)]
        inst = make_reward_universe(n, rewards)
        yv = {i + 1: rng.choice([0.0, 1.0, round(rng.random(), 3)]) for i in range(n)}
        tau = sum(rewards[i] * yv[i + 1] for i in range(n)) + rng.uniform(0, 3)
        cut = separate_lifted_cover(yv, inst, tau)
        if cut is None:
            continue
        produced += 1
        cover, ones, pi_map, mu_map = cut.origin
        for c in pi_map.values():
            assert isinstance(c, int) and c >= 1
        for c in mu_map.values():
            assert isinstance(c, int) and c >= 0
        coeff = dict(cut.y_terms)
        cap = floor_bound(tau)
        for bits in _phi_points(rewards, cap):
            lhs = sum(coeff.get(i + 1, 0.0) * bits[i] for i in range(n))
            assert lhs <= cut.rhs + 1e-9, (rewards, cap, cut)
    assert produced >= 30


def test_lifting_strengthens_or_matches_plain_cover(rng):
    for _ in range(40):
        n = rng.randint(3, 8)
        rewards = [rng.randint(1, 9) for _ in range(n)]
        inst = make_reward_universe(n, rewards)
        yv = {i + 1: round(rng.random(), 3) for i in range(n)}
        tau = sum(rewards[i] * yv[i + 1] for i in range(n))
        lifted = separate_lifted_cover(yv, inst, tau)
        plain = separate_lifted_cover(yv, inst, tau, lift=False)
        if lifted is None or plain is None:
            continue
        assert lifted.violation({}, yv) >= plain.violation({}, yv) - 1e-9


# -- cut filtering ------------------------------------------------------------


def _toy_cut(arcs, rhs=0.0, y=()):
    return Cut("connectivity", tuple((a, 1.0) for a in arcs), tuple(y), ">=", rhs)


def test_filter_single_candidate_passes():
    xv, yv = {(0, 1): 0.0}, {1: 1.0}
    cut = _toy_cut([(0, 1)], y=((1, -1.0),))
    assert filter_cuts([cut], FilterParams(0.05, 0.03), xv, yv) == [cut]


def test_filter_drops_duplicates():
    xv, yv = {(0, 1): 0.0}, {1: 1.0}
    cut = _toy_cut([(0, 1)], y=((1, -1.0),))
    twin = _toy_cut([(0, 1)], y=((1, -1.0),))
    assert filter_cuts([cut, twin], FilterParams(0.05, 0.03), xv, yv) == [cut]


def test_filter_keeps_orthogonal_supports():
    xv = {(0, 1): 0.0, (2, 3): 0.0}
    yv = {1: 1.0, 3: 1.0}
    a = _toy_cut([(0, 1)], y=((1, -1.0),))
    b = _toy_cut([(2, 3)], y=((3, -1.0),))
    assert inner_product(a, b) == 0.0
    kept = filter_cuts([a, b], FilterParams(0.05, 0.03), xv, yv)
    assert kept == [a, b]


def test_filter_output_subset_and_contains_most_violated(rng):
    xv = {(i, j): rng.random() for i in range(5) for j in range(5) if i != j}
    yv = {i: rng.random() for i in range(5)}
    cands = []
    for _ in range(12):
        arcs = [a for a in xv if rng.random() < 0.3] or [(0, 1)]
        y = ((rng.randrange(5), -1.0),)
        cands.append(_toy_cut(arcs, y=y))
    kept = filter_cuts(cands, FilterParams(0.0, 0.03), xv, yv)
    assert set(map(id, kept)) <= set(map(id, cands))
    best = max(cands, key=lambda c: c.distance(xv, yv))
    assert best.distance(xv, yv) <= max(c.distance(xv, yv) for c in kept) + 1e-12


# -- emitted cuts never cut a feasible solution --------------------------------


def test_every_emitted_cut_valid_for_every_feasible_solution(rng):
    seen = {"connectivity": 0, "conflict": 0, "cover": 0}
    for _ in range(40):
        inst = make_random_instance(rng, n_max=8, tightness=(0.9, 1.7))
        pre, _ = preprocess(inst)
        pairs = build_conflict_set(inst, min_time_matrix(inst))
        handle = build_flow_formulation(pre)
        sol = lp.solve(handle.model)
        if sol.status != "optimal":
            continue
        xv, yv = handle.point_from_solution(sol)
        cuts = separate_connectivity(xv, yv, pre, FilterParams(0.01, 0.03))
        cuts += separate_conflict(xv, yv, pre, pairs, FilterParams(0.01, 0.03))
        cover = separate_lifted_cover(yv, pre, sol.objective)
        if cover is not None:
            cuts.append(cover)
        if not cuts:
            continue
        solutions = list(enumerate_feasible(pre))
        for cut in cuts:
            seen[cut.family] += 1
            for rs in solutions:
                px, py = point_of_routes(pre, rs.routes)
                assert cut.violation(px, py) <= 1e-6, (cut, rs)
    assert all(v > 0 for v in seen.values()), f"families not all exercised: {seen}"
