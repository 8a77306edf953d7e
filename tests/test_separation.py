import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orienteer import lp, separation
from orienteer.formulation import build_flow_formulation
from orienteer.instance import StopInstance, min_time_matrix, parse_instance, preprocess
from orienteer.maxflow import FlowNetwork, max_flow_min_cut
from orienteer.oracle import enumerate_feasible
from orienteer.separation import (
    CLIQUE,
    CONFLICT,
    CONFLICT_FILTER,
    CONNECTIVITY,
    CONNECTIVITY_FILTER,
    SUPPORT_EPS,
    ConflictSet,
    Cut,
    FilterParams,
    build_conflict_set,
    filter_cuts,
    floor_bound,
    knapsack_max,
    reward_step,
    separate_clique,
    separate_conflict,
    separate_connectivity,
    separate_lifted_cover,
    _flow_paths,
    _support,
)
from orienteer.solver import SolveConfig, cutting_plane_phase

from conftest import (
    I,
    J,
    K,
    L,
    S,
    T,
    add_row,
    make_figure_instance,
    make_random_instance,
    make_reward_universe,
    plain_cover,
    point_of_routes,
    unshifted,
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
    pairs = build_conflict_set(figure_instance, min_time_matrix(figure_instance).values)
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
    assert build_conflict_set(loose, min_time_matrix(loose).values).pairs == ()


def test_conflict_pairs_empty_on_unit_complete_graph():
    inst = parse_instance("n 6\nm 2\ntmax 4\n" + "\n".join("0 0 1" for _ in range(6)))
    # all distances zero: nothing can conflict
    assert build_conflict_set(inst, min_time_matrix(inst).values).pairs == ()
    d = np.ones((6, 6))
    np.fill_diagonal(d, 0.0)
    unit = replace(inst, travel_time=d, coordinates=None)
    # any pair fits: 1 + 1 + 1 = 3 <= 4
    assert build_conflict_set(unit, min_time_matrix(unit).values).pairs == ()


def test_conflict_pairs_soundness_on_randoms(rng):
    for _ in range(15):
        inst = make_random_instance(rng, n_max=8, tightness=(0.9, 1.6))
        pairs = build_conflict_set(inst, min_time_matrix(inst).values)
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


def _crossing_scan(mask, inside, leaving):
    """Present arcs leaving (``leaving``) or entering ``inside``, scanned
    vertex by vertex of ``inside`` in ascending order, then by the other end."""
    n = len(mask)
    if leaving:
        return [(i, j) for i in sorted(inside) for j in range(n) if mask[i][j] and j not in inside]
    return [(i, j) for j in sorted(inside) for i in range(n) if mask[i][j] and i not in inside]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_crossing_arcs_match_per_vertex_scan(n, data):
    # the cut's terms, hence its sums and the filter's decisions, follow
    # this order, so it must hold exactly, for any arc set and vertex set
    bits = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    mask = np.array(bits, dtype=bool).reshape(n, n)
    np.fill_diagonal(mask, False)
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    inner = frozenset(range(1, n - 1))
    inst = StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=frozenset(),
        profitable=inner,
        rewards={i: 1 for i in inner},
        travel_time=d,
        arc_mask=mask,
        fleet_size=1,
        time_limit=1.0,
    )
    for _ in range(3):  # several sets against one instance
        inside = data.draw(st.frozensets(st.integers(0, n - 1)))
        assert separation._out_cut_arcs(inst, inside) == _crossing_scan(mask, inside, True)
        assert separation._in_cut_arcs(inst, inside) == _crossing_scan(mask, inside, False)


# -- conflict cuts ------------------------------------------------------------


def test_conflict_cut_on_halves_point(figure_instance):
    pairs = build_conflict_set(figure_instance, min_time_matrix(figure_instance).values)
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
    pairs = build_conflict_set(figure_instance, min_time_matrix(figure_instance).values)
    xv, yv = point_of_routes(figure_instance, [[S, L, J, T]])
    assert separate_conflict(xv, yv, figure_instance, pairs) == []


def test_conflict_cut_closes_the_halves_point(figure_instance):
    # pin the fractional point into the user-cut relaxation: feasible before
    # the cut, infeasible after
    handle = build_flow_formulation(figure_instance)
    model = unshifted(handle, floors=False)
    xv, yv = HALVES_POINT
    pins = np.column_stack((model.lower, model.upper))
    for a, col in handle.x_index.items():
        pins[col] = xv[a]
    for v, col in handle.y_index.items():
        pins[col] = yv[v]
    model = model.with_bounds(pins)
    assert lp.solve(model).status == "optimal"

    cut = Cut(
        family="conflict",
        x_terms=(((L, T), 1.0), ((J, T), 1.0)),
        y_terms=((I, -1.0), (J, -1.0)),
        relation=">=",
        rhs=0.0,
    )
    pinned = model.copy()
    add_row(pinned, cut.to_row(handle))
    assert lp.solve(pinned).status == "infeasible"


def test_conflict_guard_keeps_pair_inside_cut_side(rng):
    # whenever a cut comes back, its vertex set must contain the pair
    for _ in range(10):
        inst = make_random_instance(rng, tightness=(0.9, 1.3))
        pre, _ = preprocess(inst)
        pairs = build_conflict_set(inst, min_time_matrix(inst).values)
        handle = build_flow_formulation(pre)
        sol = lp.solve(handle.model)
        if sol.status != "optimal":
            continue
        xv, yv = handle.point_from_solution(sol)
        for cut in separate_conflict(xv, yv, pre, pairs, FilterParams(0.05, 0.03)):
            V, (a, b), side = cut.origin
            assert {a, b} <= V


# -- clique rows ----------------------------------------------------------------


def _clique_graph(cliques):
    """ConflictSet whose pairs join every two vertices of each clique."""
    pairs = {pair for members in cliques for pair in itertools.combinations(sorted(members), 2)}
    return ConflictSet(tuple(sorted(pairs)))


K4 = _clique_graph([(1, 2, 3, 4)])


def test_clique_row_on_k4_above_the_fleet():
    inst = make_reward_universe(4, [1, 1, 1, 1], fleet=3)
    cuts = separate_clique(dict.fromkeys(range(1, 5), 0.9), inst, K4)
    # every vertex seeds the same clique, and its row comes once
    assert cuts == [
        Cut(CLIQUE, (), tuple((k, 1.0) for k in (1, 2, 3, 4)), "<=", 3.0, (frozenset({1, 2, 3, 4}),))
    ]


def test_clique_no_larger_than_the_fleet_gives_no_row():
    inst = make_reward_universe(4, [1, 1, 1, 1], fleet=4)
    assert separate_clique(dict.fromkeys(range(1, 5), 0.9), inst, K4) == []


def test_clique_row_needs_a_sum_above_the_violation():
    inst = make_reward_universe(4, [1, 1, 1, 1], fleet=3)
    yv = {1: 1.0, 2: 1.0, 3: 1.0, 4: 1e-3}
    assert sum(yv.values()) == 3 + 1e-3
    assert separate_clique(yv, inst, K4) == []
    assert len(separate_clique({**yv, 4: 1.1e-3}, inst, K4)) == 1


def test_clique_vertex_set_is_emitted_once():
    # two triangles sharing vertex 3: the seeds 1, 2 and 3 grow {1, 2, 3},
    # the seeds 4 and 5 grow {3, 4, 5}
    inst = make_reward_universe(5, [1] * 5, fleet=2)
    yv = {1: 0.9, 2: 0.9, 3: 0.9, 4: 0.8, 5: 0.8}
    cuts = separate_clique(yv, inst, _clique_graph([(1, 2, 3), (3, 4, 5)]))
    assert [cut.origin for cut in cuts] == [(frozenset({1, 2, 3}),), (frozenset({3, 4, 5}),)]
    assert all(cut.violation({}, yv) > 0 for cut in cuts)


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


def test_floor_bound_on_reward_grid():
    assert floor_bound(14.9, 5) == 10
    assert floor_bound(15.0, 5) == 15
    assert floor_bound(4.99, 5) == 0
    assert floor_bound(306.8, 5) == 305
    assert floor_bound(30.0, 3) == 30 and floor_bound(29.99, 3) == 27
    # the cushion: a bound numerically just under a multiple keeps it, a
    # real shortfall does not
    assert floor_bound(15.0 - 1e-12, 5) == 15
    assert floor_bound(15.0 - 1e-3, 5) == 10
    for value in (-7.5, -1.0, 0.0, 3.0, 12.5, 99.999):
        assert floor_bound(value, 5) % 5 == 0
        assert value - 5 < floor_bound(value, 5) <= value + 1e-9


def test_floor_bound_unit_step_matches_integer_floor():
    rng = random.Random(5)
    values = [rng.uniform(-50, 500) for _ in range(500)]
    values += [k + d for k in range(-3, 40) for d in (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 0.5)]
    for value in values:
        assert floor_bound(value, 1) == floor_bound(value) == int(math.floor(value + 1e-9))


def test_reward_step_is_the_reward_gcd():
    assert reward_step({}) == 1
    assert reward_step({1: 0, 2: 0}) == 1
    assert reward_step({1: 10, 2: 15, 3: 40}) == 5
    assert reward_step({1: 6, 2: 9}) == 3
    assert reward_step({1: 7}) == 7
    assert reward_step({1: 0, 2: 6, 3: 9, 4: 15}) == 3
    assert reward_step({1: 4, 2: 7}) == 1


def test_unlifted_cover_is_minimal(rng):
    for _ in range(60):
        n = rng.randint(2, 9)
        rewards = [rng.randint(1, 9) for _ in range(n)]
        inst = make_reward_universe(n, rewards)
        yv = {i + 1: rng.choice([0.0, 1.0, rng.random()]) for i in range(n)}
        tau = sum(rewards[i] * yv[i + 1] for i in range(n))
        cut = separate_lifted_cover(yv, inst, tau)
        if cut is None:
            continue
        cover = cut.origin[0]
        weight = sum(inst.rewards[i] for i in cover)
        cap = floor_bound(tau)
        assert weight > cap
        for member in cover:
            assert weight - inst.rewards[member] <= cap  # minimality
        assert any(yv[i] < 1.0 - 1e-9 for i in cover)  # lifting's fractional seed


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
        if lifted is None:
            continue
        plain = plain_cover(lifted)
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


def inner_product(cut_a, cut_b):
    """Cosine of two cuts' coefficient vectors, as ``filter_cuts`` scores it."""
    return separation._cosine(
        separation._as_vector(cut_a), cut_a.norm(), separation._as_vector(cut_b), cut_b.norm()
    )


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
        pairs = build_conflict_set(inst, min_time_matrix(inst).values)
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


# -- shared-network, warm-started separators against from-scratch ones ------


def _reference_connectivity(xv, yv, inst, params=CONNECTIVITY_FILTER):
    """The connectivity scan with a new network for every source vertex."""
    n, t = inst.vertex_count, inst.destination
    support = [(a, v) for a, v in xv.items() if v > SUPPORT_EPS]
    cuts = []
    for v in sorted(inst.present - {t}):
        net = FlowNetwork(n, v, t)
        for (a, b), c in support:
            net.add_arc(a, b, c)
        res = max_flow_min_cut(net)
        side = res.source_side
        candidates = [w for w in side if w in inst.inner]
        if t in side or len(side) < 2 or not candidates:
            continue
        vstar = max(candidates, key=lambda w: (yv.get(w, 0.0), -w))
        if yv.get(vstar, 0.0) - res.flow_value <= params.abs_violation:
            continue
        x_terms = tuple(
            ((a, b), 1.0) for a in sorted(side) for b in range(n) if inst.arc_mask[a, b] and b not in side
        )
        cuts.append(Cut(CONNECTIVITY, x_terms, ((vstar, -1.0),), ">=", 0.0, (frozenset(side), vstar)))
    return cuts


def _pair_network(support, inst, i, j, side):
    """Auxiliary network of one pair and cut side: the support arcs (reversed
    on the leave side) and the pair's two arcs into an artificial sink."""
    n = inst.vertex_count
    net = FlowNetwork(n + 1, inst.origin if side == "enter" else inst.destination, n)
    for (a, b), c in support:
        net.add_arc(*((a, b) if side == "enter" else (b, a)), c)
    net.add_arc(i, n, float(inst.fleet_size))
    net.add_arc(j, n, float(inst.fleet_size))
    return net


def _reference_conflict(xv, yv, inst, conflicts, params=CONFLICT_FILTER):
    """Conflict separation with a new auxiliary network, holding the pair's
    two sink arcs alone, for every pair and side, each flow from zero."""
    n = inst.vertex_count
    support = [(a, v) for a, v in xv.items() if v > SUPPORT_EPS]
    cuts = []
    seen = set()
    for (i, j) in conflicts:
        need = yv.get(i, 0.0) + yv.get(j, 0.0)
        if need <= params.abs_violation:
            continue
        for side in ("enter", "leave"):
            res = max_flow_min_cut(_pair_network(support, inst, i, j, side))
            if res.flow_value >= need - params.abs_violation:
                continue
            V = frozenset(range(n)) - res.source_side
            if not {i, j} <= V or (side, V) in seen:
                continue
            seen.add((side, V))
            if side == "enter":
                arcs = [(a, b) for b in sorted(V) for a in range(n) if inst.arc_mask[a, b] and a not in V]
            else:
                arcs = [(a, b) for a in sorted(V) for b in range(n) if inst.arc_mask[a, b] and b not in V]
            x_terms = tuple((a, 1.0) for a in arcs)
            cuts.append(Cut(CONFLICT, x_terms, ((i, -1.0), (j, -1.0)), ">=", 0.0, (V, (i, j), side)))
    return cuts


def _support_draw(rng):
    """(instance, x point, y point, conflicting pairs): a random digraph
    with antiparallel arcs, some vertices removed, some present ones left
    without support, zero values among the support, and fractional,
    integral and missing visit values.  Values lie on a 1/64 grid, which
    keeps every flow exact, so a flow that ties a threshold compares the
    same however its augmentations were summed."""

    def value():
        return rng.randint(0, 64) / 64

    n = rng.randint(4, 11)
    inner = list(range(1, n - 1))
    removed = frozenset(v for v in inner if rng.random() < 0.15)
    kept = [v for v in inner if v not in removed]
    mand = frozenset(v for v in kept if rng.random() < 0.3)
    prof = frozenset(kept) - mand
    mask = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < 0.45:
                mask[a, b] = True
                if rng.random() < 0.4:
                    mask[b, a] = True  # antiparallel
    inst = StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=mand,
        profitable=prof,
        rewards={i: 1 for i in sorted(prof)},
        travel_time=1.0 - np.eye(n),
        arc_mask=mask,
        fleet_size=rng.randint(1, 3),
        time_limit=10.0,
        removed=removed,
    )
    isolated = {v for v in range(n) if rng.random() < 0.15}
    xv = {}
    for a, b in inst.arcs():
        if a in isolated or b in isolated:
            continue
        xv[(a, b)] = 0.0 if rng.random() < 0.25 else value()
    yv = {v: rng.choice((0.0, 1.0, value(), value())) for v in kept if rng.random() < 0.9}
    pairs = [(i, j) for i in sorted(inst.inner) for j in sorted(inst.inner) if i < j and rng.random() < 0.5]
    return inst, xv, yv, ConflictSet(tuple(pairs))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_shared_network_separators_match_from_scratch_ones(seed):
    inst, xv, yv, conflicts = _support_draw(random.Random(seed))
    for params in (FilterParams(0.0, 0.03), FilterParams(0.05, 0.03), CONFLICT_FILTER):
        got = separate_connectivity(xv, yv, inst, params)
        assert got == _reference_connectivity(xv, yv, inst, params)
        # Cut equality covers the origin: the side set, pair and cut side
        got = separate_conflict(xv, yv, inst, conflicts, params)
        assert got == _reference_conflict(xv, yv, inst, conflicts, params)


# -- the flow-decomposition screen of conflict separation ----------------------


def _float_draw(rng):
    """``_support_draw`` with every x and y value rescaled by its own random
    factor, so flows and thresholds sit off any grid."""
    inst, xv, yv, conflicts = _support_draw(rng)
    xv = {a: v * rng.uniform(0.5, 1.5) for a, v in xv.items()}
    yv = {v: y * rng.uniform(0.5, 1.5) for v, y in yv.items()}
    return inst, xv, yv, conflicts


def _no_paths(*args):
    return iter(())


FILTERS = (FilterParams(0.0, 0.03), FilterParams(0.05, 0.03), CONFLICT_FILTER)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_flow_paths_bound_every_pair_flow(seed):
    inst, xv, yv, _ = _float_draw(random.Random(seed))
    n, s, t = inst.vertex_count, inst.origin, inst.destination
    paths = list(_flow_paths(s, t, n, *_support(xv)))
    used = Counter()
    for path, d in paths:
        assert path[0] == s and path[-1] == t and len(set(path)) == len(path)
        assert d > SUPPORT_EPS
        for arc in zip(path, path[1:]):
            used[arc] += d
    for arc, value in used.items():
        assert value <= xv[arc] + 1e-12
    support = [(a, v) for a, v in xv.items() if v > SUPPORT_EPS]
    for i, j in itertools.combinations(sorted(inst.inner), 2):
        carried = sum(d for path, d in paths if i in path or j in path)
        for side in ("enter", "leave"):
            res = max_flow_min_cut(_pair_network(support, inst, i, j, side))
            # cut short at the pair and scaled down to at most the fleet,
            # the paths are a flow into the two sink arcs
            assert min(carried, inst.fleet_size) <= res.flow_value + 1e-12, (i, j, side)
            # and each crosses a cut that holds the pair on its sink side,
            # the only cuts the separator emits
            if not {i, j} & res.source_side:
                assert carried <= res.flow_value + 1e-12, (i, j, side)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_flow_path_screen_changes_no_conflict_cut(seed):
    inst, xv, yv, conflicts = _float_draw(random.Random(seed))
    for params in FILTERS:
        got = separate_conflict(xv, yv, inst, conflicts, params)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(separation, "_flow_paths", _no_paths)
            assert separate_conflict(xv, yv, inst, conflicts, params) == got


def _chao_style(rng, n, m, tmax):
    """Chao-layout instance: n vertices on a 20 x 20 square, ends in its
    middle band, scores on a 5-point grid."""
    lines = [f"n {n}", f"m {m}", f"tmax {tmax}"]
    for v in range(n):
        lo, hi = (7.0, 13.0) if v in (0, n - 1) else (0.0, 20.0)
        score = 0 if v in (0, n - 1) else rng.choice((5, 10, 15, 20))
        lines.append(f"{rng.uniform(lo, hi):.1f} {rng.uniform(lo, hi):.1f} {score}")
    return preprocess(parse_instance("\n".join(lines) + "\n"))[0]


def test_flow_path_screen_keeps_the_root_loop(monkeypatch):
    rng = random.Random(22)
    calls = Counter()

    def counted(screen):
        def run(*args, **kwargs):
            calls[screen] += 1
            return max_flow_min_cut(*args, **kwargs)

        return run

    conflict_cuts = 0
    for n, m, tmax in ((21, 2, 15), (21, 4, 20), (32, 3, 15), (32, 4, 20)):
        inst = _chao_style(rng, n, m, tmax)
        phases = []
        for screen in (True, False):
            monkeypatch.setattr(separation, "max_flow_min_cut", counted(screen))
            monkeypatch.setattr(separation, "_flow_paths", _flow_paths if screen else _no_paths)
            phases.append(cutting_plane_phase(inst, SolveConfig(time_limit_s=60)))
        with_screen, without = phases
        assert with_screen.cuts == without.cuts
        assert with_screen.upper_bound == without.upper_bound
        conflict_cuts += sum(c.family == CONFLICT for c in with_screen.cuts)
    # the draws separate conflict cuts, though not every draw does
    assert conflict_cuts > 0
    # the screen settles pairs: fewer max-flow calls for the same cuts
    assert calls[True] < calls[False]
