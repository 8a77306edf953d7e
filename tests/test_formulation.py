import hashlib
import math
import os
import random

import numpy as np
import pytest

from orienteer import lp
from orienteer.formulation import (
    FormulationError,
    build_arrival_formulation,
    build_flow_formulation,
)
from orienteer.instance import StopInstance, preprocess, read_instance

from conftest import (
    I,
    J,
    K,
    L,
    S,
    T,
    make_figure_instance,
    make_random_instance,
    row_violations,
    with_objective,
)


def map_solution(handle, sol, target):
    """Carry an optimal point of one formulation into the other kind over
    the same instance.

    Arc values translate by f_ij = T * x_ij - z_ij (both directions); x, y
    and the idle-vehicle slack transfer verbatim.  Returns a full column
    vector for ``target``'s model.
    """
    T = handle.instance.time_limit
    out = np.zeros(target.model.n_cols)
    for a, c in handle.x_index.items():
        out[target.x_index[a]] = sol.x[c]
    for i, c in handle.y_index.items():
        out[target.y_index[i]] = sol.x[c]
    for a, c in handle.flow_index.items():
        out[target.flow_index[a]] = T * sol.x[handle.x_index[a]] - sol.x[c]
    out[target.slack_index] = sol.x[handle.slack_index]
    return out


def point_violations(handle, point, tol=1e-6):
    """Bound and row violations of a full column vector; empty when feasible."""
    model = handle.model
    bad = [
        ("bound", j, float(point[j]))
        for j in range(model.n_cols)
        if point[j] < model.lower[j] - tol or point[j] > model.upper[j] + tol
    ]
    return bad + [("row", r, a) for r, a in row_violations(model, point, tol)]


def expected_row_counts(inst, kind):
    """Closed-form constraint counts implied by the vertex/arc sets; the
    arrival kind with its total-time row."""
    arcs = inst.arcs()
    n_inner = len(inst.inner)
    n_from_s = sum(1 for a in arcs if a[0] == inst.origin)
    counts = {
        "select": len(inst.mandatory) + 2,
        "visit_degree": n_inner,
        "fleet": 2,
        "balance": n_inner,
        "depart": n_from_s,
        "consume": n_inner,
    }
    if kind == "flow":
        counts["cap"] = len(arcs) - n_from_s
        counts["floor"] = len(arcs)
    else:
        counts["cap"] = len(arcs)
        counts["floor"] = len(arcs)
        counts["total_time"] = 1
    return counts


def test_row_counts_match_closed_form(figure_instance):
    for kind, build in (
        ("flow", build_flow_formulation),
        ("arrival", lambda i: build_arrival_formulation(i, include_total_time_row=True)),
    ):
        handle = build(figure_instance)
        want = expected_row_counts(figure_instance, kind)
        got = {name: cnt for name, (start, cnt) in handle.row_blocks.items()}
        assert got == want
        assert handle.model.n_rows == sum(want.values())


def test_objective_is_rewards_on_visits(figure_instance):
    handle = build_flow_formulation(figure_instance)
    obj = handle.model.objective
    for i, col in handle.y_index.items():
        assert obj[col] == figure_instance.rewards.get(i, 0)
    for col in handle.x_index.values():
        assert obj[col] == 0.0
    assert obj[handle.slack_index] == 0.0


def test_bounds(figure_instance):
    handle = build_flow_formulation(figure_instance)
    m = handle.model
    for col in list(handle.x_index.values()) + list(handle.y_index.values()):
        assert (m.lower[col], m.upper[col]) == (0.0, 1.0)
    for col in handle.flow_index.values():
        assert m.lower[col] == 0.0 and math.isinf(m.upper[col])
    assert (m.lower[handle.slack_index], m.upper[handle.slack_index]) == (
        0.0,
        float(figure_instance.fleet_size),
    )


def test_figure_relaxation_bounds_integer_optimum(figure_instance):
    # the best route set collects 2; the relaxation can only be above it
    sol = lp.solve(build_flow_formulation(figure_instance).model)
    assert sol.status == "optimal"
    assert sol.objective >= 2.0 - 1e-9


def test_empty_objective_solves_to_zero():
    inst = make_figure_instance(rewards={I: 0, L: 0, K: 0, J: 0})
    sol = lp.solve(build_flow_formulation(inst).model)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_build_refuses_unroutable_mandatory():
    with pytest.raises(FormulationError):
        build_flow_formulation(make_figure_instance(mandatory=(I,)))


def test_build_requires_trimmed_endpoint_arcs(rng):
    inst = make_random_instance(rng)  # complete: has arcs into the origin
    with pytest.raises(FormulationError):
        build_flow_formulation(inst)


def _both_bounds(inst):
    pre, _ = preprocess(inst)
    a = lp.solve(build_arrival_formulation(pre).model)
    f = lp.solve(build_flow_formulation(pre).model)
    return a, f


def test_relaxations_equivalent_on_randoms(rng):
    checked = 0
    for _ in range(25):
        inst = make_random_instance(rng)
        a, f = _both_bounds(inst)
        assert a.status == f.status
        if a.status == "optimal":
            checked += 1
            scale = max(1.0, abs(a.objective))
            assert abs(a.objective - f.objective) <= 1e-6 * scale
    assert checked >= 15


def test_total_time_row_is_redundant(rng):
    for _ in range(10):
        inst = make_random_instance(rng)
        pre, _ = preprocess(inst)
        plain = lp.solve(build_arrival_formulation(pre).model)
        padded = lp.solve(build_arrival_formulation(pre, include_total_time_row=True).model)
        if plain.status == "optimal":
            assert padded.objective == pytest.approx(plain.objective, abs=1e-6, rel=1e-6)


def test_travel_time_capped_by_fleet_budget(rng):
    # maximize total travel time over the flow relaxation: never above m*T
    for _ in range(10):
        inst = make_random_instance(rng)
        pre, _ = preprocess(inst)
        handle = build_flow_formulation(pre)
        model = with_objective(
            handle.model, [(col, float(pre.travel_time[a])) for a, col in handle.x_index.items()]
        )
        sol = lp.solve(model)
        if sol.status == "optimal":
            assert sol.objective <= pre.fleet_size * pre.time_limit + 1e-6


def test_map_solution_both_ways(figure_instance):
    ha = build_arrival_formulation(figure_instance)
    hf = build_flow_formulation(figure_instance)
    sa = lp.solve(ha.model)
    mapped = map_solution(ha, sa, hf)
    assert point_violations(hf, mapped, tol=1e-6) == []
    sf = lp.solve(hf.model)
    back = map_solution(hf, sf, ha)
    assert point_violations(ha, back, tol=1e-6) == []


def test_map_solution_zero_arc_forces_zero_flow(figure_instance):
    ha = build_arrival_formulation(figure_instance)
    hf = build_flow_formulation(figure_instance)
    sa = lp.solve(ha.model)
    mapped = map_solution(ha, sa, hf)
    for a, col in ha.x_index.items():
        if abs(sa.x[col]) <= 1e-9:
            assert abs(mapped[hf.flow_index[a]]) <= 1e-6


def test_depart_flow_value(figure_instance):
    # an origin arc set to one must carry exactly the limit minus its length
    hf = build_flow_formulation(figure_instance)
    bounds = np.column_stack((hf.model.lower, hf.model.upper))
    x_sl = hf.x_index[(S, L)]
    bounds[x_sl, 0] = 1.0
    sol = lp.solve(hf.model.with_bounds(bounds))
    assert sol.status == "optimal"
    f_sl = sol.x[hf.flow_index[(S, L)]]
    want = figure_instance.time_limit - figure_instance.travel_time[S, L]
    assert f_sl == pytest.approx(want, abs=1e-7)


def test_random_vertices_map_between_formulations(rng):
    # random objectives visit many vertices of the arrival polytope; each maps
    # into the flow polytope and back within tolerance
    done = 0
    for trial in range(40):
        if done >= 20:
            break
        inst = make_random_instance(rng)
        pre, _ = preprocess(inst)
        ha = build_arrival_formulation(pre)
        hf = build_flow_formulation(pre)
        objective = [
            (col, rng.uniform(-1, 2)) for col in list(ha.x_index.values()) + list(ha.y_index.values())
        ]
        model = with_objective(ha.model, objective)
        sol = lp.solve(model)
        if sol.status != "optimal":
            continue
        done += 1
        mapped = map_solution(ha, sol, hf)
        assert point_violations(hf, mapped, tol=1e-6) == []
    assert done >= 20


DATA = os.path.join(os.path.dirname(__file__), "data")

GOLDEN_BUILDS = {
    "flow": build_flow_formulation,
    "arrival": build_arrival_formulation,
    "arrival_total_time": lambda i: build_arrival_formulation(i, include_total_time_row=True),
}

# sha256 of the export_lp_text output for the preprocessed
# data/unclassified_node_lp.txt instance, by build
UNCLASSIFIED_SHA256 = {
    "flow": "3f19f576e5849445a5c788da0dc62695b52dc8d3013f15327404da3ca724f9fc",
    "arrival": "f42adb435d336885f7f429db0725622201ef0726effbb41bd4b022903c8068bd",
    "arrival_total_time": "e962270ce1495713ee3c500aa0a3c68c552a704e68115ec8e85649dcc6cf027d",
}


@pytest.mark.parametrize("build", sorted(GOLDEN_BUILDS))
def test_lp_text_matches_golden(build):
    # every column, row, coefficient and bound of the three models, pinned:
    # data/figure_<build>.lp for the preprocessed figure instance, a digest
    # for a 21-vertex one
    pre, _ = preprocess(make_figure_instance())
    with open(os.path.join(DATA, f"figure_{build}.lp")) as fh:
        assert lp.export_lp_text(GOLDEN_BUILDS[build](pre).model) == fh.read()
    pre, _ = preprocess(read_instance(os.path.join(DATA, "unclassified_node_lp.txt")))
    text = lp.export_lp_text(GOLDEN_BUILDS[build](pre).model)
    assert hashlib.sha256(text.encode()).hexdigest() == UNCLASSIFIED_SHA256[build]


# sha256 of the export_lp_text output by build for the preprocessed
# make_random_instance(random.Random(seed), n_max=14, tightness=(1.8, 3.5)),
# by seed: 5 to 14 vertices, 7 to 88 arcs, some with mandatory vertices
RANDOM_SHA256 = {
    0: {
        "flow": "f42f65b02f813ddfe828bdf8eeb761587323fbcdb2eaee96c5e2cc962b3cf244",
        "arrival": "f95ba3e6b0f8d3f43115cc19b93a00c26eb5a11534c39852e454e4b7e0d28727",
        "arrival_total_time": "bc0301af4842f2bcd7c2d7388c0a8ebdc41f1b660b08016a27b70959443261c6",
    },
    1: {
        "flow": "e6c0e3700133d6d228e86b462358d13ad2c3ef2b7af3e6fcff2d9a7f0bc67105",
        "arrival": "aebb3c530835014108d9f5e5dd9e22888730bd70cbfd74b0ae8d9687eac5fb0c",
        "arrival_total_time": "bb98c2890d2892325d4a8cc04b94dbf2ca5b5c4e5bc2a0e2da76989ab928cb52",
    },
    2: {
        "flow": "ce23fdc35f4313d28975515d7dcd6622a6909603556b227b1d55650298efec92",
        "arrival": "5afe2f74f8179e2a1d12aa08e1676be5e4477e8c4c671d509bbfbdb5aef63177",
        "arrival_total_time": "8dcd3d379c1b429e3343e7f5e9b70c46bc7ba6725350ab772be6e8006e70164c",
    },
    3: {
        "flow": "b4cc5c20381b76565719f5446263a02812493cbc6175417490fad2848e193ec4",
        "arrival": "9294885770b78bc28bbecef8ec46ef1917e165e64545abcdd7164a218d034205",
        "arrival_total_time": "1317e56c3c698c1f04bcf1947daa6c16c7e6209169b26b122973b0eaee64357b",
    },
    4: {
        "flow": "036b950e9faf205e806d054945dfe42f1d730bea0ac63993cbd61493bac5d9e4",
        "arrival": "657d152c6bffe19bf29c9a094e1ee36a83c97c8eb01a00c3fd02399a53cda7cf",
        "arrival_total_time": "6d001cb139bd6d42c956cffb029dd47737f6b9bb23dd4be5aa6d0e0f59b5b1ea",
    },
    5: {
        "flow": "36216c01ee051b78220d3189ba692846d8db077a8f44267522b5793d32e5b17a",
        "arrival": "d9f9a39f5df93709143373b651f5ab83c4e61cebe14155eb5329fb5e19a79cf0",
        "arrival_total_time": "efc2338ab331900834d68a1c0d49f4cfdcbfcbbb23250426f29ca3cf95481233",
    },
    6: {
        "flow": "c84586598d2d0a583df8f3e962f119ab1e7c5c5e4c0a3cd6c71db0d05505cec9",
        "arrival": "9f6c06be6755085bb47d50e477d09ed74877e84db2434f9ebab5ffbc5fc370a0",
        "arrival_total_time": "a411cd2a56e21766aabd7326a172fc3261920c417ab3f0e2f8bad668074ca15e",
    },
    7: {
        "flow": "a68fbba4145e6de89067dd8959a3be4c93f3ae4332342d4b0bb8006e5813f1ee",
        "arrival": "20e5f56135520860e7e620a8761e273e2d6f28b6e03aaa0e9741c6bbb024b5dd",
        "arrival_total_time": "160faa45e481fdfff4f27ef2010befac60304df11a126779d9cda0e5464aec38",
    },
    8: {
        "flow": "44e4e5d5631d70d7dd358862478c30068d9c4252e944bd38b9e5d871dc1ac704",
        "arrival": "0314f25b41791b44b34f261cf15ad87a5347270cfd10cda354ebe2a34098a048",
        "arrival_total_time": "ef1396f97b222540a0a7d9893a5bb6b1f942f7749fe481e686b3f2132af1cae6",
    },
    9: {
        "flow": "902a87c393e8a04c90fcf22c08278b6a16b7b8d73572416c4fb57baa2deea304",
        "arrival": "a248db21650c0a687200adb082bf5c1936562981588db5f66c970c05f88d4fd7",
        "arrival_total_time": "d3e573683f7b573499211406062aa43ccc92d66fa93c7cbaa71b6a1165fa0ce5",
    },
}


@pytest.mark.parametrize("seed", sorted(RANDOM_SHA256))
def test_lp_text_of_random_builds_pinned(seed):
    # every row block of the three builds, on instances with partial arc
    # sets, mandatory vertices and rewards of zero
    pre, _ = preprocess(make_random_instance(random.Random(seed), n_max=14, tightness=(1.8, 3.5)))
    for build, want in RANDOM_SHA256[seed].items():
        text = lp.export_lp_text(GOLDEN_BUILDS[build](pre).model)
        assert hashlib.sha256(text.encode()).hexdigest() == want, build


def test_build_rejects_a_non_finite_coefficient():
    # vertex 2 is entered but cannot reach the destination, and the model is
    # built without preprocessing: its arc's floor coefficient R_2t is +inf,
    # which the row store refuses as make_row would
    n = 4
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    mask = np.zeros((n, n), dtype=bool)
    for a, b in ((0, 1), (1, 3), (0, 2)):
        mask[a, b] = True
    inst = StopInstance(
        vertex_count=n,
        origin=0,
        destination=3,
        mandatory=frozenset(),
        profitable=frozenset({1, 2}),
        rewards={1: 1, 2: 1},
        travel_time=d,
        arc_mask=mask,
        fleet_size=1,
        time_limit=5.0,
    )
    with pytest.raises(lp.LpError, match="non-finite row coefficient"):
        build_flow_formulation(inst)
