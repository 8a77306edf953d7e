import hashlib
import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    arc_values,
    make_figure_instance,
    make_random_instance,
    row_violations,
    unshifted,
    with_objective,
)


def map_solution(handle, sol, target):
    """Carry an optimal point of one formulation into the other kind over
    the same instance.

    Arc values translate by f_ij = T * x_ij - z_ij (both directions), each
    recovered from the source's shifted value column and stored shifted by
    the target's floor coefficient; x, y and the idle-vehicle slack transfer
    verbatim.  Returns a full column vector for ``target``'s model.
    """
    T = handle.instance.time_limit
    out = np.zeros(target.model.n_cols)
    for a, c in handle.x_index.items():
        out[target.x_index[a]] = sol.x[c]
    for i, c in handle.y_index.items():
        out[target.y_index[i]] = sol.x[c]
    x = sol.x[np.fromiter(handle.x_index.values(), dtype=np.int64)]
    values = T * x - arc_values(handle, sol.x)
    out[np.fromiter(target.flow_index.values(), dtype=np.int64)] = values - target.floor * x
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
    else:
        counts["cap"] = len(arcs)
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
    f_sl = arc_values(hf, sol.x)[list(hf.flow_index).index((S, L))]
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
    "flow": "718c6c492f3c11950f943aefd92097cf24114a8bd70b88c7baf348d5d44b9a05",
    "arrival": "6bfed0ea21388c31bd2642fa4a3d6d6b084262ea61b0c19d467232c1ae99c700",
    "arrival_total_time": "c78a212b9085b740808fa59f04660c54819be9d01a4fb0e9dc2bb803020d0911",
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


@pytest.mark.parametrize("build", sorted(GOLDEN_BUILDS))
def test_unshifted_reference_is_the_classic_model(build):
    # undoing the shift gives back, coefficient for coefficient, the model
    # that wrote each floor as a row of its own over unshifted value columns
    # (data/figure_<build>_unshifted.lp)
    pre, _ = preprocess(make_figure_instance())
    with open(os.path.join(DATA, f"figure_{build}_unshifted.lp")) as fh:
        assert lp.export_lp_text(unshifted(GOLDEN_BUILDS[build](pre))) == fh.read()


def _same_lp(model, reference):
    got, want = lp.solve(model), lp.solve(reference)
    assert got.status == want.status
    if want.status == "optimal":
        assert got.objective == pytest.approx(want.objective, rel=1e-6, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), kind=st.sampled_from(["arrival", "flow"]))
def test_shifted_model_solves_as_the_unshifted_reference(seed, kind):
    # the shifted value columns leave the polytope as it is: at the root and
    # under random fixings of the binary columns, each kind solves to the
    # status and objective of its reference with explicit floor rows, and
    # the kind built with every floor coefficient at 0 to those of the
    # reference without them
    rng = random.Random(seed)
    pre, _ = preprocess(make_random_instance(rng, n_max=12, tightness=(1.0, 2.5)))
    build = build_flow_formulation if kind == "flow" else build_arrival_formulation
    try:
        handle = build(pre)
    except FormulationError:  # a mandatory vertex no route reaches
        return
    bare = build(pre, floors=False)
    pairs = [(handle.model, unshifted(handle)), (bare.model, unshifted(handle, floors=False))]
    binary = list(handle.x_index.values()) + list(handle.y_index.values())
    for trial in range(4):
        boxes = np.column_stack((handle.model.lower, handle.model.upper))
        for col in rng.sample(binary, rng.randint(1, max(1, len(binary) // 3))) if trial else ():
            boxes[col] = rng.choice((0.0, 1.0))
        for model, reference in pairs:
            _same_lp(model.with_bounds(boxes), reference.with_bounds(boxes))


# sha256 of the export_lp_text output by build for the preprocessed
# make_random_instance(random.Random(seed), n_max=14, tightness=(1.8, 3.5)),
# by seed: 5 to 14 vertices, 7 to 88 arcs, some with mandatory vertices
RANDOM_SHA256 = {
    0: {
        "flow": "4905bd7f2be832c7bb093016395b24dac361e70b82095bbb792a6f59856c9e0c",
        "arrival": "2f436dde15d1858d743ba2410151efe0a1a3df4e753eeb3c5c5d85e07337d6c3",
        "arrival_total_time": "623ab69b45676a2d119e54a504a299d0874769cf7834e6d3bb9420316aa10dae",
    },
    1: {
        "flow": "b9f0e67738dd734e2ba1b1ca8e31e4e04f5fe818fdbc42c82b4178af6067b2ce",
        "arrival": "efae6a7da2c2727a5e02a10c4a02b4228b5102fda12effb12368cbf9002f480d",
        "arrival_total_time": "5b77fb1a23298a7b831f04a80494eba41d13ffa1aa3cc9ef0fcef6c9bc5a8956",
    },
    2: {
        "flow": "f6d8b45ebb1890c4e735c5819b1d89d9780c6988e29c4e6cad25ade512ded3aa",
        "arrival": "81e158ba25ac59f3c43a57322e4491455304f6ae73ac775f25e035227e005b4d",
        "arrival_total_time": "29c75c645949f007b1ae1e780a80f484235b0b75a3f00090d390fe927c24240d",
    },
    3: {
        "flow": "02f898b5e5e5642b4a63298243beee0a4fd3c9697a0ddb6124e27360f174a3aa",
        "arrival": "c92b04fb339741a91adbf846a9b0ce4b6fae05e3802cb2d2e3e43a1d8e36cd6a",
        "arrival_total_time": "263883d07124f08a6b8353ea638faf622aab41a2ce5b4fef02ae61dcb94f0781",
    },
    4: {
        "flow": "a56776549986157e3edca908624cd38056adc4c398afaba30c64b97f170ef791",
        "arrival": "3c2d0b13ee4564e3ed3bab5513c013be332d681e936af072be3d23c07eaa7a3e",
        "arrival_total_time": "66ce951320682525309466c3809646b6d58b0bcf94f28eaa73ceca18854be1c9",
    },
    5: {
        "flow": "f6046e276b36330f2bc155d6fac62a01eac95784d66b60af3f3564ff3c8c7018",
        "arrival": "de4f49737e06000992bff456ad3dd69552f129cb10dad0990fc3ce17080e4e60",
        "arrival_total_time": "b52db93d7bd9aa7a7a4640dd187d3604a3f446fd61ad4208c265d24e34422102",
    },
    6: {
        "flow": "d429fd48a6c3d9e9efb729a3e8aabac3a97b4050d3342791677e999d3d933a19",
        "arrival": "4150dbaad4929f5c04cd4221f6ee5fe8f582be665b71da7225126881bc805e51",
        "arrival_total_time": "51a3add732a9bf5be8c9e44956c47920cb29d12fdce46b9d0eaaed633ba7c540",
    },
    7: {
        "flow": "c078e0332b2f293efc9330a7eece245c0d59b8a705beea29d3ec244cdb2aed50",
        "arrival": "37578f88ef1bedf2e81e2c244913b200804d35c4c81c4b6e8c9101abbe84a359",
        "arrival_total_time": "ea12e512ebb0dfcd3b60970b5951d7f575987b9d28c929a2eca0275acdb8cc28",
    },
    8: {
        "flow": "55a9e2d7565840d179c6ec8880ce52d28b64b665207bbdb2798f5e43a91bd9c7",
        "arrival": "3942f6af5f4f35b83b80aec77a6d45d92e6f81ce01d0934b40a31c49eff7a95d",
        "arrival_total_time": "cf801484f749d28d0140166d83dec1710c77fe10131139d16a79b815dadf750c",
    },
    9: {
        "flow": "07b920f551ebcbd4315303f00068c3c47789efaca700e090887ca521470536b3",
        "arrival": "d983c4fc2e9267e7b2e2bcf1b18f7e08121a5ac18e92f2069ee86ee4ecc44af8",
        "arrival_total_time": "c10b27b8e3145d321bfd996cb30e90f9671ba4af8cafa5a1cc4e416070f0a072",
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
    # so the x coefficients that the arc's shifted value column brings into
    # its depart and consume rows are infinite, which the row store refuses
    # as make_row would
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
