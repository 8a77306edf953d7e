import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orienteer.instance import (
    InstanceError,
    generate_stop,
    min_time_matrix,
    parse_instance,
    preprocess,
    serialize_instance,
)

from conftest import I, J, K, L, S, T, make_figure_instance

SET2_STYLE = "n 21\nm 2\ntmax 7.5\n" + "\n".join(
    f"{x}.0 {x % 5}.5 {max(0, x - 1) % 7}" for x in range(21)
)

THREE_VERTEX = "n 3\nm 1\ntmax 9\n0 0 0\n1 1 5\n2 0 0\n"


def test_parse_header_and_sizes():
    inst = parse_instance(SET2_STYLE)
    assert inst.vertex_count == 21
    assert inst.fleet_size == 2
    assert inst.time_limit == 7.5
    assert inst.origin == 0 and inst.destination == 20
    assert len(inst.arcs()) == 21 * 20


def test_parse_minimal_top_instance():
    inst = parse_instance(THREE_VERTEX)
    assert inst.mandatory == frozenset()
    assert inst.profitable == {1}
    assert inst.rewards == {1: 5}


def test_mandatory_spec_overrides_file():
    inst = parse_instance(THREE_VERTEX, mandatory_spec={1})
    assert inst.mandatory == {1}
    assert inst.profitable == frozenset()
    assert inst.rewards == {}


def test_parse_mandatory_line():
    inst = parse_instance(THREE_VERTEX.rstrip() + "\nM: 1\n")
    assert inst.mandatory == {1}


@pytest.mark.parametrize(
    "text",
    [
        "n x\nm 1\ntmax 5\n0 0 0\n1 1 0\n",
        "n 2\nm 1\n0 0 0\n1 1 0\n",
        "n 2\nm 1\ntmax 5\n0 zero 0\n1 1 0\n",
        "n 3\nm 1\ntmax 5\n0 0 0\n1 1 0\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(InstanceError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text, where",
    [
        ("n 3.5\nm 1\ntmax 9\n0 0 0\n1 1 5\n2 0 0\n", "^line 1:"),
        ("n 3\nm 2.5\ntmax 9\n0 0 0\n1 1 5\n2 0 0\n", "^line 2:"),
        ("n 3\nm 1\ntmax inf\n0 0 0\n1 1 5\n2 0 0\n", "^line 3:"),
        ("n 3\nm 1\ntmax 9\n0 nan 0\n1 1 5\n2 0 0\n", "^vertex line 0:"),
        ("n 3\nm 1\ntmax 9\n0 0 0\n1 1 inf\n2 0 0\n", "^vertex line 1:"),
    ],
)
def test_parse_rejects_fractional_counts_and_non_finite_values(text, where):
    with pytest.raises(InstanceError, match=where):
        parse_instance(text)


@pytest.mark.parametrize("bad", [{0}, {2}, {7}])
def test_parse_rejects_bad_mandatory(bad):
    with pytest.raises(InstanceError):
        parse_instance(THREE_VERTEX, mandatory_spec=bad)


def test_distances_full_precision():
    inst = parse_instance("n 3\nm 1\ntmax 5\n0 0 0\n1 1 3\n2 0 0\n")
    assert inst.travel_time[0, 1] == math.sqrt(2.0)
    assert inst.travel_time[0, 2] == 2.0
    np.testing.assert_allclose(inst.travel_time, inst.travel_time.T)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 2**32),
    m=st.integers(1, 4),
)
def test_parse_serialize_round_trip(n, seed, m):
    rng = random.Random(seed)
    lines = [f"n {n}", f"m {m}", f"tmax {rng.uniform(1, 50)!r}"]
    for i in range(n):
        score = 0 if i in (0, n - 1) else rng.randint(0, 30)
        lines.append(f"{rng.uniform(-5, 40)!r} {rng.uniform(-5, 40)!r} {score}")
    first = parse_instance("\n".join(lines))
    second = parse_instance(serialize_instance(first))
    assert second.vertex_count == first.vertex_count
    assert second.time_limit == first.time_limit
    assert second.rewards == first.rewards
    assert np.array_equal(second.coordinates, first.coordinates)
    assert np.array_equal(second.travel_time, first.travel_time)


# -- mandatory-set generation ---------------------------------------------------


def _base100():
    rng = random.Random(7)
    lines = ["n 102", "m 3", "tmax 80"]
    for i in range(102):
        score = 0 if i in (0, 101) else rng.randint(1, 20)
        lines.append(f"{rng.uniform(0, 30)} {rng.uniform(0, 30)} {score}")
    return parse_instance("\n".join(lines))


def test_generate_five_percent():
    base = _base100()
    out = generate_stop(base, 0.05, seed=99)
    assert len(out.mandatory) == 5  # floor(0.05 * 100)
    assert out.mandatory <= base.profitable
    assert set(out.rewards) == set(out.profitable)


def test_generate_extremes():
    base = _base100()
    assert generate_stop(base, 0.0, 1).mandatory == frozenset()
    full = generate_stop(base, 1.0, 1)
    assert full.profitable == frozenset()
    assert full.rewards == {}


def test_generate_pure_function():
    base = _base100()
    a = generate_stop(base, 0.25, seed=1234)
    b = generate_stop(base, 0.25, seed=1234)
    c = generate_stop(base, 0.25, seed=1235)
    assert a.mandatory == b.mandatory
    assert a.mandatory != c.mandatory


def test_generate_known_selection():
    # frozen splitmix64 draw so any implementation change is loud
    base = parse_instance(
        "n 7\nm 1\ntmax 9\n0 0 0\n1 0 1\n2 0 1\n3 0 1\n4 0 1\n5 0 1\n6 0 0\n"
    )
    out = generate_stop(base, 0.4, seed=42)
    assert out.mandatory == {4, 5}


def test_generate_rejects_bad_fraction():
    with pytest.raises(InstanceError):
        generate_stop(_base100(), 1.5, 0)


def test_generate_requires_top_instance():
    base = parse_instance(THREE_VERTEX, mandatory_spec={1})
    with pytest.raises(InstanceError):
        generate_stop(base, 0.5, 0)


# -- min-time matrices --------------------------------------------------------


def test_min_times_figure_values(figure_instance):
    M = min_time_matrix(figure_instance).values
    # independent check: enumerate all simple paths of the 7-arc digraph
    assert M[S, T] == 2.0  # via vertex 2
    assert M[J, I] == math.inf  # nothing re-enters vertex 1
    assert M[S, J] == 2.0
    assert M[I, T] == 4.0  # 1 -> 3 -> 4 -> 5
    for v in range(6):
        assert M[v, v] == 0.0


def test_min_times_triangle_closure(rng):
    from conftest import make_random_instance

    for _ in range(10):
        inst = make_random_instance(rng)
        vals = min_time_matrix(inst).values
        n = inst.vertex_count
        for k in range(n):
            outer = vals[:, k, None] + vals[None, k, :]
            assert np.all(vals <= outer + 1e-9)


# -- preprocessing ------------------------------------------------------------


def test_preprocess_removes_unroutable_vertices():
    # every route through vertices 1 or 3 lasts 5 > 4, so both must go; the
    # stated rule R[s,i] + R[i,t] <= T keeps vertices 2 and 4
    out, report = preprocess(make_figure_instance(time_limit=4.0))
    assert report.removed_vertices == {I, K}
    assert out.profitable == {L, J}
    assert report.infeasible_mandatory == frozenset()


def test_preprocess_tight_limit_removes_all():
    out, report = preprocess(make_figure_instance(time_limit=1.5))
    assert report.removed_vertices == {I, L, K, J}
    assert out.profitable == frozenset()


def test_preprocess_loose_limit_keeps_all():
    out, report = preprocess(make_figure_instance(time_limit=5.0))
    assert report.removed_vertices == frozenset()
    assert len(out.arcs()) == len(make_figure_instance().arcs())


def test_preprocess_flags_unroutable_mandatory():
    out, report = preprocess(make_figure_instance(time_limit=4.0, mandatory=(I,)))
    assert report.infeasible_mandatory == {I}
    assert I not in out.mandatory


def test_preprocess_isolated_vertex():
    # on a complete instance, isolating one profitable vertex drops exactly it
    inst = parse_instance("n 5\nm 1\ntmax 50\n0 0 0\n1 0 2\n2 0 2\n3 0 2\n4 0 0\n")
    mask = inst.arc_mask.copy()
    mask[:, 2] = False
    mask[2, :] = False
    from dataclasses import replace

    isolated = replace(inst, arc_mask=mask)
    out, report = preprocess(isolated)
    assert report.removed_vertices == {2}
    assert out.profitable == {1, 3}


def test_preprocess_arc_rule(rng):
    from conftest import make_random_instance

    for _ in range(10):
        inst = make_random_instance(rng)
        R = min_time_matrix(inst).values
        out, report = preprocess(inst)
        s, t = inst.origin, inst.destination
        for (i, j) in out.arcs():
            assert R[s, i] + inst.travel_time[i, j] + R[j, t] <= inst.time_limit + 1e-12
        assert not np.any(out.arc_mask[:, s])
        assert not np.any(out.arc_mask[t, :])
