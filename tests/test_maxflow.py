import itertools
import random
from collections import deque

import pytest

from orienteer.maxflow import FlowNetwork, max_flow_min_cut

from conftest import I, J, K, L, S, T


def reference_max_flow(n, arcs, s, t):
    """Plain Edmonds-Karp on merged parallel arcs; the independent check."""
    cap = {}
    adj = [[] for _ in range(n)]
    for (u, v, c) in arcs:
        if (u, v) not in cap:
            adj[u].append(v)
            adj[v].append(u)
            cap[(u, v)] = 0.0
            cap.setdefault((v, u), 0.0)
        cap[(u, v)] += c
    flow = 0.0
    while True:
        parent = {s: None}
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 1e-12:
                    parent[v] = u
                    q.append(v)
        if t not in parent:
            return flow
        bottleneck = float("inf")
        v = t
        while parent[v] is not None:
            bottleneck = min(bottleneck, cap[(parent[v], v)])
            v = parent[v]
        v = t
        while parent[v] is not None:
            u = parent[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u
        flow += bottleneck


def test_single_arc():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 0.7)
    res = max_flow_min_cut(net)
    assert res.flow_value == pytest.approx(0.7)
    assert res.source_side == {0}


def test_disconnected_sink():
    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, 1.0)
    res = max_flow_min_cut(net)
    assert res.flow_value == 0.0
    assert res.source_side == {0, 1}


def test_conflict_auxiliary_network():
    # support of the two-path half/half point, artificial sink 6 behind
    # vertices 1 and 4; by hand the max flow is 1.0 and the cut is {origin}
    net = FlowNetwork(7, S, 6)
    for (u, v, c) in [
        (S, I, 0.5),
        (S, L, 0.5),
        (L, J, 0.5),
        (I, K, 0.5),
        (K, J, 0.5),
        (J, T, 1.0),
        (I, 6, 1.0),
        (J, 6, 1.0),
    ]:
        net.add_arc(u, v, c)
    res = max_flow_min_cut(net)
    assert res.flow_value == pytest.approx(1.0)
    assert res.source_side == {S}


def test_validation():
    with pytest.raises(ValueError):
        FlowNetwork(3, 1, 1)
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(ValueError):
        net.add_arc(0, 1, -0.5)
    with pytest.raises(ValueError):
        net.add_arc(0, 5, 1.0)


def _random_net(rng, n_max=12, capacity=lambda rng: round(rng.uniform(0, 3), 3)):
    """Random digraph with the awkward cases mixed in: parallel and
    antiparallel arcs, zero capacities, arcs into the source and out of the
    sink, self-loops, and (one time in eight) no arc into the sink at all."""
    n = rng.randint(2, n_max)
    s, t = rng.sample(range(n), 2)
    arcs = [(*rng.sample(range(n), 2), capacity(rng)) for _ in range(rng.randint(0, 2 * n))]
    extras = []
    for u, v, _ in arcs:
        roll = rng.random()
        if roll < 0.1:
            extras.append((u, v, capacity(rng)))  # parallel
        elif roll < 0.2:
            extras.append((v, u, capacity(rng)))  # antiparallel
        elif roll < 0.3:
            extras.append((u, v, 0.0))
    arcs += extras
    for _ in range(rng.randint(0, 2)):
        arcs.append((rng.randrange(n), s, capacity(rng)))
        arcs.append((t, rng.randrange(n), capacity(rng)))
    if rng.random() < 0.3:
        w = rng.randrange(n)
        arcs.append((w, w, capacity(rng)))
    if rng.random() < 0.125:
        arcs = [(u, v, c) for (u, v, c) in arcs if v != t]
    rng.shuffle(arcs)
    return n, s, t, arcs


def _solve(n, s, t, arcs):
    net = FlowNetwork(n, s, t)
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    return max_flow_min_cut(net)


def test_matches_reference_on_random_networks():
    rng = random.Random(1318)
    for _ in range(400):
        n, s, t, arcs = _random_net(rng)
        res = _solve(n, s, t, arcs)
        want = reference_max_flow(n, arcs, s, t)
        assert res.flow_value == pytest.approx(want, abs=1e-7)
        # the reported side is a genuine cut: capacity across equals the flow
        across = sum(c for (u, v, c) in arcs if u in res.source_side and v not in res.source_side)
        assert across == pytest.approx(want, abs=1e-7)
        assert s in res.source_side and t not in res.source_side


def test_smallest_minimum_cut_by_enumeration():
    # capacities are multiples of 1/4, so cut capacities and flows are exact
    # in floating point and ties between minimum cuts are exact too
    def quarter(rng):
        return rng.randint(0, 8) / 4

    rng = random.Random(2024)
    for _ in range(300):
        n, s, t, arcs = _random_net(rng, n_max=9, capacity=quarter)
        others = [v for v in range(n) if v not in (s, t)]
        cuts = {}
        for r in range(len(others) + 1):
            for chosen in itertools.combinations(others, r):
                side = frozenset(chosen) | {s}
                cuts[side] = sum(c for (u, v, c) in arcs if u in side and v not in side)
        least = min(cuts.values())
        minimum = [side for side, cap in cuts.items() if cap == least]
        smallest = frozenset.intersection(*minimum)
        assert smallest in minimum  # minimum cuts are closed under intersection
        res = _solve(n, s, t, arcs)
        assert res.flow_value == least
        assert res.source_side == smallest


def test_flow_conservation_detail():
    # rebuilt flows (capacity minus residual) must balance at inner vertices;
    # exercised indirectly: cut capacity equals flow for every random case in
    # test_matches_reference_on_random_networks, so here just a spot check
    net = FlowNetwork(4, 0, 3)
    for u, v, c in [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.5), (1, 3, 0.5), (2, 3, 2.0)]:
        net.add_arc(u, v, c)
    res = max_flow_min_cut(net)
    assert res.flow_value == pytest.approx(2.5)


def test_start_from_lower_capacities_gives_the_same_flow_and_side():
    # a maximum flow under lower capacities still fits, and grown from it the
    # flow reaches the same value and the same smallest minimum cut as one
    # grown from zero
    rng = random.Random(4242)
    for _ in range(400):
        n, s, t, arcs = _random_net(rng)
        net = FlowNetwork(n, s, t)
        for u, v, c in arcs:
            net.add_arc(u, v, rng.choice((0.0, c / 2, c, rng.uniform(0, c))))
        start = max_flow_min_cut(net)
        for e, (_, _, c) in enumerate(arcs):
            net.set_capacity(e, c)
        warm = max_flow_min_cut(net, start=start)
        cold = _solve(n, s, t, arcs)
        assert abs(warm.flow_value - cold.flow_value) <= 1e-12
        assert warm.source_side == cold.source_side


def test_start_must_fit_the_network():
    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, 1.0)
    net.add_arc(1, 2, 1.0)
    start = max_flow_min_cut(net)
    net.set_capacity(1, 0.5)  # below the start's flow of 1
    with pytest.raises(ValueError):
        max_flow_min_cut(net, start=start)
    net.set_capacity(1, 1.0)
    net.source, net.sink = 1, 2
    with pytest.raises(ValueError):
        max_flow_min_cut(net, start=start)
    net.add_arc(0, 2, 1.0)
    net.source = 0
    with pytest.raises(ValueError):
        max_flow_min_cut(net, start=start)
    with pytest.raises(ValueError):
        net.set_capacity(0, float("nan"))


def test_network_reused_across_sources_and_capacities():
    # the residual adjacency is built once; moving the source or changing a
    # capacity between solves gives what a new network would
    rng = random.Random(99)
    for _ in range(100):
        n, s, t, arcs = _random_net(rng)
        net = FlowNetwork(n, s, t)
        for u, v, c in arcs:
            net.add_arc(u, v, c)
        for source in (v for v in range(n) if v != t):
            net.source = source
            if arcs and rng.random() < 0.5:
                e = rng.randrange(len(arcs))
                u, v, _ = arcs[e]
                arcs[e] = (u, v, round(rng.uniform(0, 3), 3))
                net.set_capacity(e, arcs[e][2])
            assert max_flow_min_cut(net) == _solve(n, source, t, arcs)
        net.source = t
        with pytest.raises(ValueError):
            max_flow_min_cut(net)
