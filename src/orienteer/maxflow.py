"""Exact max-flow / min-cut on small capacitated digraphs.

The kernel is Edmonds & Karp's shortest augmenting path method ("Theoretical
improvements in algorithmic efficiency for network flow problems", JACM
1972): a breadth-first search from the source over arcs with residual
capacity above ``RESIDUAL_EPS`` finds a fewest-arc path to the sink, the path
is saturated by its bottleneck, and this repeats until the sink is out of
reach.  That last search is the min cut: the vertices it reached form the
returned source side.

The source side does not depend on which augmenting paths were taken.  For
any maximum flow, the vertices reachable from the source in the residual
graph form the smallest source side among all minimum cuts: every minimum
cut's forward arcs are saturated and its backward arcs empty, so no residual
arc leaves a minimum cut's source side and the reachable set lies inside it,
while the reachable set is itself the source side of a minimum cut.  Every
maximum flow therefore yields the same set, up to the ``RESIDUAL_EPS``
tolerance that both the augmenting searches and the final one apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# kept for the benchmark's environment report; there is no compiled kernel
KERNEL_COMPILED = False

# an arc with residual capacity at or below this counts as saturated
RESIDUAL_EPS = 1e-12


@dataclass
class FlowNetwork:
    """Capacitated digraph under construction; arcs keep insertion order."""

    node_count: int
    source: int
    sink: int
    tails: list = field(default_factory=list)
    heads: list = field(default_factory=list)
    capacities: list = field(default_factory=list)

    def __post_init__(self):
        n = self.node_count
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source equals sink")

    def add_arc(self, tail, head, capacity):
        if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
            raise ValueError(f"arc ({tail}, {head}) out of range")
        if not capacity >= 0 or math.isnan(capacity):
            raise ValueError(f"negative or NaN capacity on ({tail}, {head})")
        self.tails.append(tail)
        self.heads.append(head)
        self.capacities.append(float(capacity))


@dataclass(frozen=True)
class MinCutResult:
    """Max-flow value and the source-side vertex set of the smallest minimum cut."""

    flow_value: float
    source_side: frozenset


def max_flow_min_cut(net: FlowNetwork) -> MinCutResult:
    """Maximum source-sink flow value and the smallest minimum cut."""
    n, source, sink = net.node_count, net.source, net.sink
    # arc e < m is the network's arc e; arc e + m is its reverse
    m = len(net.tails)
    head = net.heads + net.tails
    tail = net.tails + net.heads
    res = net.capacities + [0.0] * m
    out = [[] for _ in range(n)]
    for e, u in enumerate(tail):
        out[u].append(e)

    flow = 0.0
    while True:
        # breadth-first search; into[v] is the arc that first reached v
        into = [-1] * n
        into[source] = -2
        reached = [source]
        for u in reached:
            for e in out[u]:
                v = head[e]
                if into[v] == -1 and res[e] > RESIDUAL_EPS:
                    into[v] = e
                    reached.append(v)
            if into[sink] != -1:
                break
        else:
            # the sink is out of reach: the search reached exactly the min cut
            return MinCutResult(flow_value=flow, source_side=frozenset(reached))
        path = []
        delta = math.inf
        v = sink
        while v != source:
            e = into[v]
            path.append(e)
            delta = min(delta, res[e])
            v = tail[e]
        for e in path:
            res[e] -= delta
            res[e + m if e < m else e - m] += delta
        flow += delta
