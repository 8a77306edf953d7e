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

That is what lets a caller reuse work.  A network keeps its residual
adjacency from its first solve on, so a run of flows on one set of arcs, with
the capacities, source or sink changed in between, builds it once.  And a
solve may start from the flow of an earlier one (``start``) instead of from
zero, as long as that flow still fits the capacities and has the same source
and sink: augmenting it to a maximum flow gives the same value and, by the
argument above, the same smallest source side as a solve from zero.  Raising
capacities keeps a flow feasible, which is how the conflict separator grows a
flow into one sink arc into a flow into two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, sub

# kept for the benchmark's environment report; there is no compiled kernel
KERNEL_COMPILED = False

# an arc with residual capacity at or below this counts as saturated
RESIDUAL_EPS = 1e-12


@dataclass
class FlowNetwork:
    """Capacitated digraph; arcs keep insertion order and, once added, stay.

    Capacities (``set_capacity``), the source and the sink may change
    between solves; the residual adjacency is built at the first solve and
    kept until an arc is added."""

    node_count: int
    source: int
    sink: int
    tails: list = field(default_factory=list)
    heads: list = field(default_factory=list)
    capacities: list = field(default_factory=list)
    # (arc count, heads, tails, out-arcs per vertex) of the residual graph:
    # arc e < m is the network's arc e, arc e + m its reverse
    _residual: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check_ends()

    def _check_ends(self):
        n = self.node_count
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source equals sink")

    def add_arc(self, tail, head, capacity):
        if not (0 <= tail < self.node_count and 0 <= head < self.node_count):
            raise ValueError(f"arc ({tail}, {head}) out of range")
        _check_capacity(capacity, tail, head)
        self.tails.append(tail)
        self.heads.append(head)
        self.capacities.append(float(capacity))

    def set_capacity(self, arc, capacity):
        _check_capacity(capacity, self.tails[arc], self.heads[arc])
        self.capacities[arc] = float(capacity)

    def _residual_graph(self):
        """``_residual``, built again only when the arc count changed."""
        m = len(self.tails)
        if self._residual is None or self._residual[0] != m:
            head = self.heads + self.tails
            tail = self.tails + self.heads
            out = [[] for _ in range(self.node_count)]
            for e, u in enumerate(tail):
                out[u].append(e)
            self._residual = (m, head, tail, out)
        return self._residual


def _check_capacity(capacity, tail, head):
    if not capacity >= 0:  # NaN fails the comparison too
        raise ValueError(f"negative or NaN capacity on ({tail}, {head})")


@dataclass(frozen=True)
class MinCutResult:
    """Max-flow value and the source-side vertex set of the smallest minimum
    cut.  ``state`` ((source, sink), capacities, residual capacities) is what
    a later solve on the same network needs to start from this flow."""

    flow_value: float
    source_side: frozenset
    state: tuple = field(default=None, repr=False, compare=False)


def max_flow_min_cut(net: FlowNetwork, start: MinCutResult | None = None) -> MinCutResult:
    """Maximum source-sink flow value and the smallest minimum cut.

    With ``start``, a result of an earlier solve on ``net`` with the same
    source and sink, augmenting begins from that maximum flow under the
    capacities then, the capacity changes since added to its residuals.  The
    flow must still fit: a capacity lowered below it raises ``ValueError``."""
    net._check_ends()
    n, source, sink = net.node_count, net.source, net.sink
    m, head, tail, out = net._residual_graph()
    caps = net.capacities
    if start is None:
        res = caps + [0.0] * m
        flow = 0.0
    else:
        ends, before, residual = start.state
        if ends != (source, sink) or len(before) != m:
            raise ValueError("start comes from another source, sink or network")
        # an unchanged arc adds exactly 0.0, so its residual stays bit for bit
        res = list(map(add, residual, map(sub, caps, before)))
        if res and min(res) < -RESIDUAL_EPS:
            raise ValueError("start's flow exceeds a lowered capacity")
        res += residual[m:]
        flow = start.flow_value

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
            return MinCutResult(flow, frozenset(reached), ((source, sink), list(caps), res))
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
