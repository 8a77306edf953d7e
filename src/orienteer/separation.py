"""Cut families and their separation procedures.

Four families of valid inequalities strengthen the formulations, all
expressed on the x (arc) and y (visit) variables so they apply to either
formulation kind:

* connectivity cuts:  sum of x over arcs leaving V  >=  y_k   (k in V, t not in V)
* conflict cuts:      sum of x over arcs entering/leaving V  >=  y_i + y_j
                      for a pair {i, j} no single route can serve, {i,j} in V
* lifted covers:      integer-lifted cover inequalities on the reward
                      knapsack  sum p_i y_i <= floor(bound)
* clique rows:        sum of y over K  <=  m  for a clique K of the conflict
                      graph with more than m (the fleet size) vertices

The first three are the paper's.  Connectivity and conflict separation solve
max-flow problems on the support graph of the fractional point; cover
separation runs greedy cover building, minimalization, and exact sequential
up/down lifting via knapsack DP; clique separation is a greedy pass over the
conflict graph, with no max-flow.  A flow decomposition of the support (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, 3.5) settles most conflict pairs first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp import make_row
from .maxflow import FlowNetwork, max_flow_min_cut

SUPPORT_EPS = 1e-9
# a conflict pair's path bound must clear its threshold by this to skip max-flow
SCREEN_MARGIN = 1e-9

CONNECTIVITY, CONFLICT, COVER, CLIQUE = "connectivity", "conflict", "cover", "clique"
# every cut family, in the order reports, flags and tables list them
FAMILIES = (CONNECTIVITY, CONFLICT, COVER, CLIQUE)


@dataclass(frozen=True)
class FilterParams:
    abs_violation: float
    max_inner_product: float


# per-family filter thresholds of the root loop, and the violation a lifted
# cover needs to be kept
CONNECTIVITY_FILTER = FilterParams(0.05, 0.03)
CONFLICT_FILTER = FilterParams(0.3, 0.03)
COVER_VIOLATION = 1e-5
# visit values above CLIQUE_SUPPORT seed and join cliques; a clique row is
# kept when its visit sum exceeds the fleet size by more than CLIQUE_VIOLATION
CLIQUE_SUPPORT = 1e-6
CLIQUE_VIOLATION = 1e-3


@dataclass(frozen=True)
class ConflictSet:
    pairs: tuple  # ordered (i, j) tuples, i < j

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class Cut:
    """One linear inequality over x and y columns.

    x_terms: ((i, j), coeff) pairs;  y_terms: (vertex, coeff) pairs.
    ``origin`` records how the cut was found (the separating vertex set, the
    conflicting pair and cut side, or the cover/lifting data).
    """

    family: str
    x_terms: tuple
    y_terms: tuple
    relation: str  # '>=' or '<='
    rhs: float
    origin: tuple = ()

    def activity(self, xv, yv):
        a = sum(c * xv.get(arc, 0.0) for arc, c in self.x_terms)
        a += sum(c * yv.get(i, 0.0) for i, c in self.y_terms)
        return a

    def violation(self, xv, yv):
        """Positive when the point violates the cut."""
        a = self.activity(xv, yv)
        return self.rhs - a if self.relation == ">=" else a - self.rhs

    def norm(self):
        sq = sum(c * c for _, c in self.x_terms) + sum(c * c for _, c in self.y_terms)
        return math.sqrt(sq)

    def distance(self, xv, yv):
        """Euclidean distance from the point to the cut hyperplane."""
        return self.violation(xv, yv) / self.norm()

    def to_row(self, handle):
        coeffs = [(handle.x_index[a], c) for a, c in self.x_terms]
        coeffs += [(handle.y_index[i], c) for i, c in self.y_terms]
        return make_row(coeffs, self.relation, self.rhs)


# -- conflict pairs ----------------------------------------------------------


def build_conflict_set(inst, R):
    """Vertex pairs provably never served by one route.

    A pair (i, j) conflicts when the cheapest route through i then j and the
    cheapest through j then i both exceed the limit; sums of shortest-path
    times underestimate elementary routes, so this is a safe subset of the
    true conflict relation.  Only routable vertices (``inst.inner``) are
    paired, so vertices preprocessing removed never appear.  ``R`` is the
    min-time array, ``min_time_matrix(inst).values``.
    """
    T = inst.time_limit
    s, t = inst.origin, inst.destination
    pairs = []
    inner = sorted(inst.inner)
    for a_pos, i in enumerate(inner):
        for j in inner[a_pos + 1 :]:
            if (
                R[s, i] + R[i, j] + R[j, t] > T
                and R[s, j] + R[j, i] + R[i, t] > T
            ):
                pairs.append((i, j))
    return ConflictSet(tuple(pairs))


# -- support graph -----------------------------------------------------------


def _support(xv):
    """(tails, heads, capacities) of the arcs whose x exceeds ``SUPPORT_EPS``."""
    tails, heads, caps = [], [], []
    for (i, j), v in xv.items():
        if v > SUPPORT_EPS:
            tails.append(i)
            heads.append(j)
            caps.append(v)
    return tails, heads, caps


def _flow_paths(source, sink, node_count, tails, heads, caps):
    """Yield (vertices, value) of simple source-sink paths over the arcs with
    more than ``SUPPORT_EPS`` left, each taking its bottleneck off its arcs,
    until the sink is out of reach: a flow decomposition of the capacities."""
    out = [[] for _ in range(node_count)]
    for e, u in enumerate(tails):
        out[u].append(e)
    left = list(caps)
    while True:
        into, stack = {source: None}, [source]
        while stack and sink not in into:
            for e in out[stack.pop()]:
                if heads[e] not in into and left[e] > SUPPORT_EPS:
                    into[heads[e]] = e
                    stack.append(heads[e])
        if sink not in into:
            return
        arcs = [into[sink]]
        while tails[arcs[-1]] != source:
            arcs.append(into[tails[arcs[-1]]])
        d = min(left[e] for e in arcs)
        for e in arcs:
            left[e] -= d
        yield [tails[e] for e in reversed(arcs)] + [sink], d


def _inside(inst, vertices):
    """Boolean mask of ``vertices`` over the vertex ids."""
    mask = np.zeros(inst.vertex_count, dtype=bool)
    mask[np.fromiter(vertices, dtype=np.intp, count=len(vertices))] = True
    return mask


def _out_cut_arcs(inst, inside):
    """Present arcs leaving the vertex set ``inside``, in (tail, head) order."""
    tails, heads, _ = inst.arc_arrays
    mask = _inside(inst, inside)
    cross = mask[tails] & ~mask[heads]
    return list(zip(tails[cross].tolist(), heads[cross].tolist()))


def _in_cut_arcs(inst, inside):
    """Present arcs entering the vertex set ``inside``, in (head, tail) order."""
    tails, heads, by_head = inst.arc_arrays
    mask = _inside(inst, inside)
    cross = by_head[(~mask[tails] & mask[heads])[by_head]]
    return list(zip(tails[cross].tolist(), heads[cross].tolist()))


# -- connectivity cuts -------------------------------------------------------


def separate_connectivity(xv, yv, inst, params=CONNECTIVITY_FILTER):
    """Max-flow scan: one candidate cut per flow source vertex.

    For every v (except the destination) the max flow from v to the
    destination on the support graph is compared against the largest visit
    value on the source side of the min cut; a shortfall beyond the violation
    threshold yields the cut over the arcs leaving that side.  Every flow of
    the scan runs on one network, its source moved from vertex to vertex, so
    the residual adjacency is built once per call.
    """
    t = inst.destination
    # the source moves to each v below; the origin is a valid placeholder
    net = FlowNetwork(inst.vertex_count, inst.origin, t, *_support(xv))
    cuts = []
    for v in sorted(inst.present - {t}):
        net.source = v
        res = max_flow_min_cut(net)
        side = res.source_side
        if t in side or len(side) < 2:
            continue
        # the cut asserts a crossing for a visited vertex; restricting the
        # argmax to route vertices keeps it valid even when using no vehicle
        # at all is feasible
        candidates = [w for w in side if w in inst.inner]
        if not candidates:
            continue
        vstar = max(candidates, key=lambda w: (yv.get(w, 0.0), -w))
        if yv.get(vstar, 0.0) - res.flow_value <= params.abs_violation:
            continue
        cuts.append(
            Cut(
                family=CONNECTIVITY,
                x_terms=tuple((a, 1.0) for a in _out_cut_arcs(inst, side)),
                y_terms=((vstar, -1.0),),
                relation=">=",
                rhs=0.0,
                origin=(frozenset(side), vstar),
            )
        )
    return cuts


# -- conflict cuts -----------------------------------------------------------


def separate_conflict(xv, yv, inst, conflicts, params=CONFLICT_FILTER):
    """Auxiliary-graph separation, one enter-side and one leave-side attempt
    per conflicting pair.

    For a pair (i, j): hang an artificial sink behind both vertices with
    capacity fleet_size on the two new arcs, then a max flow from the origin
    below y_i + y_j exposes a separating set V (the sink side) whose entering
    arcs must carry at least y_i + y_j.  The mirrored construction on the
    reversed support graph yields the leave-side cuts.

    Each side builds one auxiliary network per call, with an arc of capacity
    0 from every vertex to the artificial sink; a pair opens its two sink
    arcs and closes them again after its flow.  A closed arc carries no flow
    and its residual arcs are empty, so the cuts are those of a network
    holding the pair's two sink arcs alone.  The maximum flow with one
    vertex's sink arc alone open is solved once per vertex and side.  The
    larger of the pair's two such flows is a lower bound on the pair's flow:
    when it meets the need, the pair yields no cut.  Otherwise the pair's
    flow is grown from it: opening the other arc only raises a capacity, so
    that flow still fits, and a maximum flow grown from it has the same
    smallest min cut as one grown from zero (see ``orienteer.maxflow``).
    With the other vertex off that flow's source side, it is the pair's.

    First, though, the support is split into origin-destination paths.  Each
    path through i or j crosses every cut that keeps the pair from the
    origin (leave side: the destination), so a pair whose paths carry the
    need less the threshold, plus ``SCREEN_MARGIN``, has no violated cut
    on either side and runs no max-flow.
    """
    n = inst.vertex_count
    big = float(inst.fleet_size)
    tails, heads, caps = _support(xv)
    through = [set() for _ in range(n)]  # (id, value) of the paths through each vertex
    for p, (path, d) in enumerate(_flow_paths(inst.origin, inst.destination, n, tails, heads, caps)):
        for v in path:
            through[v].add((p, d))
    sides = []
    for side, source, side_tails, side_heads, crossing_arcs in (
        ("enter", inst.origin, tails, heads, _in_cut_arcs),
        ("leave", inst.destination, heads, tails, _out_cut_arcs),
    ):
        net = FlowNetwork(n + 1, source, n, list(side_tails), list(side_heads), list(caps))
        # arc len(caps) + v runs from v to the artificial sink
        for v in range(n):
            net.add_arc(v, n, 0.0)
        sides.append((side, net, {}, crossing_arcs))
    sink_arc = len(caps)
    cuts = []
    seen = set()
    for (i, j) in conflicts:
        need = yv.get(i, 0.0) + yv.get(j, 0.0)
        if need <= params.abs_violation:
            continue
        carried = sum(d for _, d in through[i] | through[j])
        if carried >= need - params.abs_violation + SCREEN_MARGIN:
            continue
        for side, net, alone, crossing_arcs in sides:
            for v in (i, j):
                if v not in alone:
                    net.set_capacity(sink_arc + v, big)
                    alone[v] = max_flow_min_cut(net)
                    net.set_capacity(sink_arc + v, 0.0)
            res = max(alone[i], alone[j], key=lambda r: r.flow_value)
            if res.flow_value >= need - params.abs_violation:
                continue
            if (j if res is alone[i] else i) in res.source_side:
                net.set_capacity(sink_arc + i, big)
                net.set_capacity(sink_arc + j, big)
                res = max_flow_min_cut(net, start=res)
                net.set_capacity(sink_arc + i, 0.0)
                net.set_capacity(sink_arc + j, 0.0)
            if res.flow_value >= need - params.abs_violation:
                continue
            V = frozenset(range(n)) - res.source_side
            if {i, j} <= V and (side, V) not in seen:
                seen.add((side, V))
                cuts.append(
                    Cut(
                        family=CONFLICT,
                        x_terms=tuple((a, 1.0) for a in crossing_arcs(inst, V)),
                        y_terms=((i, -1.0), (j, -1.0)),
                        relation=">=",
                        rhs=0.0,
                        origin=(V, (i, j), side),
                    )
                )
    return cuts


# -- clique rows --------------------------------------------------------------


def separate_clique(yv, inst, conflicts):
    """Greedy clique rows of the conflict graph.

    No route serves two vertices of a clique K of the conflicting pairs, and
    at most ``fleet_size`` = m routes run, so sum_{k in K} y_k <= m holds for
    every route set; it can cut the point only when |K| > m.  The vertices
    with y above ``CLIQUE_SUPPORT`` are ordered by decreasing y, then id.
    From each vertex v in that order K starts as {v} and takes every other
    vertex, scanned in the same order, that conflicts with all of K.  A K
    with more than m vertices, not found before in this call, whose visit
    sum exceeds m by more than ``CLIQUE_VIOLATION`` gives one row; its
    vertex set is the cut's ``origin[0]``.
    """
    m = inst.fleet_size
    adjacent = {}
    for i, j in conflicts:
        adjacent.setdefault(i, set()).add(j)
        adjacent.setdefault(j, set()).add(i)
    order = sorted(
        (v for v in adjacent if yv.get(v, 0.0) > CLIQUE_SUPPORT), key=lambda v: (-yv[v], v)
    )
    cuts = []
    seen = set()
    for v in order:
        clique = [v]
        for w in order:
            if w != v and all(w in adjacent[k] for k in clique):
                clique.append(w)
        members = frozenset(clique)
        if len(clique) <= m or members in seen:
            continue
        seen.add(members)
        if sum(yv[k] for k in clique) <= m + CLIQUE_VIOLATION:
            continue
        cuts.append(
            Cut(
                family=CLIQUE,
                x_terms=(),
                y_terms=tuple((k, 1.0) for k in sorted(clique)),
                relation="<=",
                rhs=float(m),
                origin=(members,),
            )
        )
    return cuts


# -- exact knapsack ----------------------------------------------------------


def knapsack_max(profits, weights, capacity, fixed_zero=frozenset(), fixed_one=frozenset()):
    """Bellman DP for max sum(profits[i] y_i) s.t. sum(weights[i] y_i) <= capacity.

    Integer profits/weights; ``fixed_one`` items are forced in (consuming
    capacity), ``fixed_zero`` forced out.  Returns (value, chosen frozenset),
    or None when the forced items alone overrun the capacity.
    """
    fixed_one = frozenset(fixed_one)
    fixed_zero = frozenset(fixed_zero)
    base = sum(profits[i] for i in fixed_one)
    cap = int(capacity) - sum(weights[i] for i in fixed_one)
    if cap < 0:
        return None
    free = [
        i
        for i in range(len(profits))
        if i not in fixed_zero and i not in fixed_one and weights[i] <= cap and profits[i] > 0
    ]
    dp = np.zeros(cap + 1, dtype=np.int64)
    take = np.zeros((len(free), cap + 1), dtype=bool)
    for r, i in enumerate(free):
        w, p = int(weights[i]), int(profits[i])
        cand = dp[: cap + 1 - w] + p
        better = cand > dp[w:]
        take[r, w:] = better
        dp[w:] = np.where(better, cand, dp[w:])
    chosen = set(fixed_one)
    c = cap
    for r in range(len(free) - 1, -1, -1):
        if take[r, c]:
            chosen.add(free[r])
            c -= int(weights[free[r]])
    return int(dp[cap]) + int(base), frozenset(chosen)


# -- lifted cover inequalities ------------------------------------------------


def floor_bound(bound, step=1):
    """Largest multiple of ``step`` at or below a dual bound: the best
    objective value any solution under the bound can reach when every
    objective value lies on the ``step`` grid (``step=1``: integral
    rewards).  The 1e-9 cushion keeps a bound sitting numerically just under
    a multiple from flooring one step too low."""
    return step * int(math.floor((bound + 1e-9) / step))


def reward_step(rewards):
    """Grid every objective value lies on: the gcd of the reward values,
    or 1 when there are none or all are zero."""
    return math.gcd(*(int(p) for p in rewards.values())) or 1


def separate_lifted_cover(yv, inst, dual_bound):
    """Build one (possibly violated) lifted cover inequality, or None.

    Step 1 greedily covers the reward knapsack with high-y vertices; step 2
    minimalizes the cover by dropping low-y members; step 3 lifts: first the
    fractional outside vertices against the region with the cover's y=1
    members pinned, then down-lifts those pinned members, then lifts the
    remaining outside vertices.  All lifting coefficients come from exact
    knapsack solves, so the result is valid for every 0/1 reward vector
    within the bound.  The minimal cover is the cut's ``origin[0]``.
    """
    cap = floor_bound(dual_bound)
    items = sorted(i for i in inst.profitable if inst.rewards[i] > 0)
    if not items:
        return None
    pos = {i: r for r, i in enumerate(items)}
    weights = [inst.rewards[i] for i in items]
    y = {i: yv.get(i, 0.0) for i in items}

    order = sorted((i for i in items if y[i] > 0.0), key=lambda i: (-y[i], i))
    cover = []
    total = 0
    for i in order:
        if total > cap:
            break
        cover.append(i)
        total += weights[pos[i]]
    if total <= cap:
        return None

    for i in sorted(cover, key=lambda i: (y[i], i)):
        if total - weights[pos[i]] > cap:
            cover.remove(i)
            total -= weights[pos[i]]

    ones = [i for i in cover if y[i] >= 1.0 - 1e-9]
    core = [i for i in cover if i not in ones]
    if not core:
        return None  # lifting needs a fractional seed in the cover
    outside_pos = [i for i in items if i not in cover and y[i] > 0.0]
    outside_zero = [i for i in items if i not in cover and y[i] <= 0.0]

    coeff = {i: 1 for i in core}
    rhs = len(core) - 1

    # step 3's lifting order in one pass; a y=1 member stays pinned until
    # its own down-lift
    pinned = set(ones)
    sequence = [(k, False) for k in sorted(outside_pos, key=lambda i: (-y[i], i))]
    sequence += [(k, True) for k in sorted(ones, key=lambda i: (-y[i], i))]
    sequence += [(k, False) for k in sorted(outside_zero)]
    for k, down in sequence:
        profits = [coeff.get(i, 0) for i in items]
        if down:
            pinned.remove(k)
            res = knapsack_max(
                profits, weights, cap, fixed_zero={pos[k]}, fixed_one={pos[i] for i in pinned}
            )
            if res is None:
                raise AssertionError("down-lift subproblem cannot be infeasible")
            pi = res[0] - rhs
            if pi < 1:
                raise AssertionError("down-lift coefficient below one")
            coeff[k] = pi
            rhs += pi
            continue
        res = knapsack_max(profits, weights, cap, fixed_one={pos[i] for i in pinned | {k}})
        if res is None:
            continue  # k does not fit beside the pinned members; coefficient stays 0
        mu = rhs - res[0]
        if mu < 0:
            raise AssertionError("up-lift produced a negative coefficient")
        if mu > 0:
            coeff[k] = mu

    pi_map = {i: coeff[i] for i in ones}
    mu_map = {i: coeff[i] for i in coeff if i not in cover}
    return Cut(
        family=COVER,
        x_terms=(),
        y_terms=tuple((i, float(c)) for i, c in sorted(coeff.items()) if c != 0),
        relation="<=",
        rhs=float(rhs),
        origin=(tuple(sorted(cover)), tuple(sorted(ones)), pi_map, mu_map),
    )


# -- cut selection -----------------------------------------------------------


def _as_vector(cut):
    """Sparse <=-oriented coefficient map for geometry."""
    sign = -1.0 if cut.relation == ">=" else 1.0
    vec = {("x", a): sign * c for a, c in cut.x_terms}
    vec.update({("y", i): sign * c for i, c in cut.y_terms})
    return vec


def _cosine(va, norm_a, vb, norm_b):
    """Cosine of two ``_as_vector`` maps with their norms; the dot product
    sums over the smaller map, in its order."""
    if len(vb) < len(va):
        va, vb = vb, va
    dot = sum(c * vb.get(k, 0.0) for k, c in va.items())
    return dot / (norm_a * norm_b)


def filter_cuts(candidates, params, xv, yv):
    """Most-violated cut by hyperplane distance, plus candidates nearly
    orthogonal to it; applied per family, never across families."""
    if not candidates:
        return []
    best = max(range(len(candidates)), key=lambda k: (candidates[k].distance(xv, yv), -k))
    top = candidates[best]
    top_vector, top_norm = _as_vector(top), top.norm()
    chosen = [top]
    for k, cut in enumerate(candidates):
        if k == best:
            continue
        if _cosine(_as_vector(cut), cut.norm(), top_vector, top_norm) <= params.max_inner_product:
            chosen.append(cut)
    return chosen
