"""Cut families and their separation procedures.

Three families of valid inequalities strengthen the formulations, all
expressed on the x (arc) and y (visit) variables so they apply to either
formulation kind:

* connectivity cuts:  sum of x over arcs leaving V  >=  y_k   (k in V, t not in V)
* conflict cuts:      sum of x over arcs entering/leaving V  >=  y_i + y_j
                      for a pair {i, j} no single route can serve, {i,j} in V
* lifted covers:      integer-lifted cover inequalities on the reward
                      knapsack  sum p_i y_i <= floor(bound)

Connectivity and conflict separation solve max-flow problems on the support
graph of the fractional point; cover separation runs greedy cover building,
minimalization, and exact sequential up/down lifting via knapsack DP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maxflow import FlowNetwork, max_flow_min_cut

SUPPORT_EPS = 1e-9

CONNECTIVITY, CONFLICT, COVER = "connectivity", "conflict", "cover"


@dataclass(frozen=True)
class FilterParams:
    abs_violation: float
    max_inner_product: float


# per-family filter thresholds of the root loop, and the violation a lifted
# cover needs to be kept
CONNECTIVITY_FILTER = FilterParams(0.05, 0.03)
CONFLICT_FILTER = FilterParams(0.3, 0.03)
COVER_VIOLATION = 1e-5


@dataclass(frozen=True)
class ConflictSet:
    pairs: tuple  # ordered (i, j) tuples, i < j

    def __len__(self):
        return len(self.pairs)

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
        from .lp import make_row

        coeffs = [(handle.x_index[a], c) for a, c in self.x_terms]
        coeffs += [(handle.y_index[i], c) for i, c in self.y_terms]
        return make_row(coeffs, self.relation, self.rhs)


# -- conflict pairs ----------------------------------------------------------


def build_conflict_set(inst, M):
    """Vertex pairs provably never served by one route.

    A pair (i, j) conflicts when the cheapest route through i then j and the
    cheapest through j then i both exceed the limit; sums of shortest-path
    times underestimate elementary routes, so this is a safe subset of the
    true conflict relation.  Only routable vertices (``inst.inner``) are
    paired, so vertices preprocessing removed never appear.
    """
    vals = M.values if hasattr(M, "values") else M
    T = inst.time_limit
    s, t = inst.origin, inst.destination
    pairs = []
    inner = sorted(inst.inner)
    for a_pos, i in enumerate(inner):
        for j in inner[a_pos + 1 :]:
            if (
                vals[s, i] + vals[i, j] + vals[j, t] > T
                and vals[s, j] + vals[j, i] + vals[i, t] > T
            ):
                pairs.append((i, j))
    return ConflictSet(tuple(pairs))


# -- support graph -----------------------------------------------------------


def _support(xv):
    return [(a, v) for a, v in xv.items() if v > SUPPORT_EPS]


def _out_cut_arcs(inst, inside):
    out = []
    mask = inst.arc_mask
    for i in sorted(inside):
        row = np.nonzero(mask[i])[0]
        out.extend((i, int(j)) for j in row if j not in inside)
    return out


def _in_cut_arcs(inst, inside):
    into = []
    mask = inst.arc_mask
    for j in sorted(inside):
        col = np.nonzero(mask[:, j])[0]
        into.extend((int(i), j) for i in col if i not in inside)
    return into


# -- connectivity cuts -------------------------------------------------------


def separate_connectivity(xv, yv, inst, params=CONNECTIVITY_FILTER):
    """Max-flow scan: one candidate cut per flow source vertex.

    For every v (except the destination) the max flow from v to the
    destination on the support graph is compared against the largest visit
    value on the source side of the min cut; a shortfall beyond the violation
    threshold yields the cut over the arcs leaving that side.
    """
    n = inst.vertex_count
    t = inst.destination
    support = _support(xv)
    tails = [a[0] for a, _ in support]
    heads = [a[1] for a, _ in support]
    caps = [c for _, c in support]
    cuts = []
    for v in sorted(inst.present - {t}):
        net = FlowNetwork(n, v, t, tails, heads, caps)
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
    """
    n = inst.vertex_count
    big = float(inst.fleet_size)
    support = _support(xv)
    tails = [a[0] for a, _ in support]
    heads = [a[1] for a, _ in support]
    caps = [c for _, c in support]
    sides = (
        ("enter", inst.origin, tails, heads, _in_cut_arcs),
        ("leave", inst.destination, heads, tails, _out_cut_arcs),
    )
    cuts = []
    seen = set()
    for (i, j) in conflicts:
        need = yv.get(i, 0.0) + yv.get(j, 0.0)
        if need <= params.abs_violation:
            continue
        for side, source, side_tails, side_heads, crossing_arcs in sides:
            # copies: add_arc appends the two sink arcs to the lists
            net = FlowNetwork(n + 1, source, n, list(side_tails), list(side_heads), list(caps))
            net.add_arc(i, n, big)
            net.add_arc(j, n, big)
            res = max_flow_min_cut(net)
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


def floor_bound(bound):
    """Integer capacity below a dual bound; the 1e-9 cushion keeps a bound
    sitting numerically just under an integer from flooring one too low."""
    return int(math.floor(bound + 1e-9))


def separate_lifted_cover(yv, inst, dual_bound, lift=True):
    """Build one (possibly violated) lifted cover inequality, or None.

    Step 1 greedily covers the reward knapsack with high-y vertices; step 2
    minimalizes the cover by dropping low-y members; step 3 lifts: first the
    fractional outside vertices against the region with the cover's y=1
    members pinned, then down-lifts those pinned members, then lifts the
    remaining outside vertices.  All lifting coefficients come from exact
    knapsack solves, so the result is valid for every 0/1 reward vector
    within the bound.  With ``lift`` false the plain minimal cover inequality
    is returned.
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

    if not lift:
        return Cut(
            family=COVER,
            x_terms=(),
            y_terms=tuple((i, 1.0) for i in sorted(cover)),
            relation="<=",
            rhs=float(len(cover) - 1),
            origin=(tuple(sorted(cover)), (), {}, {}),
        )

    coeff = {i: 1 for i in core}
    rhs = len(core) - 1

    # outside vertices with fractional support, lifted with the y=1 cover
    # members pinned in
    for k in sorted(outside_pos, key=lambda i: (-y[i], i)):
        profits = [coeff.get(i, 0) for i in items]
        res = knapsack_max(
            profits,
            weights,
            cap,
            fixed_zero=frozenset(),
            fixed_one=frozenset(pos[i] for i in ones) | {pos[k]},
        )
        if res is not None:
            mu = rhs - res[0]
            if mu < 0:
                raise AssertionError("up-lift produced a negative coefficient")
            if mu > 0:
                coeff[k] = mu

    # down-lift the pinned members one at a time
    done = []
    for jx in sorted(ones, key=lambda i: (-y[i], i)):
        profits = [coeff.get(i, 0) for i in items]
        remaining = [i for i in ones if i not in done and i != jx]
        res = knapsack_max(
            profits,
            weights,
            cap,
            fixed_zero=frozenset({pos[jx]}),
            fixed_one=frozenset(pos[i] for i in remaining),
        )
        if res is None:
            raise AssertionError("down-lift subproblem cannot be infeasible")
        pi = res[0] - rhs
        if pi < 1:
            raise AssertionError("down-lift coefficient below one")
        coeff[jx] = pi
        rhs += pi
        done.append(jx)

    # remaining outside vertices against the full region
    for k in sorted(outside_zero, key=lambda i: i):
        profits = [coeff.get(i, 0) for i in items]
        res = knapsack_max(
            profits, weights, cap, fixed_zero=frozenset(), fixed_one=frozenset({pos[k]})
        )
        if res is None:
            continue  # reward alone exceeds the bound; coefficient stays 0
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


def inner_product(cut_a, cut_b):
    va, vb = _as_vector(cut_a), _as_vector(cut_b)
    if len(vb) < len(va):
        va, vb = vb, va
    dot = sum(c * vb.get(k, 0.0) for k, c in va.items())
    return dot / (cut_a.norm() * cut_b.norm())


def filter_cuts(candidates, params, xv, yv):
    """Most-violated cut by hyperplane distance, plus candidates nearly
    orthogonal to it; applied per family, never across families."""
    if not candidates:
        return []
    best = max(range(len(candidates)), key=lambda k: (candidates[k].distance(xv, yv), -k))
    chosen = [candidates[best]]
    for k, cut in enumerate(candidates):
        if k == best:
            continue
        if inner_product(cut, candidates[best]) <= params.max_inner_product:
            chosen.append(cut)
    return chosen
