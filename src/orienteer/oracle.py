"""Brute-force exact solver for desk-scale instances.

Ground truth for everything else: exhaustive depth-first enumeration over
ordered assignments of vertices to at most fleet_size elementary routes,
pruned by route duration and an optimistic reward bound.  Intended for
instances with 10 or fewer vertices; refuses (never answers wrongly) when
the node budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass


class OracleBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class RouteSet:
    routes: tuple  # tuples of vertex ids, origin..destination
    total_reward: int
    durations: tuple


def _route_canon(routes):
    return tuple(sorted(routes, key=lambda r: (r[1] if len(r) > 2 else -1, r)))


def enumerate_optimal(inst, hard_cap=2_000_000):
    """Maximum-reward feasible route set, or None when none exists.

    Deterministic: routes are canonically ordered by first visited vertex and
    ties between equal-reward optima break lexicographically on the route
    encoding.
    """
    best = None
    best_key = None
    for rs in enumerate_feasible(inst, hard_cap):
        key = (-rs.total_reward, _route_canon(rs.routes))
        if best_key is None or key < best_key:
            best, best_key = rs, key
    return best


def enumerate_feasible(inst, hard_cap=2_000_000):
    """Yield every feasible route set (visit-distinct, all mandatory covered).

    Route sets are canonical: routes sorted by first visited vertex, each
    route elementary, empty routes omitted.  The zero-route set appears iff
    the mandatory set is empty.
    """
    s, t = inst.origin, inst.destination
    d = inst.travel_time
    mask = inst.arc_mask
    T = inst.time_limit
    inner = sorted(inst.inner)
    budget = [hard_cap]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleBudgetExceeded("oracle node budget exhausted")

    # all elementary s->t routes within the limit, indexed by first vertex
    routes = []

    def extend(path, used_time):
        spend()
        u = path[-1]
        if mask[u, t] and used_time + d[u, t] <= T and len(path) > 1:
            routes.append((tuple(path) + (t,), used_time + d[u, t]))
        for v in inner:
            if v in path:
                continue
            if mask[u, v] and used_time + d[u, v] <= T:
                path.append(v)
                extend(path, used_time + d[u, v])
                path.pop()

    extend([s], 0.0)
    routes.sort(key=lambda rd: rd[0])

    mand = inst.mandatory
    m = inst.fleet_size

    def emit(chosen):
        used = set()
        for r, _ in chosen:
            used.update(r[1:-1])
        if not mand <= used:
            return None
        reward = sum(inst.rewards.get(v, 0) for v in used)
        rs = tuple(r for r, _ in chosen)
        return RouteSet(rs, reward, tuple(dur for _, dur in chosen))

    def assign(start_idx, chosen, used):
        spend()
        rs = emit(chosen)
        if rs is not None:
            yield rs
        if len(chosen) >= m:
            return
        for idx in range(start_idx, len(routes)):
            r, dur = routes[idx]
            body = set(r[1:-1])
            if body & used:
                continue
            # canonical order: first visited vertex strictly increasing
            if chosen and r[1] <= chosen[-1][0][1]:
                continue
            chosen.append(routes[idx])
            yield from assign(idx + 1, chosen, used | body)
            chosen.pop()

    yield from assign(0, [], set())
