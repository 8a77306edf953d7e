"""Exact solution pipelines.

Every pipeline starts with one screening pass (``_screen``), preprocessing,
which also names an unroutable mandatory vertex that ends the solve as
infeasible.  Every LP is then tightened by one round loop (``_cut_rounds``):
separate rows against the optimum, append them at once and re-solve, until a
round finds nothing, the LP empties or the bound gains at most a tolerance.
Two modes share it and one branch-and-bound engine:

* main pipeline: the flow formulation, its per-arc flow lower bounds
  poolable.  Root rounds separate filtered connectivity, conflict and
  lifted-cover cuts until a round gains at most ``PHASE_TOL``; node rounds
  append the violated pooled rows (flow lower bounds and root cuts) until
  none is left.

* baseline: the arrival-time formulation with the aggregate travel-time row
  kept; node rounds append every violated connectivity cut (no filter, no
  pool) until a round gains at most ``NODE_TOL``.

Both searches prune on the reward grid: every objective value is a multiple
of g = gcd(rewards), so a node is dropped once its bound, rounded down to a
multiple of g (``separation.floor_bound``), cannot beat the incumbent.  With
g = 1 that is the plain integer rounding.  Reported bounds stay raw LP values.

Incumbents come from two places.  A node whose LP optimum is integral gives
its routes (``extract_routes``).  And at the first node, once its cut rounds
settle, and then at every ``HEURISTIC_EVERY``-th node, the LP-guided
heuristic (``lp_guided_routes``) builds routes by cheapest insertion in order
of the node's visit values and polishes them with 2-opt; a candidate is used
only after it passes the route validator on the search's instance with the
reward it claims.  With an optimal incumbent at the root, an instance whose
root bound already meets the optimum closes without branching.  Every
reported incumbent passes the independent route validator again on the
instance as given.

The node taken next off the heap does not start from the basis the previous
node left: its parent stored its final basis with it at branching
(``HighsSession.basis``), and the node's LP restarts from that
(``HighsSession.set_basis``).  The dive child goes on from the live basis.

Everything is deterministic for a fixed configuration: node selection is
best-bound with deeper-first then insertion-order tie-breaks, branching picks
the most fractional arc variable (then visit variable), ties on the lowest
column index, and the heuristic breaks every tie on vertex ids.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .formulation import build_arrival_formulation, build_flow_formulation
# min_time_matrix is unused here, but perfbench/spans.py wraps solver.min_time_matrix
from .instance import min_time_matrix, preprocess, validate_solution  # noqa: F401
from .separation import (
    CONFLICT,
    CONFLICT_FILTER,
    CONNECTIVITY,
    CONNECTIVITY_FILTER,
    COVER,
    COVER_VIOLATION,
    build_conflict_set,
    filter_cuts,
    floor_bound,
    reward_step,
    separate_conflict,
    separate_connectivity,
    separate_lifted_cover,
)

ALL_FAMILIES = frozenset({CONNECTIVITY, CONFLICT, COVER})

INTEGER_TOL = 1e-6
POOL_TOL = 1e-6
PHASE_TOL = 1e-3  # root cutting loop stops once a round gains at most this
NODE_TOL = 1e-3  # baseline per-node rounds stop once a round gains at most this
HEURISTIC_EVERY = 10  # the LP-guided heuristic runs at the first node and every 10th
Y_SUPPORT = 1e-6  # visit values above this count as chosen by the LP
POLISH_PASSES = 2  # 2-opt then reinsertion rounds after the construction
TWO_OPT_GAIN = 1e-9  # a 2-opt move must shorten its route by more than this


@dataclass(frozen=True)
class SolveConfig:
    time_limit_s: float = 7200.0
    families: frozenset = ALL_FAMILIES
    max_nodes: int = 50_000_000


class UncertifiedSolution(RuntimeError):
    """A reported incumbent failed the independent route check."""


@dataclass
class SolveReport:
    status: str  # optimal | infeasible | time-limit | bound (lp mode: relaxation only)
    lower_bound: float
    upper_bound: float
    timings: dict
    routes: list = field(default_factory=list)
    cut_counts: dict = field(default_factory=dict)
    node_count: int = 0
    lp_bound: float | None = None
    root_bound: float | None = None
    cut_pool: list = field(default_factory=list)
    reason: str = ""
    lp_fallbacks: int = 0  # LPs the sessions settled with the stateless solve
    heuristic_incumbents: int = 0  # incumbents the LP-guided heuristic supplied
    heuristic_discarded: int = 0  # its candidates the route validator turned down

    @property
    def gap(self):
        return compute_gap(self.status, self.lower_bound, self.upper_bound)


def compute_gap(status, lower, upper):
    """(upper - lower)/upper, with 0% on proven infeasible and 100% when
    nothing is known; a 0/0 bound pair counts as closed."""
    if status == "infeasible":
        return 0.0
    if lower is None or lower == -math.inf:
        return 1.0
    if upper == lower:
        return 0.0
    if upper <= 0:
        return 0.0
    return (upper - lower) / upper


@dataclass
class PhaseResult:
    status: str  # bound | infeasible | time-limit
    handle: object
    upper_bound: float
    lp_bound: float
    cuts: list
    iterations: int
    solution: object
    lp_fallbacks: int


def _checked(sol):
    """``sol`` unless it is unbounded: every formulation here bounds its
    objective, so an unbounded LP is an engine fault and raises ``LpError``."""
    if sol.status not in ("optimal", "infeasible"):
        raise lp.LpError(f"relaxation came back {sol.status}")
    return sol


def _cut_rounds(session, sol, separate, tol, bounds=None, deadline=None):
    """Rounds from the optimum ``sol`` of the LP in ``session``: check
    ``deadline``, append the rows ``separate(sol)`` returns in one call and
    re-solve under ``bounds`` (None: those in force), until ``separate``
    returns nothing, the LP is infeasible or a round gains at most ``tol``
    (None: never on the gain).  Returns (status, last solution, least
    objective seen, rounds); status is bound, infeasible or time-limit."""
    best = sol.objective
    rounds = 0
    while deadline is None or time.monotonic() <= deadline:
        rows = separate(sol)
        if not rows:
            return "bound", sol, best, rounds
        rounds += 1
        session.add_rows(rows)
        sol = _checked(session.solve(bounds))
        if sol.status == "infeasible":
            return "infeasible", sol, best, rounds
        gain = best - sol.objective
        best = min(best, sol.objective)
        if tol is not None and gain <= tol:
            return "bound", sol, best, rounds
    return "time-limit", sol, best, rounds


def cutting_plane_phase(inst, config=SolveConfig(), conflicts=None, deadline=None):
    """Root reinforcement loop.

    Starting from the full linear relaxation, cut rounds separate the
    enabled cut families against the current optimum and keep the most
    violated plus sufficiently orthogonal ones (connectivity and conflict
    families filtered separately, at most one cover cut), until a round
    finds nothing or improves the bound by at most ``PHASE_TOL``.  The
    instance must already be preprocessed.
    """
    handle = build_flow_formulation(inst)
    if conflicts is None and CONFLICT in config.families:
        conflicts = build_conflict_set(inst, handle.min_times)
    session = lp.HighsSession(handle.model)
    cuts = []

    def separate(sol):
        xv, yv = handle.point_from_solution(sol)
        fresh = []
        if CONNECTIVITY in config.families:
            cand = separate_connectivity(xv, yv, inst)
            fresh += filter_cuts(cand, CONNECTIVITY_FILTER, xv, yv)
        if CONFLICT in config.families:
            cand = separate_conflict(xv, yv, inst, conflicts)
            fresh += filter_cuts(cand, CONFLICT_FILTER, xv, yv)
        if COVER in config.families:
            cover = separate_lifted_cover(yv, inst, dual_bound=sol.objective)
            if cover is not None and cover.violation(xv, yv) > COVER_VIOLATION:
                fresh.append(cover)
        cuts.extend(fresh)
        return [cut.to_row(handle) for cut in fresh]

    sol = _checked(session.solve())
    lp_bound = sol.objective
    status, ub, rounds = "infeasible", lp_bound, 0
    if sol.status == "optimal":
        status, sol, ub, rounds = _cut_rounds(session, sol, separate, PHASE_TOL, deadline=deadline)
    if status == "infeasible":
        # cuts never exclude feasible integer points, so an emptied
        # relaxation certifies the instance itself is infeasible
        ub, sol = -math.inf, None
    return PhaseResult(status, handle, ub, lp_bound, cuts, rounds, sol, session.fallbacks)


# -- branch and bound --------------------------------------------------------


def _pool_matrix(pool, n_cols):
    """(csr matrix, row lower, row upper) for vectorized pool-violation
    scans."""
    if not pool:
        return None
    from scipy.sparse import csr_matrix

    starts, indices, values, row_lower, row_upper = lp.row_arrays(pool)
    return csr_matrix((values, indices, starts), shape=(len(pool), n_cols)), row_lower, row_upper


def _violated_pool_rows(pool_matrix, pool_active, x):
    if pool_matrix is None:
        return []
    mat, row_lower, row_upper = pool_matrix
    act = mat @ x
    bad = (act < row_lower - POOL_TOL) | (act > row_upper + POOL_TOL)
    return [int(k) for k in np.nonzero(bad)[0] if not pool_active[k]]


class _Tree:
    """Best-bound search with deeper-first, then FIFO tie-breaks; each node
    carries the basis its LP restarts from (None: the engine's current one)."""

    def __init__(self):
        self.heap = []
        self.seq = 0

    def push(self, bound, depth, fixings, basis=None):
        heapq.heappush(self.heap, (-bound, -depth, self.seq, fixings, basis))
        self.seq += 1

    def pop(self):
        nb, nd, _, fixings, basis = heapq.heappop(self.heap)
        return -nb, -nd, fixings, basis

    def best_open_bound(self):
        return -self.heap[0][0] if self.heap else -math.inf

    def __len__(self):
        return len(self.heap)


def _branch_order(handle):
    """Column ids of the arc block then the visit block, in index order
    (ties in fractionality resolve to the lowest column id)."""
    xs = np.fromiter((handle.x_index[a] for a in sorted(handle.x_index)), dtype=np.int64)
    ys = np.fromiter((handle.y_index[i] for i in sorted(handle.y_index)), dtype=np.int64)
    return xs, ys


def _pick_branch_column(order, x):
    for cols in order:
        if not len(cols):
            continue
        vals = x[cols]
        frac = np.abs(vals - np.round(vals))
        k = int(np.argmax(frac))
        if frac[k] > INTEGER_TOL:
            return int(cols[k])
    return None


def extract_routes(handle, x):
    """Walk the arcs set to one in an integral solution; one route per
    origin departure."""
    inst = handle.instance
    s, t = inst.origin, inst.destination
    succ = {}
    starts = []
    for (i, j), c in handle.x_index.items():
        if x[c] > 0.5:
            if i == s:
                starts.append(j)
            else:
                succ[i] = j
    routes = []
    for j in sorted(starts):
        route = [s, j]
        guard = 0
        while route[-1] != t:
            route.append(succ[route[-1]])
            guard += 1
            if guard > inst.vertex_count + 1:
                raise AssertionError("cyclic successor walk in an accepted solution")
        routes.append(route)
    return routes


def _incumbent_value(handle, x):
    return sum(
        inst_reward
        for i, inst_reward in handle.instance.rewards.items()
        if x[handle.y_index[i]] > 0.5
    )


# -- LP-guided incumbent -----------------------------------------------------


def _duration(d, route):
    dur = 0.0
    for a, b in zip(route, route[1:]):
        dur += d[a][b]
    return dur


def _reversal(d, route):
    """``route`` with the first inner segment (scanned from the front) whose
    reversal shortens it reversed, or None; arcs need not be symmetric."""
    for i in range(1, len(route) - 2):
        a, head = route[i - 1], route[i]
        fwd = rev = 0.0  # the segment route[i..j] forwards and backwards
        for j in range(i + 1, len(route) - 1):
            fwd += d[route[j - 1]][route[j]]
            rev += d[route[j]][route[j - 1]]
            tail, b = route[j], route[j + 1]
            if d[a][tail] + rev + d[head][b] < d[a][head] + fwd + d[tail][b] - TWO_OPT_GAIN:
                return route[:i] + route[i : j + 1][::-1] + route[j + 1 :]
    return None


def _two_opt(d, route):
    while (shorter := _reversal(d, route)) is not None:
        route = shorter
    return route


def lp_guided_routes(inst, y):
    """(reward, routes) built from the visit values ``y`` (vertex -> value)
    of an LP optimum, or None when some mandatory vertex fits nowhere.

    The ``fleet_size`` routes start as [s, t].  The mandatory vertices go in
    first (decreasing ``y``, then id), then the profitable ones the LP
    visits (decreasing ``y``, reward, id), each at the position that adds the
    least travel time within the limit, over present arcs only.  Two polish
    passes follow, each a 2-opt of every route and then the insertion of the
    unused rewarded vertices (decreasing reward, then id).  Routes left
    empty are dropped.
    """
    s, t, limit = inst.origin, inst.destination, inst.time_limit
    d = np.where(inst.arc_mask, inst.travel_time, math.inf).tolist()
    # an empty route [s, t] is charged the direct trip, when there is one
    direct = d[s][t] if math.isfinite(d[s][t]) else 0.0
    routes = [[s, t] for _ in range(inst.fleet_size)]
    durations = [direct] * inst.fleet_size
    used = set()

    def insert(v):
        best = None  # (added time, route, position)
        for r, route in enumerate(routes):
            for p in range(1, len(route)):
                a, b = route[p - 1], route[p]
                added = d[a][v] + d[v][b] - (d[a][b] if len(route) > 2 else direct)
                if durations[r] + added <= limit and (best is None or added < best[0]):
                    best = (added, r, p)
        if best is None:
            return False
        _, r, p = best
        routes[r].insert(p, v)
        durations[r] = _duration(d, routes[r])
        used.add(v)
        return True

    for v in sorted(inst.mandatory, key=lambda i: (-y[i], i)):
        if not insert(v):
            return None
    chosen = [i for i in inst.profitable if y[i] > Y_SUPPORT]
    for v in sorted(chosen, key=lambda i: (-y[i], -inst.rewards[i], i)):
        insert(v)
    rewarded = sorted(
        (i for i in inst.profitable if inst.rewards[i] > 0), key=lambda i: (-inst.rewards[i], i)
    )
    for _ in range(POLISH_PASSES):
        for r, route in enumerate(routes):
            if len(route) > 2:
                routes[r] = _two_opt(d, route)
                durations[r] = _duration(d, routes[r])
        for v in rewarded:
            if v not in used:
                insert(v)
    kept = [route for route in routes if len(route) > 2]
    return sum(inst.rewards.get(v, 0) for route in kept for v in route[1:-1]), kept


def _lp_guided_incumbent(handle, x, stats):
    """``lp_guided_routes`` on the node optimum ``x`` when its routes pass
    the route validator on the search's instance and collect the reward it
    claims; any other candidate is dropped and counted."""
    inst = handle.instance
    cand = lp_guided_routes(inst, {i: x[c] for i, c in handle.y_index.items()})
    if cand is None:
        return None
    verdict = validate_solution(inst, cand[1])
    if not verdict.ok or verdict.reward != cand[0]:
        stats["heuristic_discarded"] += 1
        return None
    return cand


def branch_and_bound(handle, work_model, pool, config, deadline, separate=None):
    """LP branch-and-bound over ``work_model``.

    Each node's LP runs cut rounds (``_cut_rounds``) before it may branch or
    improve the incumbent.  By default a round appends the rows of ``pool``
    (LpRow objects valid for every feasible solution) that the node optimum
    violates, until none is left.  ``separate(sol)``, when given, supplies
    the rows instead, until a round gains at most ``NODE_TOL`` (the
    baseline's per-node connectivity cuts).  An unbounded node LP raises
    ``LpError``.
    Returns (status, incumbent value, upper bound, incumbent routes, stats);
    stats counts nodes, activated pool rows, LP fallbacks and the heuristic's
    seconds, incumbents and discarded candidates.
    """
    stats = {
        "nodes": 0,
        "pool_activated": 0,
        "heuristic_s": 0.0,
        "heuristic_incumbents": 0,
        "heuristic_discarded": 0,
    }
    base_bounds = np.array([work_model.lower, work_model.upper], dtype=float).T
    session = lp.HighsSession(work_model)
    pool_active = [False] * len(pool)
    pool_matrix = _pool_matrix(pool, work_model.n_cols)

    def pool_rows(sol):
        violated = _violated_pool_rows(pool_matrix, pool_active, sol.x)
        for k in violated:
            pool_active[k] = True
        stats["pool_activated"] += len(violated)
        return [pool[k] for k in violated]

    tol = NODE_TOL
    if separate is None:
        separate, tol = pool_rows, None

    order = _branch_order(handle)
    step = reward_step(handle.instance.rewards)
    tree = _Tree()
    tree.push(math.inf, 0, ())
    best_value = -math.inf
    best_routes = None
    status = "optimal"
    dive = None  # (bound, depth, fixings): child processed before the heap

    while dive is not None or len(tree):
        if time.monotonic() > deadline or stats["nodes"] >= config.max_nodes:
            status = "time-limit"
            break
        if dive is not None:
            parent_bound, depth, fixings = dive
            basis = None  # the dive child goes on from its parent's live basis
            dive = None
        else:
            parent_bound, depth, fixings, basis = tree.pop()
        if (
            best_value > -math.inf
            and parent_bound < math.inf
            and floor_bound(parent_bound + INTEGER_TOL, step) <= best_value
        ):
            continue
        stats["nodes"] += 1

        bounds = base_bounds.copy()
        for col, lo, up in fixings:
            bounds[col, 0] = lo
            bounds[col, 1] = up

        if basis is not None:
            session.set_basis(basis)
        sol = _checked(session.solve(bounds))
        if sol.status == "optimal":
            sol = _cut_rounds(session, sol, separate, tol, bounds)[1]
        if sol.status == "infeasible":
            continue
        if stats["nodes"] == 1 or stats["nodes"] % HEURISTIC_EVERY == 0:
            started = time.monotonic()
            cand = _lp_guided_incumbent(handle, sol.x, stats)
            stats["heuristic_s"] += time.monotonic() - started
            if cand is not None and cand[0] > best_value:
                best_value, best_routes = cand
                stats["heuristic_incumbents"] += 1
        if floor_bound(sol.objective + INTEGER_TOL, step) <= best_value:
            continue  # objective on the reward grid: nothing better here

        col = _pick_branch_column(order, sol.x)
        if col is None:
            value = _incumbent_value(handle, sol.x)
            if value > best_value:
                best_value = value
                best_routes = extract_routes(handle, sol.x)
            continue
        lo, up = bounds[col]
        down = fixings + ((col, lo, math.floor(sol.x[col])),)
        upn = fixings + ((col, math.ceil(sol.x[col]), up),)
        # dive into the child agreeing with the fractional value's rounding;
        # the sibling waits on the best-bound heap with this node's basis
        if sol.x[col] - math.floor(sol.x[col]) >= 0.5:
            dive, waits = (sol.objective, depth + 1, upn), down
        else:
            dive, waits = (sol.objective, depth + 1, down), upn
        tree.push(sol.objective, depth + 1, waits, session.basis())

    open_bound = tree.best_open_bound()
    if dive is not None:
        open_bound = max(open_bound, dive[0])
    if status == "time-limit":
        upper = max(best_value, open_bound)
        if upper == -math.inf:
            upper = math.inf
    else:
        upper = best_value if best_value > -math.inf else -math.inf
    stats["lp_fallbacks"] = session.fallbacks
    return status, best_value, upper, best_routes, stats


# -- public pipelines --------------------------------------------------------


def _screen(inst):
    """The one screening pass: (the preprocessed instance, the lowest
    mandatory vertex that cannot reach both ends within the limit, or
    None)."""
    pre, report = preprocess(inst)
    return pre, min(report.infeasible_mandatory, default=None)


def _unroutable_report(blocker, t0):
    return _infeasible_report(
        {"total": time.monotonic() - t0},
        f"mandatory vertex {blocker} cannot be routed within the limit",
    )


def _infeasible_report(timings, reason, cut_counts=None, lp_fallbacks=0):
    return SolveReport(
        status="infeasible",
        lower_bound=-math.inf,
        upper_bound=-math.inf,
        timings=timings,
        cut_counts=cut_counts or {},
        reason=reason,
        lp_fallbacks=lp_fallbacks,
    )


def _family_counts(cuts):
    counts = {CONNECTIVITY: 0, CONFLICT: 0, COVER: 0}
    for c in cuts:
        counts[c.family] += 1
    return counts


def _certify(inst, routes, value):
    """Raise unless ``routes`` pass the route validator on the instance as
    given and collect exactly ``value``."""
    verdict = validate_solution(inst, routes)
    problems = list(verdict.violations)
    if verdict.reward != value:
        problems.append(f"routes collect {verdict.reward}, reported {value}")
    if problems:
        raise UncertifiedSolution(f"{inst.name or 'instance'}: " + "; ".join(problems))


def _search_report(
    inst, search, root_upper, timings, counts, cuts, lp_bound, root_bound=None, root_fallbacks=0
):
    """Report for a finished ``branch_and_bound``: exhausted with no feasible
    point, stopped with no incumbent, or an incumbent (proven optimal, or
    below an upper bound capped by the root's ``root_upper``) that first
    passes ``_certify`` against ``inst``."""
    status, best_value, upper, routes, stats = search
    fallbacks = root_fallbacks + stats["lp_fallbacks"]
    timings = {**timings, "heuristic": stats["heuristic_s"]}
    found = best_value > -math.inf
    if status != "time-limit":
        if not found:
            return _infeasible_report(
                timings, "search exhausted without a feasible point", counts, fallbacks
            )
        upper = best_value
    else:
        upper = min(upper, root_upper)
    lower = -math.inf
    if found:
        _certify(inst, routes, best_value)
        lower = float(best_value)
    return SolveReport(
        status=status,
        lower_bound=lower,
        upper_bound=float(upper),
        routes=routes or [],
        timings=timings,
        cut_counts=counts,
        node_count=stats["nodes"],
        lp_bound=lp_bound,
        root_bound=root_bound,
        cut_pool=list(cuts),
        lp_fallbacks=fallbacks,
        heuristic_incumbents=stats["heuristic_incumbents"],
        heuristic_discarded=stats["heuristic_discarded"],
    )


def solve_stop(inst, config=SolveConfig()):
    """Cutting-plane pipeline: root reinforcement then branch-and-bound with
    the flow lower bounds and all root cuts handled as a lazy pool."""
    t0 = time.monotonic()
    deadline = t0 + config.time_limit_s
    pre, blocker = _screen(inst)
    if blocker is not None:
        return _unroutable_report(blocker, t0)
    t_pre = time.monotonic() - t0

    phase = cutting_plane_phase(pre, config, deadline=deadline)
    t_root = time.monotonic() - t0 - t_pre
    if phase.status == "infeasible":
        return _infeasible_report(
            {"preprocess": t_pre, "root": t_root, "total": time.monotonic() - t0},
            "linear relaxation infeasible",
            lp_fallbacks=phase.lp_fallbacks,
        )
    handle = phase.handle

    # the search starts from the hard rows; the flow lower bounds and the
    # root cuts' rows wait in the pool and join on demand
    start, count = handle.row_blocks["floor"]
    n_structural = handle.model.n_rows - len(phase.cuts)
    work, pool = handle.model.split_rows(
        [*range(start, start + count), *range(n_structural, handle.model.n_rows)]
    )

    search = branch_and_bound(handle, work, pool, config, deadline)
    t_total = time.monotonic() - t0
    timings = {"preprocess": t_pre, "root": t_root, "search": t_total - t_pre - t_root, "total": t_total}
    counts = _family_counts(phase.cuts)
    counts["pool_activated"] = search[4]["pool_activated"]
    return _search_report(
        inst, search, phase.upper_bound, timings, counts, phase.cuts, phase.lp_bound,
        phase.upper_bound, phase.lp_fallbacks,
    )


def solve_baseline(inst, config=SolveConfig()):
    """Branch-and-cut on the arrival-time formulation: connectivity cuts
    separated at every node until the gain per round drops to ``NODE_TOL``;
    every violated cut found is added (no orthogonality filter)."""
    t0 = time.monotonic()
    deadline = t0 + config.time_limit_s
    pre, blocker = _screen(inst)
    if blocker is not None:
        return _unroutable_report(blocker, t0)
    t_pre = time.monotonic() - t0

    handle = build_arrival_formulation(pre, include_total_time_row=True)
    root = _checked(lp.solve(handle.model))
    if root.status == "infeasible":
        return _infeasible_report(
            {"preprocess": t_pre, "total": time.monotonic() - t0},
            "linear relaxation infeasible",
        )
    lp_bound = root.objective

    added = []

    def separate(sol):
        xv, yv = handle.point_from_solution(sol)
        cand = separate_connectivity(xv, yv, pre)
        added.extend(cand)
        return [cut.to_row(handle) for cut in cand]

    search = branch_and_bound(handle, handle.model, [], config, deadline, separate)
    t_total = time.monotonic() - t0
    timings = {"preprocess": t_pre, "search": t_total - t_pre, "total": t_total}
    counts = {CONNECTIVITY: len(added), CONFLICT: 0, COVER: 0}
    return _search_report(inst, search, lp_bound, timings, counts, added, lp_bound)


def solve_lp_only(inst, config=SolveConfig()):
    """Bound from the plain relaxation (flow kind, hard flow lower bounds)."""
    t0 = time.monotonic()
    pre, blocker = _screen(inst)
    if blocker is not None:
        return _unroutable_report(blocker, t0)
    handle = build_flow_formulation(pre)
    sol = _checked(lp.solve(handle.model))
    t_total = time.monotonic() - t0
    if sol.status == "infeasible":
        return _infeasible_report({"total": t_total}, "linear relaxation infeasible")
    return SolveReport(
        status="bound",
        lower_bound=-math.inf,
        upper_bound=sol.objective,
        timings={"total": t_total},
        lp_bound=sol.objective,
    )


# the pipelines ``solve --mode`` and ``bench --mode`` run by name
PIPELINES = {"lp": solve_lp_only, "cpa": solve_stop, "baseline": solve_baseline}
