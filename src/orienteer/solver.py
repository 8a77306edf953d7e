"""Exact solution pipelines.

Every pipeline starts with one screening pass (``_screen``), preprocessing,
which also names an unroutable mandatory vertex that ends the solve as
infeasible.  The main pipeline's root LP and the baseline's node LPs are then
tightened by one round loop (``_cut_rounds``): separate rows against the
optimum, append them at once and re-solve, until a round finds nothing, the
LP empties or the bound gains at most a tolerance.  Two modes share one
branch-and-bound engine:

* main pipeline: the flow formulation with its per-arc flow lower bounds.
  Root rounds separate filtered connectivity and conflict cuts, every
  violated clique row and a lifted cover until a round gains at most
  ``PHASE_TOL``.  The search then goes on in the root's own LP session,
  every root cut in it, and solves each node's LP once, without cut rounds.

* baseline: the arrival-time formulation with the aggregate travel-time row
  kept; node rounds append every violated connectivity cut (no filter)
  until a round gains at most ``NODE_TOL``; it never separates clique
  rows.  Its root LP is solved once, by ``lp.solve``, whose probe settles
  an infeasible relaxation; the search's session starts from that solve's
  final basis.

The other pipelines report a relaxation's bound only, as status ``bound``:
``lp`` the flow formulation's plain LP; ``root`` the main pipeline's root
loop under the configured families, its bound against the plain LP's in
``lp_bound``; ``impact-flow`` and ``impact-arrival`` a formulation's LP with
its per-arc value lower bounds, against the same kind built with every floor
coefficient at 0, which is that LP without them.  ``lp`` and the two impact
modes are one pipeline body (``_relaxation``).

Both searches prune on the reward grid: every objective value is a multiple
of g = gcd(rewards), so a node is dropped once its bound, rounded down to a
multiple of g (``separation.floor_bound``), cannot beat the incumbent.  With
g = 1 that is the plain integer rounding.  Reported bounds stay raw LP values.
The grid also fixes columns: before a node branches, a binary arc or visit
column at 0 (1) whose reduced cost d shows that moving it to 1 (0) leaves at
most z + d (z - d) < incumbent + g is fixed where it sits, for both children
and so, at the first node, for the whole tree (``_reduced_cost_fixings``).
Continuous flow and slack columns are never fixed.

Incumbents come from two places.  A node whose LP optimum is integral gives
its routes (``extract_routes``).  And at the first node, once its LP settles,
and then at every ``HEURISTIC_EVERY``-th node, the LP-guided heuristic
(``lp_guided_routes``) builds routes by cheapest insertion in order of the
node's visit values and polishes them with 2-opt; a candidate is used only
after it passes the route validator on the search's instance with the reward
it claims.  With an optimal incumbent at the root, an instance whose root
bound already meets the optimum closes without branching.  Every reported
incumbent passes the independent route validator again on the instance as
given.

The first node of either pipeline goes on from the root's optimal basis, so
it re-solves the root LP at no simplex iteration: the main pipeline's from
the live basis of its root session, the baseline's from the basis
``lp.solve`` returned with the root optimum (``HighsSession.set_basis``).
A node that branches dives into one child, which goes on from the live basis,
and leaves the other on the heap with its own final basis
(``HighsSession.basis``).  For the first ``PREFETCH_PER_DIVE`` such children
of a dive (the nodes taken off the heap start dives), that child's LP is
submitted at once to the session's worker engine (``HighsSession.submit``),
restarted from that basis, and is solved in a worker thread while the main
thread goes on with the dive.  When the child is popped,
``HighsSession.collect`` returns its LP from the worker's result, or, when the
baseline has appended cuts since, re-solves on the main engine from the
worker's final basis; a dive from it goes on from that basis.  Any other
child popped restarts its LP on the main engine from the stored basis
(``HighsSession.restart``).

Node counts and bounds do not depend on thread timing, by one of two routes.
The main pipeline's search appends no rows, so it freezes its session
(``HighsSession.freeze``): when the search first branches its engine is
built anew from the row store (``HighsSession.rebuild``), as the worker's
is, every restart from a stored basis clears the engine first, and a
node's LP comes out the same on either engine.  So
``collect`` takes back a job the worker has not started and solves it on the
main engine, and a popped node never queues behind jobs it does not need; a
node pruned when popped has its job cancelled (``HighsSession.drop``).
Which engine solves a job depends on timing, no result does, and neither
does ``PREFETCH_PER_DIVE`` change one.  The baseline's node cut rounds
append rows after jobs were submitted, so its session is not frozen: every
job runs, in the order of submission, on the one worker engine, and what
that engine solved before a job is fixed by the search itself.  The worker
stops when the search ends, however it ends.

The search prices its node re-solves apart from the rest: ``branch_and_bound``
switches its session's engines, its own and the worker's, to Devex
(``HighsSession.price_for_search``, ``lp.SEARCH_EDGE_WEIGHTS``), which costs
less per iteration on a short restart from a stored basis than HiGHS's
default dual steepest edge.  The main pipeline's root cut loop, the
baseline's root ``lp.solve``, the bound-only pipelines and every fallback to
``lp.solve`` keep the default, so root cuts and bounds do not depend on it.

Every pipeline ends in one ``SolveReport``.  Its ``stats`` are the counters
``branch_and_bound`` keeps (``_search_stats``), its LP fallbacks those of
the one session a solve's root and search share, and its ``cut_pool`` holds
every cut the solve separated; every exit, the infeasible ones included,
keeps both, and a solve that never searched reports the same counters at
zero.  ``node_count`` and ``cut_counts`` are read off them.

Everything is deterministic for a fixed configuration: node selection is
best-bound with deeper-first then insertion-order tie-breaks, branching picks
the fractional visit variable with the largest value (then, with every visit
integral, the most fractional arc variable), ties on the lowest column index,
and the heuristic breaks every tie on vertex ids.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import lp
from .formulation import build_arrival_formulation, build_flow_formulation
# min_time_matrix is unused here, but perfbench/spans.py wraps solver.min_time_matrix
from .instance import min_time_matrix, preprocess, validate_solution  # noqa: F401
from .separation import (
    CLIQUE,
    CONFLICT,
    CONFLICT_FILTER,
    CONNECTIVITY,
    CONNECTIVITY_FILTER,
    COVER,
    COVER_VIOLATION,
    FAMILIES,
    build_conflict_set,
    filter_cuts,
    floor_bound,
    reward_step,
    separate_clique,
    separate_conflict,
    separate_connectivity,
    separate_lifted_cover,
)

ALL_FAMILIES = frozenset(FAMILIES)

INTEGER_TOL = 1e-6
PHASE_TOL = 1e-3  # root cutting loop stops once a round gains at most this
NODE_TOL = 1e-3  # baseline per-node rounds stop once a round gains at most this
HEURISTIC_EVERY = 10  # the LP-guided heuristic runs at the first node and every 10th
# waiting children per dive whose LPs go to the worker engine: the nodes popped
# later are mostly the first few siblings of a dive, and the worker's restarts
# take more iterations than the dive's own solves, so jobs for the deeper ones
# would queue up ahead of the next pop.  The cap changes no cpa result, 0
# included: a frozen session's engine is rebuilt from its row store when the
# search first branches, whatever is submitted, and it solves a node's LP to
# the same bits, and leaves its engine in the same state, whether the LP was
# submitted or not.  On the seed 1-3 cpa-solve corpora at the 400-node cap,
# caps 0, 1, 8 and 1000 give the same cpa reports (504/825/1,352 nodes).  The
# baseline's trees depend on the cap (seed 1: 926/877/876 nodes at caps
# 2/8/1000).
PREFETCH_PER_DIVE = 8
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


def _search_stats():
    """The counters of one solve, all at zero: search nodes, the LP-guided
    heuristic's seconds, incumbents and candidates the route validator
    turned down, binary columns fixed by reduced cost, LPs the session
    settled with the stateless solve, the simplex iterations of the search's
    LPs whose results it used (``HighsSession.iterations``), popped nodes
    whose LP the worker's result settled, popped nodes whose job the main
    engine took back from the worker unstarted, and the seconds the search
    waited for the worker.  The seconds, ``prefetched`` and ``stolen``
    depend on thread timing; the other counts do not.
    ``pool_activated`` stays 0: the search keeps every row in its LP, and the
    key is kept for its readers."""
    return {
        "nodes": 0,
        "pool_activated": 0,
        "heuristic_s": 0.0,
        "heuristic_incumbents": 0,
        "heuristic_discarded": 0,
        "reduced_cost_fixed": 0,
        "lp_fallbacks": 0,
        "lp_iterations": 0,
        "prefetched": 0,
        "stolen": 0,
        "prefetch_wait_s": 0.0,
    }


@dataclass
class SolveReport:
    status: str  # optimal | infeasible | time-limit | bound (a relaxation's bound only)
    lower_bound: float
    upper_bound: float
    timings: dict
    routes: list = field(default_factory=list)
    lp_bound: float | None = None
    root_bound: float | None = None
    cut_pool: list = field(default_factory=list)
    reason: str = ""
    stats: dict = field(default_factory=_search_stats)

    @property
    def gap(self):
        return compute_gap(self.status, self.lower_bound, self.upper_bound)

    @property
    def node_count(self):
        return self.stats["nodes"]

    @property
    def cut_counts(self):
        """Cuts in ``cut_pool`` per family."""
        counts = dict.fromkeys(FAMILIES, 0)
        for cut in self.cut_pool:
            counts[cut.family] += 1
        return counts


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
    session: object  # the root's HighsSession, holding its last LP and basis


def _checked(sol):
    """``sol`` unless it is unbounded: every formulation here bounds its
    objective, so an unbounded LP is an engine fault and raises ``LpError``."""
    if sol.status not in ("optimal", "infeasible"):
        raise lp.LpError(f"relaxation came back {sol.status}")
    return sol


def _cut_rounds(session, sol, separate, tol, deadline=None):
    """Rounds from the optimum ``sol`` of the LP in ``session``: check
    ``deadline``, append the rows ``separate(sol)`` returns in one call and
    re-solve under the bounds in force, until ``separate`` returns nothing,
    the LP is infeasible or a round gains at most ``tol``.
    Returns (status, last solution, least objective seen, rounds); status is
    bound, infeasible or time-limit."""
    best = sol.objective
    rounds = 0
    while deadline is None or time.monotonic() <= deadline:
        rows = separate(sol)
        if not rows:
            return "bound", sol, best, rounds
        rounds += 1
        session.add_rows(rows)
        sol = _checked(session.solve())
        if sol.status == "infeasible":
            return "infeasible", sol, best, rounds
        gain = best - sol.objective
        best = min(best, sol.objective)
        if gain <= tol:
            return "bound", sol, best, rounds
    return "time-limit", sol, best, rounds


def cutting_plane_phase(inst, config=SolveConfig(), conflicts=None, deadline=None, on_model=None):
    """Root reinforcement loop.

    Starting from the full linear relaxation, cut rounds separate the
    enabled cut families against the current optimum and keep the most
    violated plus sufficiently orthogonal ones (connectivity and conflict
    families filtered separately, every clique row, at most one cover cut),
    until a round finds nothing or improves the bound by at most
    ``PHASE_TOL``.  The instance must already be preprocessed.
    ``on_model``, when given, is called with the relaxation's model before
    anything is solved on it.
    """
    handle = build_flow_formulation(inst)
    if on_model is not None:
        on_model(handle.model)
    if conflicts is None and config.families & {CONFLICT, CLIQUE}:
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
        if CLIQUE in config.families:
            fresh += separate_clique(yv, inst, conflicts)
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
    return PhaseResult(status, handle, ub, lp_bound, cuts, rounds, sol, session)


# -- branch and bound --------------------------------------------------------


class _Tree:
    """Best-bound search with deeper-first, then FIFO tie-breaks; each node
    carries the worker's job for its LP or the basis its LP restarts from
    (neither: the engine's current one)."""

    def __init__(self):
        self.heap = []
        self.seq = 0

    def push(self, bound, depth, fixings, start=None):
        heapq.heappush(self.heap, (-bound, -depth, self.seq, fixings, start))
        self.seq += 1

    def pop(self):
        nb, nd, _, fixings, start = heapq.heappop(self.heap)
        return -nb, -nd, fixings, start

    def best_open_bound(self):
        return -self.heap[0][0] if self.heap else -math.inf

    def __len__(self):
        return len(self.heap)


def _node_bounds(base_bounds, fixings):
    bounds = base_bounds.copy()
    for col, lo, up in fixings:
        bounds[col, 0] = lo
        bounds[col, 1] = up
    return bounds


def _branch_order(handle):
    """Column ids of the visit block and of the arc block, each ascending:
    the binary columns, in the order branching scans them."""
    ys = np.sort(np.fromiter(handle.y_index.values(), dtype=np.int64))
    xs = np.sort(np.fromiter(handle.x_index.values(), dtype=np.int64))
    return ys, xs


def _pick_branch_column(order, x):
    """The fractional visit column with the largest value, else the most
    fractional arc column, else None; ties go to the lowest column id."""
    ys, xs = order
    y = x[ys]
    frac = np.abs(y - np.round(y)) > INTEGER_TOL
    if frac.any():
        return int(ys[np.argmax(np.where(frac, y, -1.0))])
    dist = np.abs(x[xs] - np.round(x[xs]))
    if len(xs) and dist.max() > INTEGER_TOL:
        return int(xs[np.argmax(dist)])
    return None


def _reduced_cost_fixings(order, sol, bounds, cutoff):
    """Fixings (column, v, v) for the free binary columns of ``order`` that
    sit at v in {0, 1} in the optimum ``sol`` and whose reduced cost shows
    that moving them to 1 - v drops the LP bound below ``cutoff``.  Only
    binary columns qualify: the bound holds for a full move to the other
    value, which a continuous column need not make."""
    cols = np.concatenate(order)
    cols = cols[(bounds[cols, 0] == 0.0) & (bounds[cols, 1] == 1.0)]
    x, d = sol.x[cols], sol.dual[cols]
    at0 = (x <= INTEGER_TOL) & (sol.objective + d < cutoff)
    at1 = (x >= 1.0 - INTEGER_TOL) & (sol.objective - d < cutoff)
    fixed = at0 | at1
    return tuple((int(c), float(v), float(v)) for c, v in zip(cols[fixed], at1[fixed]))


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


def branch_and_bound(handle, session, config, deadline, separate=None):
    """LP branch-and-bound over ``handle.model``, the model ``session``
    holds; the first node goes on from the session's live basis.

    Each node solves its LP once.  With ``separate(sol)`` given, cut rounds
    (``_cut_rounds``) then append the rows it returns until a round gains at
    most ``NODE_TOL`` (the baseline's per-node connectivity cuts), before the
    node may branch or improve the incumbent.  A node that branches first
    fixes binary columns by reduced cost against the incumbent on the reward
    grid, and both children inherit the fixings.  The child that waits on
    the heap keeps this node's final basis; for the first
    ``PREFETCH_PER_DIVE`` of a dive its LP goes to the session's worker
    (``HighsSession.submit``) from that basis, and the result is collected
    when it is popped, or the job cancelled when the node is pruned then.
    With no ``separate`` the search freezes the session, so that collecting
    may take a job back from the worker, and rebuilds its engine when a node
    first branches.  Either way both engines price with Devex from the first
    node on (``HighsSession.price_for_search``).  An unbounded node LP raises
    ``LpError``.  The worker stops however the search ends.
    Returns (status, incumbent value, open bound, incumbent routes, stats).
    The open bound is the best parent bound of the nodes left unsolved (the
    dive child's or the heap top's; +inf for the unsolved first node, -inf
    when none is left); stats are the search's ``_search_stats`` counters,
    whose LP fallbacks and prefetch and steal counts are all the session's,
    and whose ``lp_iterations`` are those of the session's LPs since the
    first node.
    """
    stats = _search_stats()
    base_bounds = np.column_stack((handle.model.lower, handle.model.upper))
    if separate is None:
        session.freeze()  # no row comes after the root's: jobs may be taken back
    session.price_for_search()
    iterations = session.iterations

    order = _branch_order(handle)
    step = reward_step(handle.instance.rewards)
    tree = _Tree()
    tree.push(math.inf, 0, ())
    best_value = -math.inf
    best_routes = None
    status = "optimal"
    dive = None  # (bound, depth, fixings): child processed before the heap

    try:
        while dive is not None or len(tree):
            if time.monotonic() > deadline or stats["nodes"] >= config.max_nodes:
                status = "time-limit"
                break
            if dive is not None:
                parent_bound, depth, fixings = dive
                start = None  # the dive child goes on from its parent's basis
                dive = None
            else:
                parent_bound, depth, fixings, start = tree.pop()
                submitted = 0  # jobs for the worker in the dive this node starts
            if (
                best_value > -math.inf
                and parent_bound < math.inf
                and floor_bound(parent_bound + INTEGER_TOL, step) <= best_value
            ):
                if isinstance(start, lp.Job):
                    session.drop(start)
                continue
            stats["nodes"] += 1

            bounds = _node_bounds(base_bounds, fixings)
            if isinstance(start, lp.Job):
                sol = session.collect(start, bounds)
            elif start is not None:
                sol = session.restart(start, bounds)
            else:
                sol = session.solve(bounds)
            sol = _checked(sol)
            if sol.status == "optimal" and separate is not None:
                sol = _cut_rounds(session, sol, separate, NODE_TOL)[1]
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
            if best_value > -math.inf:
                # both children inherit what the reduced costs rule out here
                fixed = _reduced_cost_fixings(order, sol, bounds, best_value + step - INTEGER_TOL)
                stats["reduced_cost_fixed"] += len(fixed)
                fixings += fixed
            lo, up = bounds[col]
            down = fixings + ((col, lo, math.floor(sol.x[col])),)
            upn = fixings + ((col, math.ceil(sol.x[col]), up),)
            # dive into the child agreeing with the fractional value's
            # rounding; the sibling waits on the best-bound heap with this
            # node's basis, which the worker solves its LP from while the
            # dive goes on, for the first siblings of a dive
            if sol.x[col] - math.floor(sol.x[col]) >= 0.5:
                dive, waits = (sol.objective, depth + 1, upn), down
            else:
                dive, waits = (sol.objective, depth + 1, down), upn
            # a frozen engine is rebuilt at the first branching, so that the
            # tree does not depend on whether any job is submitted
            session.rebuild()
            start = session.basis()
            if submitted < PREFETCH_PER_DIVE:
                start = session.submit(start, _node_bounds(base_bounds, waits))
                submitted += 1
            tree.push(sol.objective, depth + 1, waits, start)
    finally:
        session.close()

    open_bound = tree.best_open_bound()
    if dive is not None:
        open_bound = max(open_bound, dive[0])
    stats["lp_fallbacks"] = session.fallbacks
    stats["lp_iterations"] = session.iterations - iterations
    stats["prefetched"] = session.prefetched
    stats["stolen"] = session.stolen
    stats["prefetch_wait_s"] = session.prefetch_wait_s
    return status, best_value, open_bound, best_routes, stats


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


def _infeasible_report(timings, reason, **known):
    """Report for an instance proven infeasible; ``known`` sets the other
    ``SolveReport`` fields the exit has (cut pool, stats)."""
    return SolveReport("infeasible", -math.inf, -math.inf, timings, reason=reason, **known)


def _certify(inst, routes, value):
    """Raise unless ``routes`` pass the route validator on the instance as
    given and collect exactly ``value``."""
    verdict = validate_solution(inst, routes)
    problems = list(verdict.violations)
    if verdict.reward != value:
        problems.append(f"routes collect {verdict.reward}, reported {value}")
    if problems:
        raise UncertifiedSolution(f"{inst.name or 'instance'}: " + "; ".join(problems))


def _search_report(inst, search, timings, cuts, lp_bound, root_bound=None):
    """Report for a finished ``branch_and_bound``: exhausted with no feasible
    point (infeasible), stopped with no incumbent, or an incumbent (proven
    optimal, or below an upper bound) that first passes ``_certify`` against
    ``inst``.  A stopped search always leaves a node open, so its upper bound
    is the larger of the incumbent and the open bound, capped by the root's
    bound, else by ``lp_bound``.  Every exit keeps the cut pool ``cuts`` and
    the search's stats."""
    status, best_value, open_bound, routes, stats = search
    reason = ""
    if status == "time-limit":
        upper = min(max(best_value, open_bound), lp_bound if root_bound is None else root_bound)
    else:
        upper = best_value
        if best_value == -math.inf:
            status, reason = "infeasible", "search exhausted without a feasible point"
    if best_value > -math.inf:
        _certify(inst, routes, best_value)
    return SolveReport(
        status=status,
        lower_bound=float(best_value),
        upper_bound=float(upper),
        timings={**timings, "heuristic": stats["heuristic_s"]},
        routes=routes or [],
        lp_bound=lp_bound,
        root_bound=root_bound,
        cut_pool=list(cuts),
        reason=reason,
        stats=stats,
    )


def solve_stop(inst, config=SolveConfig(), on_model=None):
    """Cutting-plane pipeline: root reinforcement, then branch-and-bound on
    the reinforced LP in the root's session.  Each pipeline calls
    ``on_model``, when given, with the model of the relaxation it builds,
    before it solves anything on it; a solve the screen ends builds none."""
    t0 = time.monotonic()
    deadline = t0 + config.time_limit_s
    pre, blocker = _screen(inst)
    if blocker is not None:
        return _unroutable_report(blocker, t0)
    t_pre = time.monotonic() - t0

    phase = cutting_plane_phase(pre, config, deadline=deadline, on_model=on_model)
    t_root = time.monotonic() - t0 - t_pre
    if phase.status == "infeasible":
        return _infeasible_report(
            {"preprocess": t_pre, "root": t_root, "total": time.monotonic() - t0},
            "linear relaxation infeasible",
            lp_bound=phase.lp_bound,
            cut_pool=phase.cuts,
            stats={**_search_stats(), "lp_fallbacks": phase.session.fallbacks},
        )

    search = branch_and_bound(phase.handle, phase.session, config, deadline)
    t_total = time.monotonic() - t0
    timings = {"preprocess": t_pre, "root": t_root, "search": t_total - t_pre - t_root, "total": t_total}
    return _search_report(inst, search, timings, phase.cuts, phase.lp_bound, phase.upper_bound)


def solve_baseline(inst, config=SolveConfig(), on_model=None):
    """Branch-and-cut on the arrival-time formulation: connectivity cuts
    separated at every node until the gain per round drops to ``NODE_TOL``;
    every violated cut found is added (no orthogonality filter).  The root
    LP is solved once, on a fresh engine, and the search starts from its
    final basis."""
    t0 = time.monotonic()
    deadline = t0 + config.time_limit_s
    pre, blocker = _screen(inst)
    if blocker is not None:
        return _unroutable_report(blocker, t0)
    t_pre = time.monotonic() - t0

    handle = build_arrival_formulation(pre, include_total_time_row=True)
    if on_model is not None:
        on_model(handle.model)
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

    session = lp.HighsSession(handle.model)
    # the first node's LP is the root's, so its solve starts at the optimum
    session.set_basis(root.basis)
    search = branch_and_bound(handle, session, config, deadline, separate)
    t_total = time.monotonic() - t0
    timings = {"preprocess": t_pre, "search": t_total - t_pre, "total": t_total}
    return _search_report(inst, search, timings, added, lp_bound)


def solve_root(inst, config=SolveConfig(), on_model=None):
    """The cutting-plane pipeline's root alone, under ``config``'s families:
    ``solve_stop`` with no search node, reported as ``bound`` with the root
    bound as its upper bound; a root whose cuts empty the LP stays
    infeasible."""
    rep = solve_stop(inst, replace(config, max_nodes=0), on_model)
    return rep if rep.status == "infeasible" else replace(rep, status="bound")


def _relaxation(kind, impact=False):
    """Pipeline for the LP bound of formulation ``kind``, reported as its
    upper bound, and its ``lp_bound`` too unless ``impact``: then it is the
    ``root_bound``, and ``lp_bound`` is the bound of the kind built with
    ``floors=False``, without its per-arc value lower bounds (None when that
    LP is infeasible), so the pair shows how much they tighten it."""

    def solve_relaxation(inst, config=SolveConfig(), on_model=None):
        t0 = time.monotonic()
        pre, blocker = _screen(inst)
        if blocker is not None:
            return _unroutable_report(blocker, t0)
        build = build_flow_formulation if kind == "flow" else build_arrival_formulation
        handle = build(pre)
        if on_model is not None:
            on_model(handle.model)
        full = _checked(lp.solve(handle.model))
        without = _checked(lp.solve(build(pre, floors=False).model)) if impact else full
        timings = {"total": time.monotonic() - t0}
        lp_bound = without.objective if without.status == "optimal" else None
        if full.status == "infeasible":
            return _infeasible_report(timings, "linear relaxation infeasible", lp_bound=lp_bound)
        bound = full.objective
        root_bound = bound if impact else None
        return SolveReport("bound", -math.inf, bound, timings, lp_bound=lp_bound, root_bound=root_bound)

    return solve_relaxation


# the plain relaxation: the flow kind with its hard flow lower bounds
solve_lp_only = _relaxation("flow")

# the pipelines ``solve --mode`` and ``bench --mode`` run by name
PIPELINES = {
    "lp": solve_lp_only,
    "cpa": solve_stop,
    "baseline": solve_baseline,
    "root": solve_root,
    "impact-flow": _relaxation("flow", impact=True),
    "impact-arrival": _relaxation("arrival", impact=True),
}
