"""Shared fixtures: hand-built sparse instances, seeded random instances,
and discovery of the public benchmark files (optional, large tests skip
without them)."""

import math
import os
import random

import numpy as np
import pytest

from orienteer.instance import StopInstance
from orienteer.lp import GE, LpModel, Rows, make_row, rows_from_entries
from orienteer.separation import CONFLICT, CONNECTIVITY, COVER, Cut

# vertex ids of the 6-vertex sparse example used throughout
S, I, L, K, J, T = 0, 1, 2, 3, 4, 5

# the paper's root configurations 1-5 as cut-family subsets, the
# ``--families`` lists of ``bench --mode root``; configuration 5 is the
# paper's three families, without the clique rows
PAPER_CONFIGS = {
    1: frozenset({CONNECTIVITY}),
    2: frozenset({CONFLICT}),
    3: frozenset({COVER}),
    4: frozenset({CONNECTIVITY, CONFLICT}),
    5: frozenset({CONNECTIVITY, CONFLICT, COVER}),
}

# a Chao-style instance whose search branches: two vehicles, 12 scored stops
BRANCHING = (
    "n 14\nm 2\ntmax 15\n4.9 2.3 0\n1.1 8.0 10\n8.7 13.6 20\n0.6 6.5 15\n3.6 8.3 10\n"
    "12.4 1.9 10\n9.5 8.7 15\n8.7 6.0 10\n0.7 12.9 15\n6.3 8.1 20\n4.6 12.2 30\n"
    "1.5 8.6 15\n5.6 8.2 15\n0.9 0.9 0\n"
)


FIGURE_ARCS = {
    (S, I): 1.0,
    (S, L): 1.0,
    (I, K): 1.0,
    (L, J): 1.0,
    (L, T): 1.0,
    (K, J): 2.0,
    (J, T): 1.0,
}


def make_figure_instance(time_limit=4.0, fleet=1, mandatory=(), rewards=None):
    """Sparse 6-vertex digraph where the only route through both vertex 1 and
    vertex 4 lasts 5 time units; the default limit 4 makes them conflict."""
    n = 6
    d = np.zeros((n, n))
    mask = np.zeros((n, n), dtype=bool)
    for (a, b), w in FIGURE_ARCS.items():
        d[a, b] = w
        mask[a, b] = True
    mand = frozenset(mandatory)
    prof = frozenset({I, L, K, J}) - mand
    rew = {i: (rewards or {}).get(i, 1) for i in sorted(prof)}
    return StopInstance(
        vertex_count=n,
        origin=S,
        destination=T,
        mandatory=mand,
        profitable=prof,
        rewards=rew,
        travel_time=d,
        arc_mask=mask,
        fleet_size=fleet,
        time_limit=time_limit,
    )


def make_random_instance(rng, n_max=9, m_max=3, tightness=(1.0, 2.2), mandatory_share=0.5):
    """Complete Euclidean instance with integer rewards; sometimes a slice of
    the inner vertices is mandatory (instances may then be infeasible)."""
    n = rng.randint(5, n_max)
    coords = np.array([[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(n)])
    diff = coords[:, None, :] - coords[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    mask = ~np.eye(n, dtype=bool)
    inner = list(range(1, n - 1))
    if rng.random() < mandatory_share:
        mand = frozenset(rng.sample(inner, rng.randint(0, max(0, len(inner) // 2))))
    else:
        mand = frozenset()
    prof = frozenset(inner) - mand
    rewards = {i: rng.randint(0, 10) for i in sorted(prof)}
    return StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=mand,
        profitable=prof,
        rewards=rewards,
        travel_time=d,
        arc_mask=mask,
        fleet_size=rng.randint(1, m_max),
        time_limit=float(d[0, n - 1] * rng.uniform(*tightness)),
        coordinates=coords,
    )


def make_reward_universe(n_items, rewards, fleet=2, time_limit=10.0):
    """Complete instance whose geometry is irrelevant; used to test the
    reward-knapsack machinery with a controlled profitable set 1..n_items."""
    n = n_items + 2
    d = np.ones((n, n))
    np.fill_diagonal(d, 0.0)
    mask = ~np.eye(n, dtype=bool)
    mask[:, 0] = False
    mask[n - 1, :] = False
    return StopInstance(
        vertex_count=n,
        origin=0,
        destination=n - 1,
        mandatory=frozenset(),
        profitable=frozenset(range(1, n - 1)),
        rewards={i + 1: int(rewards[i]) for i in range(n_items)},
        travel_time=d,
        arc_mask=mask,
        fleet_size=fleet,
        time_limit=time_limit,
    )


def plain_cover(cut):
    """The minimal cover inequality behind a lifted cover cut, read off its
    ``origin[0]``: every member at coefficient 1, right-hand side one less
    than the cover's size."""
    cover = cut.origin[0]
    return Cut(COVER, (), tuple((i, 1.0) for i in cover), "<=", float(len(cover) - 1))


def point_of_routes(inst, routes):
    """Integral (x, y) point encoding a route set."""
    xv = {a: 0.0 for a in inst.arcs()}
    yv = {v: 0.0 for v in sorted(inst.present)}
    yv[inst.origin] = 1.0
    yv[inst.destination] = 1.0
    for route in routes:
        for a, b in zip(route, route[1:]):
            xv[(a, b)] = 1.0
        for v in route[1:-1]:
            yv[v] = 1.0
    return xv, yv


def add_column(model, lower=0.0, upper=math.inf, objective=0.0):
    """Append one column to the LpModel ``model``; returns its id."""
    return model.add_columns([lower], [upper], [objective]).start


def add_row(model, coeffs, relation=None, rhs=None):
    """Append one row to the LpModel ``model``, given as a one-row block or
    as (column, value) pairs with its relation and right-hand side; returns
    its id."""
    model.add_rows(coeffs if isinstance(coeffs, Rows) else make_row(coeffs, relation, rhs))
    return model.n_rows - 1


def with_objective(model, coeffs):
    """A copy of the LpModel ``model`` maximizing sum(v x_j) over the
    (j, v) pairs ``coeffs``; every other column costs nothing."""
    cost = np.zeros(model.n_cols)
    for j, v in coeffs:
        cost[j] = float(v)
    cost.flags.writeable = False
    out = model.copy()
    out.objective = cost
    return out


def row_violations(model, x, tol=1e-6):
    """(row id, activity) of each row of ``model`` that the column vector
    ``x`` misses by more than ``tol``; empty when ``x`` satisfies them all."""
    r = model.rows
    activity = np.zeros(model.n_rows)
    rows = np.repeat(np.arange(model.n_rows), np.diff(r.starts))
    np.add.at(activity, rows, r.values * np.asarray(x)[r.indices])
    bad = np.nonzero((activity < r.lower - tol) | (activity > r.upper + tol))[0]
    return [(int(r), float(activity[r])) for r in bad]


def arc_values(handle, point):
    """The arc values v = w + c x of a formulation's column vector
    ``point``, in arc order, from each arc's shifted value w, floor
    coefficient c and arc column x."""
    point = np.asarray(point)
    w = np.fromiter(handle.flow_index.values(), dtype=np.int64)
    x = np.fromiter(handle.x_index.values(), dtype=np.int64)
    return point[w] + handle.floor * point[x]


def unshifted(handle, floors=True):
    """Reference model for ``handle``'s formulation that undoes the shift of
    its value columns: the same columns and rows, each arc's w column (with
    its bounds) standing for v = w + c x, so every row entry a w becomes
    a v - a c x; with ``floors`` the floor rows v - c x >= 0 follow, one per
    arc in arc order, placed before a ``total_time`` row as the
    formulation's blocks were once ordered."""
    model = handle.model
    rows = model.rows
    dense = np.zeros((model.n_rows, model.n_cols))
    dense[np.repeat(np.arange(model.n_rows), np.diff(rows.starts)), rows.indices] = rows.values
    w = np.fromiter(handle.flow_index.values(), dtype=np.int64)
    x = np.fromiter(handle.x_index.values(), dtype=np.int64)
    dense[:, x] -= dense[:, w] * handle.floor
    r, j = np.nonzero(dense)
    starts = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=model.n_rows)))).astype(np.int32)
    body = Rows(starts, j.astype(np.int32), dense[r, j], rows.lower, rows.upper)
    blocks = [body]
    if floors:
        arcs = np.arange(len(w))
        floor_rows = rows_from_entries(
            len(w),
            np.concatenate((arcs, arcs)),
            np.concatenate((w, x)),
            np.concatenate((np.ones(len(w)), -handle.floor)),
            GE,
            0.0,
        )
        first = handle.row_blocks.get("total_time", (model.n_rows, 0))[0]
        blocks = [body.slice(0, first), floor_rows, body.slice(first, model.n_rows)]
    out = LpModel()
    out.add_columns(model.lower, model.upper, model.objective)
    out.add_rows(blocks)
    return out


@pytest.fixture
def figure_instance():
    return make_figure_instance()


@pytest.fixture
def rng():
    return random.Random(20260808)


def chao_dir():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cand = os.environ.get("ORIENTEER_CHAO_DIR", os.path.join(here, "data", "chao"))
    return cand if os.path.isdir(cand) else None


def chao_path(name):
    root = chao_dir()
    if root is None:
        return None
    for suffix in (".txt", ""):
        p = os.path.join(root, name + suffix)
        if os.path.exists(p):
            return p
    return None


def require_chao(names=()):
    root = chao_dir()
    missing = [n for n in names if chao_path(n) is None]
    if root is None or missing:
        pytest.skip(
            "public benchmark files not present under data/chao "
            f"(missing: {missing or 'directory'}); see data/README.md for how "
            "to fetch them"
        )
    return root
