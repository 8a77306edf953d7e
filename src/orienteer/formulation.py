"""LP/MILP formulations of the routing problem.

Two equivalent compact models are built over binary arc variables x, binary
visit variables y, one continuous value v per arc, and a slack counting idle
vehicles:

* ``flow`` kind: the arc value f_ij is the time budget still available after
  traversing (i, j); every used vehicle leaves the origin with the full
  budget and spends it along its route.
* ``arrival`` kind: the arc value z_ij is the arrival time at j when coming
  from i.  The two are linked pointwise by z_ij = T * x_ij - f_ij.

The kinds share every row on x, y and the slack, and differ only in the
coefficients of the per-arc value rows (R: shortest times, d: travel times,
s/t: origin/destination, in(i)/out(i): arcs entering/leaving i):

  block     row                                    flow: c                  arrival: c
  depart    v_sj = c x_sj                          T - d_sj                 d_sj
  consume   v(out(i)) - v(in(i)) = c (dx)(out(i))  -1                       +1
  cap       v_ij <= c x_ij                         T - R_si - d_ij, i != s  T - R_jt
  floor     v_ij >= c x_ij                         R_jt                     R_si + d_ij

No floor row is written: an arc's column is w_ij = v_ij - c_ij x_ij, c_ij its
floor coefficient, so its floor is the column bound w_ij >= 0 and the other
rows take v_ij as w_ij + c_ij x_ij.  The arrival kind may add one
``total_time`` row, sum d_ij x_ij <= m T.

The y variables stay materialized (never substituted out) because the cut
families are expressed on them, which keeps cuts sparse.

The emitter builds no row object: columns join the model a block at a time,
and each row block is computed over the instance's arc arrays
(``StopInstance.arc_arrays``) as (row, column, value) entry arrays, put in
CSR form by ``lp.rows_from_entries`` and appended to the model's row store
in one checked append.  Row ordering is fixed and documented in
``FormulationHandle.row_blocks`` so constraint counts and LP exports are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import min_time_matrix
from .lp import EQ, GE, LE, LpModel, rows_from_entries


class FormulationError(ValueError):
    pass


@dataclass
class FormulationHandle:
    model: LpModel
    x_index: dict
    y_index: dict
    flow_index: dict
    slack_index: int
    row_blocks: dict
    instance: object
    min_times: np.ndarray
    floor: np.ndarray  # c by arc, in arc order: the value v = w + c x of columns w, x

    def point_from_solution(self, sol):
        """(x values by arc, y values by vertex) of an LP solution."""
        xv = {a: float(sol.x[c]) for a, c in self.x_index.items()}
        yv = {i: float(sol.x[c]) for i, c in self.y_index.items()}
        return xv, yv


def _prepare(inst):
    s, t = inst.origin, inst.destination
    if np.any(inst.arc_mask[:, s]) or np.any(inst.arc_mask[t, :]):
        raise FormulationError(
            "arcs entering the origin or leaving the destination must be "
            "removed first (run preprocess)"
        )
    R = inst.min_times if inst.min_times is not None else min_time_matrix(inst).values
    for i in sorted(inst.mandatory):
        if R[s, i] + R[i, t] > inst.time_limit:
            raise FormulationError(f"mandatory vertex {i} cannot be routed within the limit")
    return R


def _rows(count, parts, relation, rhs):
    """A block of ``count`` rows ``relation rhs`` from entry parts (rows,
    columns, value), each part's value one number or one per entry; entries
    of value 0 are left out."""
    rows, cols, vals = zip(*parts)
    val = np.concatenate([np.broadcast_to(v, len(r)) for r, v in zip(rows, vals)])
    keep = val != 0
    row, col = np.concatenate(rows)[keep], np.concatenate(cols)[keep]
    return rows_from_entries(count, row, col, val[keep], relation, rhs)


def _build(inst, R, depart, consume, cap, floor):
    """The model of one kind from its coefficient tables.

    ``depart`` and ``cap`` are pairs (arc ids, c), the ids ascending in arc
    order, for the rows v = c x and v <= c x over each arc's value v, taken
    as w + floor x over its column w; ``consume`` holds the signs of the
    values entering and leaving a vertex.  Each row block is emitted as
    arrays of (row, column, value) entries, sorted into CSR form, and all
    blocks join the model in one append.
    """
    s, t = inst.origin, inst.destination
    tails, heads, d, _ = _arc_tables(inst)
    n_arcs = len(tails)
    present = sorted(inst.present)
    inner = sorted(inst.inner)

    model = LpModel()
    zeros, ones = np.zeros(n_arcs), np.ones(n_arcs)
    xs = model.add_columns(zeros, ones, zeros)
    ys = model.add_columns(
        np.zeros(len(present)), np.ones(len(present)), [float(inst.rewards.get(i, 0)) for i in present]
    )
    fs = model.add_columns(zeros, np.full(n_arcs, math.inf), zeros)
    slack_index = model.add_columns([0.0], [float(inst.fleet_size)], [0.0]).start
    arcs = inst.arcs()
    x_index = dict(zip(arcs, xs))
    y_index = dict(zip(present, ys))
    flow_index = dict(zip(arcs, fs))
    x_col, f_col = np.arange(xs.start, xs.stop), np.arange(fs.start, fs.stop)
    y_col = np.full(inst.vertex_count, -1)
    y_col[present] = ys

    # the row of each inner vertex in the per-vertex blocks, -1 elsewhere
    k = len(inner)
    pos = np.full(inst.vertex_count, -1)
    pos[inner] = np.arange(k)
    out_row, in_row = pos[tails], pos[heads]
    leaves, enters = out_row >= 0, in_row >= 0  # arcs out of / into an inner vertex
    out_row, in_row = out_row[leaves], in_row[enters]

    def value_rows(table, relation):
        ids, c = table
        rows = np.arange(len(ids))
        return _rows(len(ids), [(rows, x_col[ids], floor[ids] - c), (rows, f_col[ids], 1.0)], relation, 0.0)

    sign_in, sign_out = consume
    chosen = sorted(inst.mandatory) + [s, t]
    from_s, to_t = tails == s, heads == t
    blocks = {
        "select": _rows(len(chosen), [(np.arange(len(chosen)), y_col[chosen], 1.0)], EQ, 1.0),
        "visit_degree": _rows(
            k, [(out_row, x_col[leaves], 1.0), (np.arange(k), y_col[inner], -1.0)], EQ, 0.0
        ),
        "fleet": _rows(
            2,
            [
                (np.zeros(from_s.sum(), int), x_col[from_s], 1.0),
                (np.ones(to_t.sum(), int), x_col[to_t], 1.0),
                (np.arange(2), np.full(2, slack_index), 1.0),
            ],
            EQ,
            float(inst.fleet_size),
        ),
        "balance": _rows(k, [(out_row, x_col[leaves], 1.0), (in_row, x_col[enters], -1.0)], EQ, 0.0),
        "depart": value_rows(depart, EQ),
        "consume": _rows(
            k,
            [
                (in_row, f_col[enters], sign_in),
                (in_row, x_col[enters], sign_in * floor[enters]),
                (out_row, f_col[leaves], sign_out),
                (out_row, x_col[leaves], sign_out * floor[leaves] - d[leaves]),
            ],
            EQ,
            0.0,
        ),
        "cap": value_rows(cap, LE),
    }
    model.add_rows(list(blocks.values()))

    row_blocks = {}
    start = 0
    for name, block in blocks.items():
        row_blocks[name] = (start, len(block))
        start += len(block)
    return FormulationHandle(
        model=model,
        x_index=x_index,
        y_index=y_index,
        flow_index=flow_index,
        slack_index=slack_index,
        row_blocks=row_blocks,
        instance=inst,
        min_times=R,
        floor=floor,
    )


def _arc_tables(inst):
    """(tails, heads, travel times) of the present arcs in arc order, and
    the ids of the arcs leaving the origin."""
    tails, heads, _ = inst.arc_arrays
    return tails, heads, inst.travel_time[tails, heads], np.flatnonzero(tails == inst.origin)


def build_flow_formulation(inst, floors=True):
    """Remaining-time commodity model.

    The per-arc flow lower bounds f_ij >= R_jt x_ij, valid inequalities
    rather than defining constraints, are the column bounds of the shifted
    values f_ij - R_jt x_ij.  ``floors`` false sets every R_jt here to 0: the
    model without those bounds, whose gap the bench's impact modes measure.
    """
    R = _prepare(inst)
    T, s, t = inst.time_limit, inst.origin, inst.destination
    tails, heads, d, from_s = _arc_tables(inst)
    rest = np.flatnonzero(tails != s)
    return _build(
        inst,
        R,
        depart=(from_s, T - d[from_s]),
        consume=(1.0, -1.0),
        cap=(rest, T - R[s, tails[rest]] - d[rest]),
        floor=R[heads, t] if floors else np.zeros(len(tails)),
    )


def build_arrival_formulation(inst, include_total_time_row=False, floors=True):
    """Arrival-time model; optionally adds the aggregate row
    sum(d_ij x_ij) <= m*T, which is implied but kept by the baseline solver.
    ``floors`` as for ``build_flow_formulation``, on z_ij >= (R_si + d_ij) x_ij.
    """
    R = _prepare(inst)
    T, s, t = inst.time_limit, inst.origin, inst.destination
    tails, heads, d, from_s = _arc_tables(inst)
    ids = np.arange(len(tails))
    handle = _build(
        inst,
        R,
        depart=(from_s, d[from_s]),
        consume=(-1.0, 1.0),
        cap=(ids, T - R[heads, t]),
        floor=R[s, tails] + d if floors else np.zeros(len(ids)),
    )
    if include_total_time_row:
        model = handle.model
        handle.row_blocks["total_time"] = (model.n_rows, 1)
        x_cols = np.fromiter(handle.x_index.values(), dtype=np.int64, count=len(ids))
        model.add_rows(_rows(1, [(np.zeros(len(ids), int), x_cols, d)], LE, float(inst.fleet_size) * T))
    return handle
