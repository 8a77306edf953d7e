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
coefficients of the four per-arc value blocks (R: shortest times, d: travel
times, s/t: origin/destination, in(i)/out(i): arcs entering/leaving i):

  block     row                                    flow: c                  arrival: c
  depart    v_sj = c x_sj                          T - d_sj                 d_sj
  consume   v(out(i)) - v(in(i)) = c (dx)(out(i))  -1                       +1
  cap       v_ij <= c x_ij                         T - R_si - d_ij, i != s  T - R_jt
  floor     v_ij >= c x_ij                         R_jt                     R_si + d_ij

The arrival kind may add one ``total_time`` row, sum d_ij x_ij <= m T.

The y variables stay materialized (never substituted out) because the cut
families are expressed on them, which keeps cuts sparse.

Row ordering is fixed and documented in ``FormulationHandle.row_blocks`` so
constraint counts and LP exports are deterministic.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .instance import min_time_matrix
from .lp import EQ, GE, LE, LpModel


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


def _build(inst, R, depart, consume, cap, floor):
    """The model of one kind from its coefficient tables.

    ``depart``, ``cap`` and ``floor`` map arcs to c, in row order, for the
    rows v = c x, v <= c x and v >= c x over each arc's value column v;
    ``consume`` holds the signs of the values entering and leaving a vertex.
    """
    s, t = inst.origin, inst.destination
    d = inst.travel_time
    arcs = inst.arcs()
    inner = sorted(inst.inner)
    out_arcs = defaultdict(list)
    in_arcs = defaultdict(list)
    for (i, j) in arcs:
        out_arcs[i].append((i, j))
        in_arcs[j].append((i, j))

    model = LpModel()
    x_index = {a: model.add_column(0.0, 1.0, 0.0) for a in arcs}
    y_index = {}
    for i in sorted(inst.present):
        y_index[i] = model.add_column(0.0, 1.0, float(inst.rewards.get(i, 0)))
    flow_index = {a: model.add_column(0.0, math.inf, 0.0) for a in arcs}
    slack_index = model.add_column(0.0, float(inst.fleet_size), 0.0)

    blocks = {}

    def block(name, rows):
        start = model.n_rows
        for coeffs, relation, rhs in rows:
            model.add_row(coeffs, relation, rhs)
        blocks[name] = (start, model.n_rows - start)

    def x_sum(arc_list, sign=1.0):
        return [(x_index[a], sign) for a in arc_list]

    def value_rows(table, relation):
        return [([(flow_index[a], 1.0), (x_index[a], -c)], relation, 0.0) for a, c in table.items()]

    m = float(inst.fleet_size)
    sign_in, sign_out = consume
    block("select", [([(y_index[i], 1.0)], EQ, 1.0) for i in sorted(inst.mandatory) + [s, t]])
    block("visit_degree", [(x_sum(out_arcs[i]) + [(y_index[i], -1.0)], EQ, 0.0) for i in inner])
    block(
        "fleet",
        [(x_sum(ends[v]) + [(slack_index, 1.0)], EQ, m) for ends, v in ((out_arcs, s), (in_arcs, t))],
    )
    block("balance", [(x_sum(out_arcs[i]) + x_sum(in_arcs[i], -1.0), EQ, 0.0) for i in inner])
    block("depart", value_rows(depart, EQ))
    consume_rows = []
    for i in inner:
        coeffs = [(flow_index[a], sign_in) for a in in_arcs[i]]
        coeffs += [(flow_index[a], sign_out) for a in out_arcs[i]]
        coeffs += [(x_index[a], -float(d[a])) for a in out_arcs[i]]
        consume_rows.append((coeffs, EQ, 0.0))
    block("consume", consume_rows)
    block("cap", value_rows(cap, LE))
    block("floor", value_rows(floor, GE))

    return FormulationHandle(
        model=model,
        x_index=x_index,
        y_index=y_index,
        flow_index=flow_index,
        slack_index=slack_index,
        row_blocks=blocks,
        instance=inst,
        min_times=R,
    )


def build_flow_formulation(inst):
    """Remaining-time commodity model.

    The per-arc flow lower bounds (f_ij >= R_jt x_ij) form the ``floor``
    block; they are valid inequalities rather than defining constraints, and
    the bench's impact modes drop the block to measure what it adds.
    """
    R = _prepare(inst)
    d, T, s, t = inst.travel_time, inst.time_limit, inst.origin, inst.destination
    arcs = inst.arcs()
    return _build(
        inst,
        R,
        depart={a: T - d[a] for a in arcs if a[0] == s},
        consume=(1.0, -1.0),
        cap={a: T - R[s, a[0]] - d[a] for a in arcs if a[0] != s},
        floor={a: R[a[1], t] for a in arcs},
    )


def build_arrival_formulation(inst, include_total_time_row=False):
    """Arrival-time model; optionally adds the aggregate row
    sum(d_ij x_ij) <= m*T, which is implied but kept by the baseline solver.
    """
    R = _prepare(inst)
    d, T, s, t = inst.travel_time, inst.time_limit, inst.origin, inst.destination
    arcs = inst.arcs()
    handle = _build(
        inst,
        R,
        depart={a: d[a] for a in arcs if a[0] == s},
        consume=(-1.0, 1.0),
        cap={a: T - R[a[1], t] for a in arcs},
        floor={a: R[s, a[0]] + d[a] for a in arcs},
    )
    if include_total_time_row:
        model = handle.model
        handle.row_blocks["total_time"] = (model.n_rows, 1)
        model.add_row(
            [(handle.x_index[a], float(d[a])) for a in arcs], LE, float(inst.fleet_size) * T
        )
    return handle
