"""LP/MILP formulations of the routing problem.

Two equivalent compact models are built over binary arc variables x, binary
visit variables y, one continuous value per arc, and a slack counting idle
vehicles:

* ``flow`` kind: the arc value f_ij is the time budget still available after
  traversing (i, j); every used vehicle leaves the origin with the full
  budget and spends it along its route.
* ``arrival`` kind: the arc value z_ij is the arrival time at j when coming
  from i.  The two are linked pointwise by z_ij = T * x_ij - f_ij.

The y variables stay materialized (never substituted out) because the cut
families are expressed on them, which keeps cuts sparse.

Row ordering is fixed and documented in ``FormulationHandle.row_blocks`` so
constraint counts and LP exports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import min_time_matrix
from .lp import EQ, GE, LE, LpModel


class FormulationError(ValueError):
    pass


@dataclass
class FormulationHandle:
    model: LpModel
    kind: str  # 'flow' | 'arrival'
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


def _base_columns(inst, model):
    arcs = inst.arcs()
    x_index = {a: model.add_column(0.0, 1.0, 0.0) for a in arcs}
    y_index = {}
    for i in sorted(inst.present):
        y_index[i] = model.add_column(0.0, 1.0, float(inst.rewards.get(i, 0)))
    flow_index = {a: model.add_column(0.0, math.inf, 0.0) for a in arcs}
    slack_index = model.add_column(0.0, float(inst.fleet_size), 0.0)
    return arcs, x_index, y_index, flow_index, slack_index


def _base_rows(inst, model, arcs, x_index, y_index, slack_index, blocks):
    s, t = inst.origin, inst.destination
    inner = sorted(inst.inner)
    out_arcs = {}
    in_arcs = {}
    for (i, j) in arcs:
        out_arcs.setdefault(i, []).append((i, j))
        in_arcs.setdefault(j, []).append((i, j))

    start = model.n_rows
    for i in sorted(inst.mandatory) + [s, t]:
        model.add_row([(y_index[i], 1.0)], EQ, 1.0)
    blocks["select"] = (start, model.n_rows - start)

    start = model.n_rows
    for i in inner:
        coeffs = [(x_index[a], 1.0) for a in out_arcs.get(i, [])]
        coeffs.append((y_index[i], -1.0))
        model.add_row(coeffs, EQ, 0.0)
    blocks["visit_degree"] = (start, model.n_rows - start)

    start = model.n_rows
    m = float(inst.fleet_size)
    model.add_row(
        [(x_index[a], 1.0) for a in out_arcs.get(s, [])] + [(slack_index, 1.0)], EQ, m
    )
    model.add_row(
        [(x_index[a], 1.0) for a in in_arcs.get(t, [])] + [(slack_index, 1.0)], EQ, m
    )
    blocks["fleet"] = (start, 2)

    start = model.n_rows
    for i in inner:
        coeffs = [(x_index[a], 1.0) for a in out_arcs.get(i, [])]
        coeffs += [(x_index[a], -1.0) for a in in_arcs.get(i, [])]
        model.add_row(coeffs, EQ, 0.0)
    blocks["balance"] = (start, model.n_rows - start)
    return out_arcs, in_arcs


def build_flow_formulation(inst):
    """Remaining-time commodity model.

    The per-arc flow lower bounds (f_ij >= R_jt x_ij) form the ``floor``
    block; they are valid inequalities rather than defining constraints, and
    the bench's impact modes drop the block to measure what it adds.
    """
    R = _prepare(inst)
    d = inst.travel_time
    T = inst.time_limit
    s = inst.origin
    t = inst.destination

    model = LpModel()
    arcs, x_index, y_index, flow_index, slack_index = _base_columns(inst, model)
    blocks = {}
    out_arcs, in_arcs = _base_rows(inst, model, arcs, x_index, y_index, slack_index, blocks)
    inner = sorted(inst.inner)

    start = model.n_rows
    for a in out_arcs.get(s, []):
        j = a[1]
        model.add_row([(flow_index[a], 1.0), (x_index[a], -(T - d[s, j]))], EQ, 0.0)
    blocks["depart"] = (start, model.n_rows - start)

    start = model.n_rows
    for i in inner:
        coeffs = [(flow_index[a], 1.0) for a in in_arcs.get(i, [])]
        coeffs += [(flow_index[a], -1.0) for a in out_arcs.get(i, [])]
        coeffs += [(x_index[a], -float(d[a])) for a in out_arcs.get(i, [])]
        model.add_row(coeffs, EQ, 0.0)
    blocks["consume"] = (start, model.n_rows - start)

    start = model.n_rows
    for a in arcs:
        i, j = a
        if i == s:
            continue
        model.add_row([(flow_index[a], 1.0), (x_index[a], -(T - R[s, i] - d[a]))], LE, 0.0)
    blocks["cap"] = (start, model.n_rows - start)

    start = model.n_rows
    for a in arcs:
        j = a[1]
        model.add_row([(flow_index[a], 1.0), (x_index[a], -R[j, t])], GE, 0.0)
    blocks["floor"] = (start, model.n_rows - start)

    return FormulationHandle(
        model=model,
        kind="flow",
        x_index=x_index,
        y_index=y_index,
        flow_index=flow_index,
        slack_index=slack_index,
        row_blocks=blocks,
        instance=inst,
        min_times=R,
    )


def build_arrival_formulation(inst, include_total_time_row=False):
    """Arrival-time model; optionally adds the aggregate row
    sum(d_ij x_ij) <= m*T, which is implied but kept by the baseline solver.
    """
    R = _prepare(inst)
    d = inst.travel_time
    T = inst.time_limit
    s = inst.origin
    t = inst.destination

    model = LpModel()
    arcs, x_index, y_index, flow_index, slack_index = _base_columns(inst, model)
    blocks = {}
    out_arcs, in_arcs = _base_rows(inst, model, arcs, x_index, y_index, slack_index, blocks)
    inner = sorted(inst.inner)

    start = model.n_rows
    for a in out_arcs.get(s, []):
        j = a[1]
        model.add_row([(flow_index[a], 1.0), (x_index[a], -d[s, j])], EQ, 0.0)
    blocks["depart"] = (start, model.n_rows - start)

    start = model.n_rows
    for i in inner:
        coeffs = [(flow_index[a], 1.0) for a in out_arcs.get(i, [])]
        coeffs += [(flow_index[a], -1.0) for a in in_arcs.get(i, [])]
        coeffs += [(x_index[a], -float(d[a])) for a in out_arcs.get(i, [])]
        model.add_row(coeffs, EQ, 0.0)
    blocks["consume"] = (start, model.n_rows - start)

    start = model.n_rows
    for a in arcs:
        j = a[1]
        model.add_row([(flow_index[a], 1.0), (x_index[a], -(T - R[j, t]))], LE, 0.0)
    blocks["cap"] = (start, model.n_rows - start)

    start = model.n_rows
    for a in arcs:
        i = a[0]
        model.add_row([(flow_index[a], 1.0), (x_index[a], -(R[s, i] + d[a]))], GE, 0.0)
    blocks["floor"] = (start, model.n_rows - start)

    if include_total_time_row:
        start = model.n_rows
        model.add_row(
            [(x_index[a], float(d[a])) for a in arcs], LE, float(inst.fleet_size) * T
        )
        blocks["total_time"] = (start, 1)

    return FormulationHandle(
        model=model,
        kind="arrival",
        x_index=x_index,
        y_index=y_index,
        flow_index=flow_index,
        slack_index=slack_index,
        row_blocks=blocks,
        instance=inst,
        min_times=R,
    )


def expected_row_counts(inst, kind, include_total_time_row=False):
    """Closed-form constraint counts implied by the vertex/arc sets."""
    arcs = inst.arcs()
    n_inner = len(inst.inner)
    n_from_s = sum(1 for a in arcs if a[0] == inst.origin)
    counts = {
        "select": len(inst.mandatory) + 2,
        "visit_degree": n_inner,
        "fleet": 2,
        "balance": n_inner,
        "depart": n_from_s,
        "consume": n_inner,
    }
    if kind == "flow":
        counts["cap"] = len(arcs) - n_from_s
        counts["floor"] = len(arcs)
    else:
        counts["cap"] = len(arcs)
        counts["floor"] = len(arcs)
        if include_total_time_row:
            counts["total_time"] = 1
    return counts


def map_solution(handle, sol, target):
    """Carry an optimal point of one formulation into the other.

    Arc values translate by f_ij = T * x_ij - z_ij (both directions); x, y
    and the idle-vehicle slack transfer verbatim.  Returns a full column
    vector for ``target``'s model.
    """
    if handle.instance is not target.instance or handle.kind == target.kind:
        raise FormulationError("need the two formulation kinds over one instance")
    T = handle.instance.time_limit
    out = np.zeros(target.model.n_cols)
    for a, c in handle.x_index.items():
        out[target.x_index[a]] = sol.x[c]
    for i, c in handle.y_index.items():
        out[target.y_index[i]] = sol.x[c]
    for a, c in handle.flow_index.items():
        out[target.flow_index[a]] = T * sol.x[handle.x_index[a]] - sol.x[c]
    out[target.slack_index] = sol.x[handle.slack_index]
    return out


def point_violations(handle, point, tol=1e-6):
    """Row and bound violations of a full column vector; empty when feasible."""
    bad = []
    model = handle.model
    for j in range(model.n_cols):
        if point[j] < model.lower[j] - tol or point[j] > model.upper[j] + tol:
            bad.append(("bound", j, float(point[j])))
    for ridx, row in enumerate(model.rows):
        if not row.satisfied(point, tol):
            bad.append(("row", ridx, float(row.activity(point))))
    return bad
