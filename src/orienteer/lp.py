"""Sparse LP container and the HiGHS engine behind it.

Models are built column-by-column and row-by-row, support cheap copies and
row appends (the cutting-plane loop lives on those), and are solved by the
HiGHS engine bundled with scipy (>= 1.15), used in one of two ways:

* ``solve``        - one-shot solve on a fresh engine: optimal, infeasible or
                     unbounded, or ``LpError`` when HiGHS cannot tell
* ``HighsSession`` - one engine kept for warm-started re-solves after row
                     appends and bound changes; it settles an LP its engine
                     cannot classify with ``solve`` and counts it

``_engine`` is the one place a model becomes an engine, and ``row_arrays``
the one place rows become sparse arrays.  The objective sense is always
maximize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _hcore

LE, EQ, GE = "<=", "=", ">="

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9


class LpError(RuntimeError):
    """Numeric failure or malformed model; never silently swallowed."""


@dataclass(frozen=True)
class LpRow:
    indices: tuple
    values: tuple
    relation: str
    rhs: float

    def activity(self, x):
        return float(sum(v * x[j] for j, v in zip(self.indices, self.values)))

    def satisfied(self, x, tol=FEASIBILITY_TOL):
        a = self.activity(x)
        if self.relation == LE:
            return a <= self.rhs + tol
        if self.relation == GE:
            return a >= self.rhs - tol
        return abs(a - self.rhs) <= tol


def row_arrays(rows):
    """(starts, indices, values, row_lower, row_upper) of ``rows`` in CSR
    form: row k holds ``indices/values[starts[k]:starts[k + 1]]`` and ranges
    over [row_lower[k], row_upper[k]]."""
    lengths = np.fromiter((len(r.indices) for r in rows), dtype=np.int32, count=len(rows))
    starts = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(lengths, out=starts[1:])
    nnz = int(starts[-1])
    indices = np.fromiter((j for r in rows for j in r.indices), dtype=np.int32, count=nnz)
    values = np.fromiter((v for r in rows for v in r.values), dtype=float, count=nnz)
    row_lower = np.array([-math.inf if r.relation == LE else r.rhs for r in rows], dtype=float)
    row_upper = np.array([math.inf if r.relation == GE else r.rhs for r in rows], dtype=float)
    return starts, indices, values, row_lower, row_upper


def make_row(coeffs, relation, rhs):
    if relation not in (LE, EQ, GE):
        raise LpError(f"unknown relation {relation!r}")
    pairs = sorted((int(j), float(v)) for j, v in coeffs)
    idx = tuple(j for j, _ in pairs)
    if len(set(idx)) != len(idx):
        raise LpError("duplicate column in row")
    vals = tuple(v for _, v in pairs)
    for v in vals:
        if not math.isfinite(v):
            raise LpError("non-finite row coefficient")
    if math.isnan(rhs):
        raise LpError("NaN rhs")
    return LpRow(idx, vals, relation, float(rhs))


class LpModel:
    """Maximization LP with bounded columns and sparse rows."""

    def __init__(self):
        self.lower = []
        self.upper = []
        self.objective = []
        self.rows = []

    # -- construction --------------------------------------------------

    def add_column(self, lower=0.0, upper=math.inf, objective=0.0):
        if math.isnan(lower) or math.isnan(upper) or not math.isfinite(objective):
            raise LpError("bad column data")
        if lower > upper:
            raise LpError(f"lower bound {lower} above upper bound {upper}")
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        return len(self.lower) - 1

    def add_row(self, coeffs, relation=None, rhs=None):
        row = coeffs if isinstance(coeffs, LpRow) else make_row(coeffs, relation, rhs)
        if row.indices and row.indices[-1] >= len(self.lower):
            raise LpError("row references unknown column")
        self.rows.append(row)
        return len(self.rows) - 1

    def set_objective(self, coeffs):
        obj = [0.0] * self.n_cols
        for j, v in coeffs:
            obj[j] = float(v)
        self.objective = obj

    def copy(self):
        out = LpModel.__new__(LpModel)
        out.lower = list(self.lower)
        out.upper = list(self.upper)
        out.objective = list(self.objective)
        out.rows = list(self.rows)
        return out

    @property
    def n_cols(self):
        return len(self.lower)

    @property
    def n_rows(self):
        return len(self.rows)

    def split_rows(self, picked):
        """(copy of the model without the rows numbered in ``picked``, those
        rows in model order)."""
        picked = set(picked)
        rest = self.copy()
        rest.rows = [r for i, r in enumerate(self.rows) if i not in picked]
        return rest, [r for i, r in enumerate(self.rows) if i in picked]


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float
    x: np.ndarray | None


def _engine(model, bounds=None, cost=None):
    """A fresh HiGHS engine holding ``model`` (rows in model order, as CSR),
    quiet and on one thread.  ``bounds`` is an optional (n, 2) array of column
    bounds in place of the model's own; ``cost`` replaces the engine's
    objective, which is minimized (the model's negated by default)."""
    h = _hcore._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("threads", 1)
    starts, indices, values, row_lower, row_upper = row_arrays(model.rows)
    lp_obj = _hcore.HighsLp()
    lp_obj.num_col_ = model.n_cols
    lp_obj.num_row_ = model.n_rows
    lp_obj.col_cost_ = -np.asarray(model.objective) if cost is None else cost
    if bounds is None:
        lp_obj.col_lower_ = np.asarray(model.lower)
        lp_obj.col_upper_ = np.asarray(model.upper)
    else:
        lp_obj.col_lower_ = np.ascontiguousarray(bounds[:, 0])
        lp_obj.col_upper_ = np.ascontiguousarray(bounds[:, 1])
    lp_obj.row_lower_ = row_lower
    lp_obj.row_upper_ = row_upper
    lp_obj.a_matrix_.format_ = _hcore.MatrixFormat.kRowwise
    lp_obj.a_matrix_.start_ = starts
    lp_obj.a_matrix_.index_ = indices
    lp_obj.a_matrix_.value_ = values
    if h.passModel(lp_obj) != _hcore.HighsStatus.kOk:
        raise LpError("engine rejected the model")
    return h


def _verdict(engine, status, objective):
    """LpSolution for a classified engine status, else None."""
    if status == _hcore.HighsModelStatus.kOptimal:
        x = np.asarray(engine.getSolution().col_value)
        return LpSolution("optimal", float(np.dot(objective, x)), x)
    if status == _hcore.HighsModelStatus.kInfeasible:
        return LpSolution("infeasible", -math.inf, None)
    if status == _hcore.HighsModelStatus.kUnbounded:
        return LpSolution("unbounded", math.inf, None)
    return None


def solve(model, bounds_override=None):
    """Solve to proven optimality (or infeasible/unbounded status) on fresh
    engines; raises ``LpError`` when HiGHS cannot classify the LP.

    ``bounds_override`` is an optional (n, 2) array of column bounds used in
    place of the model's own; branch-and-bound nodes rely on it to avoid
    copying the model for every bound fixing.
    """
    status_of = _hcore.HighsModelStatus

    def attempt(cost=None, presolve=True):
        h = _engine(model, bounds_override, cost)
        if not presolve:
            h.setOptionValue("presolve", "off")
        h.run()
        return h, h.getModelStatus()

    h, status = attempt()
    if status in (status_of.kInfeasible, status_of.kUnbounded, status_of.kUnboundedOrInfeasible):
        # presolve can conflate primal and dual infeasibility; a zero-cost
        # probe cannot (the dual is trivially feasible), so it settles
        # whether any point exists at all
        _, probe = attempt(cost=np.zeros(model.n_cols))
        if probe == status_of.kInfeasible:
            return LpSolution("infeasible", -math.inf, None)
        if probe == status_of.kOptimal:
            return LpSolution("unbounded", math.inf, None)
    if status != status_of.kOptimal:
        h, status = attempt(presolve=False)
    sol = _verdict(h, status, model.objective)
    if sol is None:
        raise LpError(
            f"HiGHS could not classify the LP: model status {h.modelStatusToString(status)}"
        )
    return sol


def incremental_available():
    """Always true: the incremental engine is part of scipy >= 1.15.  Kept
    for the benchmark's environment record."""
    return True


class HighsSession:
    """Stateful LP session with warm-started re-solves.

    Bound changes and row appends reuse the previous basis (a warm restart
    inside the engine), which is what makes the search loops cheap.  Rows
    go through ``add_rows`` only, which appends them to the session's model
    and to the engine alike.  ``solve`` always classifies: when the engine
    raises or ends in a status other than optimal, infeasible or unbounded,
    ``solve`` settles the LP the engine holds on fresh engines, leaving the
    session's own engine as it was, and ``fallbacks`` counts it.
    Deterministic for a fixed call sequence, however many calls fall back.

    HiGHS with presolve may report a feasible LP with an unbounded objective
    as infeasible, and the session trusts that verdict.  It is exact for LPs
    whose objective is bounded above, as in every formulation here: only the
    visit columns, bounded in [0, 1], carry reward.
    """

    def __init__(self, model):
        self._model = model
        self._bounds = None  # the last override: the engine keeps column bounds
        self.fallbacks = 0
        self._h = _engine(model)
        self._all_cols = np.arange(model.n_cols, dtype=np.int32)

    def add_rows(self, rows):
        starts, indices, values, row_lower, row_upper = row_arrays(rows)
        status = self._h.addRows(
            len(rows), row_lower, row_upper, len(indices), starts[:-1], indices, values
        )
        if status != _hcore.HighsStatus.kOk:
            raise LpError("engine rejected appended rows")
        for row in rows:
            self._model.add_row(row)

    def solve(self, bounds_override=None):
        """LpSolution with status optimal, infeasible or unbounded; column
        bounds from ``bounds_override`` stay in force for later calls."""
        if bounds_override is not None:
            self._bounds = bounds_override
        try:
            if bounds_override is not None:
                self._h.changeColsBounds(
                    len(self._all_cols),
                    self._all_cols,
                    np.ascontiguousarray(bounds_override[:, 0]),
                    np.ascontiguousarray(bounds_override[:, 1]),
                )
            self._h.run()
            status = self._h.getModelStatus()
        except Exception:
            status = None
        sol = _verdict(self._h, status, self._model.objective)
        if sol is not None:
            return sol
        self.fallbacks += 1
        return solve(self._model, self._bounds)


def export_lp_text(model, name="model"):
    """Human-readable LP-format dump for debugging (not bit-critical)."""
    out = [f"\\ {name}", "Maximize", " obj:"]
    terms = [
        f" {'+' if v >= 0 else '-'} {abs(v):.17g} x{j}"
        for j, v in enumerate(model.objective)
        if v != 0.0
    ]
    out[-1] += "".join(terms) if terms else " 0 x0"
    out.append("Subject To")
    rel = {LE: "<=", GE: ">=", EQ: "="}
    for i, r in enumerate(model.rows):
        body = "".join(
            f" {'+' if v >= 0 else '-'} {abs(v):.17g} x{j}" for j, v in zip(r.indices, r.values)
        )
        out.append(f" r{i}:{body} {rel[r.relation]} {r.rhs:.17g}")
    out.append("Bounds")
    for j, (lo, up) in enumerate(zip(model.lower, model.upper)):
        lo_s = "-inf" if math.isinf(lo) else f"{lo:.17g}"
        up_s = "+inf" if math.isinf(up) else f"{up:.17g}"
        out.append(f" {lo_s} <= x{j} <= {up_s}")
    out.append("End")
    return "\n".join(out) + "\n"
