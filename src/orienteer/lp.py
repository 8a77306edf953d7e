"""Sparse LP container and the HiGHS engine behind it.

Models are built column-by-column and row-by-row, support cheap copies and
row appends (the cutting-plane loop lives on those), and are solved by
scipy's bundled HiGHS in one of two ways:

* ``solve``        - stateless ``linprog`` call: optimal, infeasible or
                     unbounded, or ``LpError`` when HiGHS cannot tell
* ``HighsSession`` - incremental engine for warm-started re-solves after row
                     appends and bound changes

The objective sense is always maximize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        self._cache = None

    # -- construction --------------------------------------------------

    def add_column(self, lower=0.0, upper=math.inf, objective=0.0):
        if math.isnan(lower) or math.isnan(upper) or not math.isfinite(objective):
            raise LpError("bad column data")
        if lower > upper:
            raise LpError(f"lower bound {lower} above upper bound {upper}")
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.objective.append(float(objective))
        self._cache = None
        return len(self.lower) - 1

    def add_row(self, coeffs, relation=None, rhs=None):
        row = coeffs if isinstance(coeffs, LpRow) else make_row(coeffs, relation, rhs)
        if row.indices and row.indices[-1] >= len(self.lower):
            raise LpError("row references unknown column")
        self.rows.append(row)
        self._cache = None
        return len(self.rows) - 1

    def set_objective(self, coeffs):
        obj = [0.0] * self.n_cols
        for j, v in coeffs:
            obj[j] = float(v)
        self.objective = obj
        self._cache = None

    def copy(self):
        out = LpModel.__new__(LpModel)
        out.lower = list(self.lower)
        out.upper = list(self.upper)
        out.objective = list(self.objective)
        out.rows = list(self.rows)
        out._cache = None
        return out

    @property
    def n_cols(self):
        return len(self.lower)

    @property
    def n_rows(self):
        return len(self.rows)

    # -- assembly for linprog ------------------------------------------

    def _assembled(self):
        """(A_ub, b_ub, A_eq, b_eq, row order map) with GE rows negated."""
        if self._cache is not None:
            return self._cache
        from scipy.sparse import csr_matrix

        def build(selected, flip):
            data, indices, indptr, rhs = [], [], [0], []
            for r, sign in zip(selected, flip):
                data.extend(sign * v for v in r.values)
                indices.extend(r.indices)
                indptr.append(len(indices))
                rhs.append(sign * r.rhs)
            if not rhs:
                return None, None
            mat = csr_matrix(
                (np.asarray(data), np.asarray(indices, dtype=np.int32), np.asarray(indptr, dtype=np.int32)),
                shape=(len(rhs), self.n_cols),
            )
            return mat, np.asarray(rhs)

        ub_rows = [(r, -1.0 if r.relation == GE else 1.0) for r in self.rows if r.relation != EQ]
        eq_rows = [(r, 1.0) for r in self.rows if r.relation == EQ]
        A_ub, b_ub = build([r for r, _ in ub_rows], [s for _, s in ub_rows])
        A_eq, b_eq = build([r for r, _ in eq_rows], [s for _, s in eq_rows])
        self._cache = (A_ub, b_ub, A_eq, b_eq)
        return self._cache

    def row_activities(self, x):
        return np.array([r.activity(x) for r in self.rows])


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float
    x: np.ndarray | None
    row_activity: np.ndarray | None

    @property
    def optimal(self):
        return self.status == "optimal"


def append_rows(model, cuts):
    """Pure row append: a grown copy, the model itself is left as it was."""
    out = model.copy()
    for item in cuts:
        if isinstance(item, LpRow):
            out.add_row(item)
        else:
            coeffs, relation, rhs = item
            out.add_row(coeffs, relation, rhs)
    return out


def solve(model, bounds_override=None):
    """Solve to proven optimality (or infeasible/unbounded status); raises
    ``LpError`` when HiGHS cannot classify the LP.

    ``bounds_override`` is an optional (n, 2) array of column bounds used in
    place of the model's own; branch-and-bound nodes rely on it to avoid
    copying the model for every bound fixing.
    """
    from scipy.optimize import linprog

    A_ub, b_ub, A_eq, b_eq = model._assembled()
    c = -np.asarray(model.objective)
    pairs = bounds_override if bounds_override is not None else zip(model.lower, model.upper)
    bounds = [
        (None if math.isinf(lo) else lo, None if math.isinf(up) else up)
        for lo, up in pairs
    ]
    def attempt(cost, presolve):
        return linprog(
            cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
            method="highs", options={"presolve": presolve},
        )

    res = attempt(c, True)
    if res.status in (2, 3):
        # presolve can conflate primal and dual infeasibility; a zero-cost
        # probe cannot (the dual is trivially feasible), so it settles
        # whether any point exists at all
        probe = attempt(np.zeros_like(c), True)
        if probe.status == 2:
            return LpSolution("infeasible", -math.inf, None, None)
        if probe.status == 0:
            return LpSolution("unbounded", math.inf, None, None)
        res = attempt(c, False)
    elif res.status != 0:
        res = attempt(c, False)
        if res.status not in (0, 2, 3):
            probe = attempt(np.zeros_like(c), True)
            if probe.status == 2:
                return LpSolution("infeasible", -math.inf, None, None)
    if res.status == 2:
        return LpSolution("infeasible", -math.inf, None, None)
    if res.status == 3:
        return LpSolution("unbounded", math.inf, None, None)
    if res.status != 0:
        raise LpError(f"HiGHS could not classify the LP: {res.message}")
    x = np.asarray(res.x)
    return LpSolution("optimal", float(np.dot(model.objective, x)), x, model.row_activities(x))


try:  # incremental engine: vendored HiGHS bindings (scipy >= 1.15)
    from scipy.optimize._highspy import _core as _hcore
except ImportError:  # pragma: no cover - depends on scipy build
    _hcore = None


def incremental_available():
    return _hcore is not None


class HighsSession:
    """Stateful LP session with warm-started re-solves.

    Bound changes and row appends reuse the previous basis (a warm restart
    inside the engine), which is what makes the search loops cheap.
    Falls back to ``None`` returns on engine hiccups; callers then use the
    stateless path.  Deterministic for a fixed call sequence.
    """

    def __init__(self, model):
        if _hcore is None:
            raise LpError("incremental engine unavailable")
        self._model = model
        self._h = _hcore._Highs()
        self._h.setOptionValue("output_flag", False)
        self._h.setOptionValue("threads", 1)
        n, m = model.n_cols, model.n_rows
        lp_obj = _hcore.HighsLp()
        lp_obj.num_col_ = n
        lp_obj.num_row_ = m
        lp_obj.col_cost_ = -np.asarray(model.objective)  # engine minimizes
        lp_obj.col_lower_ = np.asarray(model.lower)
        lp_obj.col_upper_ = np.asarray(model.upper)
        row_lower = np.empty(m)
        row_upper = np.empty(m)
        cols = [[] for _ in range(n)]
        for i, row in enumerate(model.rows):
            row_lower[i] = -math.inf if row.relation == LE else row.rhs
            row_upper[i] = math.inf if row.relation == GE else row.rhs
            for j, v in zip(row.indices, row.values):
                cols[j].append((i, v))
        starts = np.zeros(n + 1, dtype=np.int32)
        idx = []
        vals = []
        for j in range(n):
            for i, v in cols[j]:
                idx.append(i)
                vals.append(v)
            starts[j + 1] = len(idx)
        lp_obj.row_lower_ = row_lower
        lp_obj.row_upper_ = row_upper
        lp_obj.a_matrix_.format_ = _hcore.MatrixFormat.kColwise
        lp_obj.a_matrix_.start_ = starts
        lp_obj.a_matrix_.index_ = np.asarray(idx, dtype=np.int32)
        lp_obj.a_matrix_.value_ = np.asarray(vals)
        if self._h.passModel(lp_obj) != _hcore.HighsStatus.kOk:
            raise LpError("engine rejected the model")
        self._all_cols = np.arange(n, dtype=np.int32)
        self.n_rows = m

    def add_rows(self, rows):
        lower, upper, starts, idx, vals = [], [], [0], [], []
        for row in rows:
            lower.append(-math.inf if row.relation == LE else row.rhs)
            upper.append(math.inf if row.relation == GE else row.rhs)
            idx.extend(row.indices)
            vals.extend(row.values)
            starts.append(len(idx))
        status = self._h.addRows(
            len(rows),
            np.asarray(lower),
            np.asarray(upper),
            len(idx),
            np.asarray(starts[:-1], dtype=np.int32),
            np.asarray(idx, dtype=np.int32),
            np.asarray(vals),
        )
        if status != _hcore.HighsStatus.kOk:
            raise LpError("engine rejected appended rows")
        self.n_rows += len(rows)

    def solve(self, bounds_override=None):
        """LpSolution with status optimal/infeasible, or None when the
        engine cannot classify (caller re-solves statelessly)."""
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
            return None
        if status == _hcore.HighsModelStatus.kOptimal:
            x = np.asarray(self._h.getSolution().col_value)
            return LpSolution("optimal", float(np.dot(self._model.objective, x)), x, None)
        if status == _hcore.HighsModelStatus.kInfeasible:
            return LpSolution("infeasible", -math.inf, None, None)
        if status == _hcore.HighsModelStatus.kUnbounded:
            return LpSolution("unbounded", math.inf, None, None)
        return None


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
