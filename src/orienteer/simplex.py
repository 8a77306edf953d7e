"""Bundled dense bounded-variable simplex.

A self-contained reference engine, independent of HiGHS, that the LP tests
check ``lp.solve`` against; the solver itself never calls it.  Two phases:
the dual simplex on a zero objective chases primal feasibility, then the
primal simplex optimizes.  Dantzig pricing with a Bland fallback once
degeneracy stalls.  Feasibility tolerance 1e-7, optimality tolerance 1e-9.

Dense explicit basis inverses cap practical size at a few thousand rows.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import FEASIBILITY_TOL, OPTIMALITY_TOL, LpError, LpSolution

AT_LOWER, AT_UPPER, BASIC, FREE = 0, 1, 2, 3

MAX_ITER = 200_000
REFACTOR_EVERY = 100
BLAND_AFTER = 400  # consecutive non-improving pivots


class _Tableau:
    def __init__(self, model):
        n, m = model.n_cols, model.n_rows
        self.n, self.m = n, m
        self.A = np.zeros((m, n + m))
        self.b = np.empty(m)
        lower = np.empty(n + m)
        upper = np.empty(n + m)
        lower[:n] = model.lower
        upper[:n] = model.upper
        rows = model.rows
        self.A[np.repeat(np.arange(m), np.diff(rows.starts)), rows.indices] = rows.values
        self.A[np.arange(m), n + np.arange(m)] = 1.0
        # row i reads a x + s_i = b_i, its slack s_i in [0, inf) for <=,
        # (-inf, 0] for >= and [0, 0] for =
        le, ge = rows.lower == -math.inf, rows.upper == math.inf
        self.b[:] = np.where(le, rows.upper, rows.lower)
        lower[n:] = np.where(ge, -math.inf, 0.0)
        upper[n:] = np.where(le, math.inf, 0.0)
        self.lower, self.upper = lower, upper
        self.c = np.zeros(n + m)
        self.c[:n] = model.objective

        self.basis = np.arange(n, n + m)
        self.status = np.empty(n + m, dtype=np.int8)
        for j in range(n + m):
            self.status[j] = self._default_status(j)
        self.status[self.basis] = BASIC
        self.binv = np.eye(m)
        self.pivots = 0

    def _default_status(self, j):
        lo, up = self.lower[j], self.upper[j]
        if math.isinf(lo) and math.isinf(up):
            return FREE
        if math.isinf(lo):
            return AT_UPPER
        return AT_LOWER

    # -- basic quantities -------------------------------------------------

    def nonbasic_values(self):
        vals = np.where(self.status == AT_LOWER, self.lower, 0.0)
        vals = np.where(self.status == AT_UPPER, self.upper, vals)
        vals[self.basis] = 0.0
        return vals

    def solution(self):
        x = self.nonbasic_values()
        xb = self.binv @ (self.b - self.A @ x)
        x[self.basis] = xb
        return x, xb

    def refactor(self):
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise LpError("singular basis during refactorization") from exc

    def pivot(self, row, col):
        """Column `col` enters the basis at position `row`."""
        d = self.binv @ self.A[:, col]
        piv = d[row]
        if abs(piv) < 1e-11:
            self.refactor()
            d = self.binv @ self.A[:, col]
            piv = d[row]
            if abs(piv) < 1e-11:
                raise LpError("numerically singular pivot")
        self.binv[row] /= piv
        others = [i for i in range(self.m) if i != row]
        self.binv[others] -= np.outer(d[others], self.binv[row])
        self.basis[row] = col
        self.status[col] = BASIC
        self.pivots += 1
        if self.pivots % REFACTOR_EVERY == 0:
            self.refactor()

    def reduced_costs(self, c):
        y = c[self.basis] @ self.binv
        return c - y @ self.A


def _dual_simplex(t, c, tol=FEASIBILITY_TOL):
    """Drive primal feasibility while keeping reduced-cost signs for `c`.

    Returns 'feasible' or 'infeasible'.
    """
    stall = 0
    last_measure = math.inf
    for _ in range(MAX_ITER):
        x, xb = t.solution()
        lo_b, up_b = t.lower[t.basis], t.upper[t.basis]
        below = lo_b - xb
        above = xb - up_b
        viol = np.maximum(below, above)
        worst = float(viol.max(initial=-math.inf))
        if worst <= tol:
            return "feasible"
        measure = float(np.clip(viol, 0.0, None).sum())
        stall = stall + 1 if measure >= last_measure - 1e-12 else 0
        last_measure = min(last_measure, measure)
        if stall > BLAND_AFTER:
            candidates = np.nonzero(viol > tol)[0]
            p = int(candidates[np.argmin(t.basis[candidates])])
        else:
            p = int(np.argmax(viol))
        leaving_low = below[p] > above[p]  # basic sits below its lower bound

        r = t.reduced_costs(c)
        alpha = t.binv[p] @ t.A
        eligible = np.zeros(t.n + t.m, dtype=bool)
        nb_low = t.status == AT_LOWER
        nb_up = t.status == AT_UPPER
        nb_free = t.status == FREE
        if leaving_low:
            eligible = (nb_low & (alpha < -tol)) | (nb_up & (alpha > tol)) | (nb_free & (np.abs(alpha) > tol))
        else:
            eligible = (nb_low & (alpha > tol)) | (nb_up & (alpha < -tol)) | (nb_free & (np.abs(alpha) > tol))
        idx = np.nonzero(eligible)[0]
        if idx.size == 0:
            return "infeasible"
        ratios = np.abs(r[idx]) / np.abs(alpha[idx])
        if stall > BLAND_AFTER:
            q = int(idx[ratios <= ratios.min() + 1e-12][0])
        else:
            best = ratios.min()
            near = idx[ratios <= best + 1e-9]
            q = int(near[np.argmax(np.abs(alpha[near]))])
        leaving = t.basis[p]
        t.pivot(p, q)
        # a basic below its lower bound leaves at that bound, and conversely
        t.status[leaving] = AT_LOWER if leaving_low else AT_UPPER
    raise LpError("dual simplex iteration limit hit")


def _primal_simplex(t, tol=OPTIMALITY_TOL):
    """Maximize once primal feasible.  Returns 'optimal' or 'unbounded'."""
    c = t.c
    stall = 0
    last_obj = -math.inf
    for _ in range(MAX_ITER):
        r = t.reduced_costs(c)
        nb_low = t.status == AT_LOWER
        nb_up = t.status == AT_UPPER
        nb_free = t.status == FREE
        improving = (nb_low & (r > tol)) | (nb_up & (r < -tol)) | (nb_free & (np.abs(r) > tol))
        idx = np.nonzero(improving)[0]
        if idx.size == 0:
            return "optimal"
        if stall > BLAND_AFTER:
            j = int(idx[0])
        else:
            j = int(idx[np.argmax(np.abs(r[idx]))])
        direction = 1.0 if (t.status[j] != AT_UPPER) else -1.0
        if t.status[j] == FREE and r[j] < 0:
            direction = -1.0

        x, xb = t.solution()
        d = t.binv @ t.A[:, j]
        step = d * direction
        lo_b, up_b = t.lower[t.basis], t.upper[t.basis]
        limit = math.inf
        arg = -1
        hit_bound = None
        dn = step > 1e-11
        up = step < -1e-11
        with np.errstate(invalid="ignore"):
            t_dn = np.where(dn, (xb - lo_b) / np.where(dn, step, 1.0), math.inf)
            t_up = np.where(up, (up_b - xb) / np.where(up, -step, 1.0), math.inf)
        t_dn = np.where(np.isnan(t_dn), math.inf, t_dn)
        t_up = np.where(np.isnan(t_up), math.inf, t_up)
        cand = np.minimum(t_dn, t_up)
        if cand.size:
            arg = int(np.argmin(cand))
            limit = float(cand[arg])
            if stall > BLAND_AFTER:
                near = np.nonzero(cand <= limit + 1e-12)[0]
                arg = int(near[np.argmin(t.basis[near])])
            hit_bound = AT_LOWER if t_dn[arg] <= t_up[arg] else AT_UPPER
        span = t.upper[j] - t.lower[j]
        flip = span if not math.isinf(span) else math.inf

        t_star = min(limit, flip)
        if math.isinf(t_star):
            return "unbounded"
        if flip < limit - 1e-12:
            t.status[j] = AT_UPPER if t.status[j] == AT_LOWER else AT_LOWER
        else:
            leaving = t.basis[arg]
            t.pivot(arg, j)
            t.status[leaving] = hit_bound
        obj = float(t.c @ t.solution()[0])
        stall = stall + 1 if obj <= last_obj + 1e-12 else 0
        last_obj = max(last_obj, obj)
    raise LpError("primal simplex iteration limit hit")


def solve_dense(model):
    """Two-phase bounded simplex from the all-slack basis."""
    t = _Tableau(model)
    verdict = _dual_simplex(t, np.zeros_like(t.c))  # pure feasibility phase
    if verdict == "infeasible":
        return LpSolution("infeasible", -math.inf, None)
    if _primal_simplex(t) == "unbounded":
        return LpSolution("unbounded", math.inf, None)
    x, _ = t.solution()
    xs = x[: t.n].copy()
    return LpSolution("optimal", float(np.dot(model.objective, xs)), xs)
