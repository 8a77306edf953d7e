"""Sparse LP container and the HiGHS engine behind it.

A model is one array store: its columns read-only float arrays and its rows
one CSR block, ``Rows``, the arrays HiGHS takes.  Columns and rows arrive as
blocks: a formulation emits its blocks as arrays, a cut is a one-row block
from ``make_row``.  ``LpModel.add_rows`` checks every other block against
what ``make_row`` checks per row, and the columns of all.  Every append
replaces what it grows by a grown copy, so an array once handed out never
changes and copies share them.  Models are solved by the HiGHS engine
bundled with scipy (>= 1.15), used in one of two ways:

* ``solve``        - one-shot solve on a fresh engine: optimal, infeasible or
                     unbounded, or ``LpError`` when HiGHS cannot tell and a
                     zero-cost probe finds a feasible point
* ``HighsSession`` - one engine kept for warm-started re-solves after row
                     appends, bound changes and basis restarts; it settles
                     an LP its engine cannot classify with ``solve`` and
                     counts it.  From its first ``submit`` on, a second
                     engine solves submitted LPs in one worker thread while
                     the caller goes on with the first

Engines price the dual simplex with HiGHS's default, dual steepest edge
(Forrest & Goldfarb, Math. Prog. 1992), except those of a session the search
has switched with ``HighsSession.price_for_search``: its own engine and the
worker's then use Devex (Harris, Math. Prog. 1973; ``SEARCH_EDGE_WEIGHTS``),
cheaper per iteration on the short warm re-solves of search nodes.  The root
cut loop, ``solve`` and the fallback it serves keep the default, so root cuts
and relaxation bounds do not move.

``_pass_model`` is the one place a model becomes an engine's LP (a fresh
engine's from ``_engine``, or a frozen session's own), and it takes a model
and nothing else: an LP under other column bounds is the model's
``with_bounds`` copy.  The store feeds it, ``HighsSession.add_rows``, the
worker and ``export_lp_text`` as it is.  The objective sense is always
maximize.

A HiGHS result depends on what its engine solved before, and a session
keeps the worker's results free of thread timing in one of two ways.

* A session that may still gain rows runs its jobs one at a time in the
  order they were submitted, on an engine only they touch, and cancels none
  while its caller may still collect one: what the second engine solved
  before each job is then fixed by the call sequence alone.
* A session its caller has frozen (``HighsSession.freeze``: no more rows)
  makes that history not matter.  ``HighsSession.rebuild``, called when the
  search first branches and by the first ``submit`` at the latest, passes
  the row store to its own engine again (an engine that had rows appended
  keeps other scale factors), the worker's engine is built from the same
  store, and every restart from a saved basis clears the engine's solver
  first (``clearSolver``): in ``set_basis``, in the worker's job and in
  ``collect``.  Two engines built alike then solve one (basis, bounds)
  LP to the same bits, simplex iterations included, whatever either solved
  before, and ``restart`` leaves the session's engine where collecting a
  job's result does.  So ``collect`` takes back a job the worker has not
  started and restarts its LP on the session's own engine, and ``drop``
  cancels the job of an LP no longer wanted; which engine solves a job
  depends on timing, its result does not.

The worker calls engine methods and slices the row block it was handed,
nothing else; classifying its results and any fallback stay on the calling
thread.

The engine is scipy's extension module ``scipy.optimize._highspy._core``.
``_load_highs`` loads it without running ``scipy.optimize``'s package init
(linprog, minimize, scipy.linalg and more), which the solver does not use
and which was most of a cold ``import orienteer``: 0.84 s, against 0.27 s
without it, on a 2-core x86_64 VM.  Code that imports ``scipy.optimize``
before or after shares the one module object; only the attribute
``scipy.optimize._highspy._core`` stays unset, as the import system sets it
on the parent package only when it loads the module itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


def _load_highs():
    """scipy's HiGHS extension module, found beside scipy's package files and
    registered under its full name before it runs, so that a later ``import
    scipy.optimize`` gets this same module; an earlier one's is reused."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    dirs = [os.path.join(d, "optimize", "_highspy") for d in scipy.__path__]
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(
            f"orienteer needs scipy >= 1.15, whose {name} holds the HiGHS "
            f"bindings; scipy {scipy.__version__} has none in {dirs}",
            name=name,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_hcore = _load_highs()

LE, EQ, GE = "<=", "=", ">="

FEASIBILITY_TOL = 1e-7
OPTIMALITY_TOL = 1e-9

# HiGHS's ``simplex_dual_edge_weight_strategy`` on a search session's
# engines: 1 is Devex, against the default -1 (dual steepest edge); a node
# LP restarts from a stored basis on a cleared solver, where steepest edge
# pays for its exact weights with no long solve to earn them back
SEARCH_EDGE_WEIGHTS = 1


class LpError(RuntimeError):
    """Numeric failure or malformed model; never silently swallowed."""


@dataclass(frozen=True, eq=False)
class Rows:
    """Rows in CSR form: row k holds ``indices/values[starts[k]:starts[k + 1]]``,
    its columns strictly ascending, and ranges over [lower[k], upper[k]];
    a ``<=`` row has lower -inf, a ``>=`` row upper +inf, an ``=`` row both
    at its right-hand side.  No method writes into the arrays: a block
    handed to another thread stays as it was while the model grows.
    ``checked`` marks a block ``make_row`` built, which an append checks for
    its columns' range only."""

    starts: np.ndarray  # int32, one more than the rows, from 0
    indices: np.ndarray  # int32
    values: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    checked: bool = field(default=False, repr=False)

    def __len__(self):
        return len(self.lower)

    def slice(self, first, last):
        """Rows ``first`` up to ``last`` (exclusive) as a block of their own."""
        a, b = self.starts[first], self.starts[last]
        return Rows(
            self.starts[first : last + 1] - a,
            self.indices[a:b],
            self.values[a:b],
            self.lower[first:last],
            self.upper[first:last],
        )


def _starts(lengths):
    starts = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=starts[1:])
    return starts


NO_ROWS = Rows(
    np.zeros(1, dtype=np.int32),
    np.zeros(0, dtype=np.int32),
    np.zeros(0),
    np.zeros(0),
    np.zeros(0),
)


def stack_rows(blocks):
    """One block holding the rows of ``blocks`` in order."""
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return NO_ROWS
    # each block's row ends, shifted by the entries of the blocks before it
    shifts = np.cumsum([0] + [len(b.indices) for b in blocks[:-1]])
    ends = np.concatenate([b.starts[1:] for b in blocks])
    ends += np.repeat(shifts, [len(b) for b in blocks]).astype(np.int32)
    return Rows(
        np.concatenate([NO_ROWS.starts, ends]),
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.values for b in blocks]),
        np.concatenate([b.lower for b in blocks]),
        np.concatenate([b.upper for b in blocks]),
    )


def rows_from_entries(count, row, col, val, relation, rhs):
    """A block of ``count`` rows ``relation rhs`` from the entries (row, col,
    val) of equal-length arrays, in any order; each row's entries end up in
    column order."""
    order = np.lexsort((col, row))
    rhs = np.full(count, float(rhs))
    return Rows(
        _starts(np.bincount(row, minlength=count)),
        col[order].astype(np.int32),
        np.asarray(val, dtype=float)[order],
        np.full(count, -math.inf) if relation == LE else rhs,
        np.full(count, math.inf) if relation == GE else rhs,
    )


def make_row(coeffs, relation, rhs):
    """A one-row block from (column, value) pairs, sorted by column."""
    if relation not in (LE, EQ, GE):
        raise LpError(f"unknown relation {relation!r}")
    pairs = sorted((int(j), float(v)) for j, v in coeffs)
    idx = [j for j, _ in pairs]
    if len(set(idx)) != len(idx):
        raise LpError("duplicate column in row")
    vals = [v for _, v in pairs]
    for v in vals:
        if not math.isfinite(v):
            raise LpError("non-finite row coefficient")
    if not math.isfinite(rhs):
        raise LpError("non-finite rhs")
    rhs = float(rhs)
    return Rows(
        np.array((0, len(idx)), dtype=np.int32),
        np.array(idx, dtype=np.int32),
        np.array(vals, dtype=float),
        np.array((-math.inf if relation == LE else rhs,)),
        np.array((math.inf if relation == GE else rhs,)),
        checked=True,
    )


def _check(block, n_cols, full):
    """Raise ``LpError`` unless every row of ``block`` references known
    columns only and, when ``full``, passes the checks ``make_row`` makes per
    row, made on all rows at once: columns strictly ascending within each
    row (so none twice), coefficients and right-hand sides finite, each row
    one of the three relations."""
    idx, starts = block.indices, block.starts
    if len(idx) and (idx.min() < 0 or idx.max() >= n_cols):
        raise LpError("row references unknown column")
    if not full:
        return
    # (row, column) keys rise strictly exactly when no row repeats a column
    keys = np.repeat(np.arange(len(block)) * n_cols, starts[1:] - starts[:-1]) + idx
    if (keys[1:] <= keys[:-1]).any():
        raise LpError("duplicate column in row")
    if not np.isfinite(block.values).all():
        raise LpError("non-finite row coefficient")
    lower, upper = block.lower, block.upper
    rhs = np.where(lower == -math.inf, upper, lower)
    if not np.isfinite(rhs).all():
        raise LpError("non-finite rhs")
    if not ((upper == rhs) | (upper == math.inf)).all():
        raise LpError("row is not of the form <=, = or >= a right-hand side")


def _read_only(array):
    """``array``, marked read-only."""
    array.flags.writeable = False
    return array


class LpModel:
    """Maximization LP with bounded columns and sparse rows.  The columns are
    read-only float arrays (``lower``, ``upper``, ``objective``) and the rows
    one CSR block (``rows``); each append replaces what it grows by a grown
    copy, so copies share all four."""

    def __init__(self):
        self.lower = self.upper = self.objective = _read_only(np.zeros(0))
        self.rows = NO_ROWS

    # -- construction --------------------------------------------------

    def add_columns(self, lower, upper, objective):
        """Append one column per entry of the equal-length arrays; returns
        the range of their ids."""
        lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
        objective = np.asarray(objective, dtype=float)
        if np.isnan(lower).any() or np.isnan(upper).any() or not np.isfinite(objective).all():
            raise LpError("bad column data")
        if (lower > upper).any():
            k = int(np.argmax(lower > upper))
            raise LpError(f"lower bound {lower[k]} above upper bound {upper[k]}")
        first = self.n_cols
        self.lower = _read_only(np.concatenate((self.lower, lower)))
        self.upper = _read_only(np.concatenate((self.upper, upper)))
        self.objective = _read_only(np.concatenate((self.objective, objective)))
        return range(first, self.n_cols)

    def add_rows(self, rows):
        """Append a block, or a list of blocks, after ``make_row``'s checks,
        which a block ``make_row`` built had there; returns the block
        appended."""
        blocks = [rows] if isinstance(rows, Rows) else rows
        first = self.n_rows
        grown = stack_rows([self.rows, *blocks]) if first else stack_rows(blocks)
        block = grown.slice(first, len(grown)) if first else grown
        _check(block, self.n_cols, full=not all(b.checked for b in blocks))
        self.rows = grown
        return block

    def copy(self):
        out = LpModel.__new__(LpModel)
        out.lower, out.upper, out.objective, out.rows = self.lower, self.upper, self.objective, self.rows
        return out

    def with_bounds(self, bounds):
        """A copy whose column bounds are the columns of the (n, 2) array
        ``bounds``, unchecked: the LP a session holds under those bounds."""
        out = self.copy()
        out.lower = _read_only(bounds[:, 0].copy())
        out.upper = _read_only(bounds[:, 1].copy())
        return out

    @property
    def n_cols(self):
        return len(self.lower)

    @property
    def n_rows(self):
        return len(self.rows)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    objective: float
    x: np.ndarray | None
    # reduced costs of the columns for the maximized objective (optimal only)
    dual: np.ndarray | None = None
    # ``solve``'s optimal ones: the engine's final basis as the pair
    # ``HighsSession.basis`` returns, for a session to start from
    basis: tuple | None = field(default=None, repr=False, compare=False)


def _engine(model, cost=None):
    """A fresh HiGHS engine holding ``model`` (rows in model order, as CSR),
    quiet, on one thread and under HiGHS's default pricing, which
    ``_price_for_search`` changes for a search.  ``cost`` replaces the
    engine's objective, which is minimized (the model's negated by
    default)."""
    h = _hcore._Highs()
    h.setOptionValue("output_flag", False)
    h.setOptionValue("threads", 1)
    _pass_model(h, model, cost)
    return h


def _price_for_search(engine):
    """Price ``engine``'s dual simplex with ``SEARCH_EDGE_WEIGHTS``."""
    engine.setOptionValue("simplex_dual_edge_weight_strategy", SEARCH_EDGE_WEIGHTS)


def _iterations(engine):
    """The simplex iterations of the engine's last run."""
    return engine.getInfoValue("simplex_iteration_count")[1]


def _pass_model(engine, model, cost=None):
    """Replace the engine's LP, and all it derived from it, by ``model``
    under ``cost`` as ``_engine`` takes it."""
    rows = model.rows
    lp_obj = _hcore.HighsLp()
    lp_obj.num_col_ = model.n_cols
    lp_obj.num_row_ = model.n_rows
    lp_obj.col_cost_ = -model.objective if cost is None else cost
    lp_obj.col_lower_ = model.lower
    lp_obj.col_upper_ = model.upper
    lp_obj.row_lower_ = rows.lower
    lp_obj.row_upper_ = rows.upper
    lp_obj.a_matrix_.format_ = _hcore.MatrixFormat.kRowwise
    lp_obj.a_matrix_.start_ = rows.starts
    lp_obj.a_matrix_.index_ = rows.indices
    lp_obj.a_matrix_.value_ = rows.values
    if engine.passModel(lp_obj) != _hcore.HighsStatus.kOk:
        raise LpError("engine rejected the model")


def _append_rows(engine, rows):
    status = engine.addRows(
        len(rows), rows.lower, rows.upper, len(rows.indices), rows.starts[:-1], rows.indices, rows.values
    )
    if status != _hcore.HighsStatus.kOk:
        raise LpError("engine rejected appended rows")


def _set_bounds(engine, cols, bounds):
    lower = np.ascontiguousarray(bounds[:, 0])
    engine.changeColsBounds(len(cols), cols, lower, np.ascontiguousarray(bounds[:, 1]))


def _set_basis(engine, saved, n_rows, clear):
    """Restart ``engine``, which holds ``n_rows`` rows, from the basis
    ``saved`` (a ``HighsSession.basis`` pair), the rows it does not cover
    basic; with ``clear``, from a cleared solver, so that what the engine
    solved before cannot show in what it solves next.  A grown basis is a
    new object: ``saved`` may be in another thread's hands, so it is never
    changed."""
    if clear:
        engine.clearSolver()
    basis, covered = saved
    if covered < n_rows:
        grown = _hcore.HighsBasis()
        grown.valid, grown.alien = basis.valid, basis.alien
        grown.col_status = basis.col_status
        grown.row_status = basis.row_status + [_hcore.HighsBasisStatus.kBasic] * (n_rows - covered)
        basis = grown
    if engine.setBasis(basis) != _hcore.HighsStatus.kOk:
        raise LpError("engine rejected the basis")


def _optimum(engine):
    """(column values, column duals) of the engine's optimum, as arrays."""
    point = engine.getSolution()
    return np.asarray(point.col_value), np.asarray(point.col_dual)


def _verdict(status, objective, optimum):
    """LpSolution for a classified engine status, else None; ``optimum()``
    gives the ``_optimum`` pair of an optimal one."""
    if status == _hcore.HighsModelStatus.kOptimal:
        x, dual = optimum()
        # the engine minimizes the negated objective, so its duals flip sign
        return LpSolution("optimal", float(np.dot(objective, x)), x, -dual)
    if status == _hcore.HighsModelStatus.kInfeasible:
        return LpSolution("infeasible", -math.inf, None)
    if status == _hcore.HighsModelStatus.kUnbounded:
        return LpSolution("unbounded", math.inf, None)
    return None


def solve(model):
    """Solve to proven optimality (or infeasible/unbounded status) on fresh
    engines; raises ``LpError`` when HiGHS cannot classify an LP that has a
    feasible point.  An optimal solution carries the engine's final basis,
    which ``HighsSession.set_basis`` takes for a session on the same model.
    Other column bounds come from ``LpModel.with_bounds``.
    """
    status_of = _hcore.HighsModelStatus

    def attempt(cost=None, presolve=True):
        h = _engine(model, cost)
        if not presolve:
            h.setOptionValue("presolve", "off")
        h.run()
        return h, h.getModelStatus()

    def probe():
        # a zero-cost solve has a trivially feasible dual, so its status
        # settles whether any point exists at all
        return attempt(cost=np.zeros(model.n_cols))[1]

    h, status = attempt()
    if status in (status_of.kInfeasible, status_of.kUnbounded, status_of.kUnboundedOrInfeasible):
        # presolve can conflate primal and dual infeasibility; the probe cannot
        found = probe()
        if found == status_of.kInfeasible:
            return LpSolution("infeasible", -math.inf, None)
        if found == status_of.kOptimal:
            return LpSolution("unbounded", math.inf, None)
    if status != status_of.kOptimal:
        h, status = attempt(presolve=False)
    sol = _verdict(status, model.objective, lambda: _optimum(h))
    if sol is None and probe() == status_of.kInfeasible:
        # HiGHS may fail to classify an LP with and without presolve that has
        # no point at all
        return LpSolution("infeasible", -math.inf, None)
    if sol is None:
        raise LpError(
            f"HiGHS could not classify the LP: model status {h.modelStatusToString(status)}"
        )
    if sol.status == "optimal":
        sol.basis = h.getBasis(), model.n_rows
    return sol


def incremental_available():
    """Always true: the incremental engine is part of scipy >= 1.15.  Kept
    for the benchmark's environment record."""
    return True


def _solve_from(engine, cols, saved, bounds, n_rows, clear):
    """(model status, None when the engine raised; the ``_optimum`` pair or
    None; the final basis as ``HighsSession.basis`` gives it; the simplex
    iterations) of the LP ``engine`` holds, ``n_rows`` rows, restarted from
    the basis ``saved`` (cleared first with ``clear``) under the column
    bounds ``bounds``: the calls ``HighsSession.restart`` makes.  Engine
    calls and array copies only, for the worker thread."""
    try:
        _set_basis(engine, saved, n_rows, clear)
        _set_bounds(engine, cols, bounds)
        engine.run()
        status = engine.getModelStatus()
    except Exception:
        return None, None, None, 0
    optimum = _optimum(engine) if status == _hcore.HighsModelStatus.kOptimal else None
    return status, optimum, (engine.getBasis(), n_rows), _iterations(engine)


@dataclass(frozen=True, eq=False)
class Job:
    """An LP ``HighsSession.submit`` handed to the worker: the future of the
    worker's result and the basis the LP restarts from."""

    future: Future
    saved: tuple


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

    ``basis`` copies the engine's current basis (a HiGHS object, about a
    microsecond to take) with the row count it covers, and ``set_basis``
    restarts the engine from such a copy, the rows appended since basic;
    the search uses the pair to start a node taken off its heap from its
    parent's basis instead of the last node's.

    ``submit`` hands an LP (column bounds and a start basis) to a second
    engine, which a worker thread runs while the session's own engine goes
    on; ``collect`` returns its LpSolution, counted in ``prefetched`` when
    the worker's result settles it, and times its wait for the worker in
    ``prefetch_wait_s``.  ``close`` stops the worker.  How the results stay
    free of thread timing, in a session ``freeze`` has frozen and in one it
    has not, the module docstring says.

    Both engines price with HiGHS's default until ``price_for_search``
    switches them to Devex for good.  ``iterations`` counts the simplex
    iterations of every run of the session's own engine and of every job
    whose result ``collect`` goes on from; a job never collected, or whose
    result is dropped, counts none, so the count does not depend on thread
    timing.

    HiGHS with presolve may report a feasible LP with an unbounded objective
    as infeasible, and the session trusts that verdict.  It is exact for LPs
    whose objective is bounded above, as in every formulation here: only the
    visit columns, bounded in [0, 1], carry reward.
    """

    def __init__(self, model):
        self._model = model
        # the column bounds the engine holds: the last override, else the model's
        self._bounds = np.column_stack((model.lower, model.upper))
        self.fallbacks = 0
        self.prefetched = 0
        self.stolen = 0
        self.prefetch_wait_s = 0.0
        self.iterations = 0
        self._frozen = False  # no more rows; restarts clear; jobs may be taken back
        self._rebuilt = False  # a frozen engine passed the row store afresh
        self._search_priced = False  # both engines on SEARCH_EDGE_WEIGHTS
        self._h = _engine(model)
        self._all_cols = np.arange(model.n_cols, dtype=np.int32)
        self._worker = None  # the thread running submitted jobs, one at a time
        self._twin = None  # the engine only those jobs touch, and its row count
        self._twin_rows = 0

    def freeze(self):
        """Take no more rows: ``add_rows`` raises from here on, and ``collect``
        and ``drop`` may cancel a job the worker has not started."""
        self._frozen = True

    def rebuild(self):
        """In a frozen session, the first call passes the row store to the
        engine again, under the bounds in force, and restarts it from its
        current basis: the engine then holds the LP as the worker's engine,
        built from that store, holds it.  ``submit`` calls it too; other
        calls do nothing."""
        if self._frozen and not self._rebuilt:
            current = self.basis()
            _pass_model(self._h, self._model.with_bounds(self._bounds))
            self.set_basis(current)
            self._rebuilt = True

    def price_for_search(self):
        """Price every later solve of both engines, the worker's included,
        with ``SEARCH_EDGE_WEIGHTS``."""
        self._search_priced = True
        for engine in (self._h, self._twin):
            if engine is not None:
                _price_for_search(engine)

    def add_rows(self, rows):
        """Append a block of rows, or a list of blocks, to the model and the
        engine; ``LpModel.add_rows`` checks them first."""
        if self._frozen:
            raise LpError("a frozen session takes no rows")
        _append_rows(self._h, self._model.add_rows(rows))

    def basis(self):
        """(the engine's basis as HiGHS holds it, the row count then): a copy
        to hand back to ``set_basis`` or ``submit``; its statuses stay HiGHS
        objects."""
        return self._h.getBasis(), self._model.n_rows

    def set_basis(self, saved):
        """Start the next solve from what ``basis`` returned; rows appended
        since then enter basic.  A frozen session clears the engine's solver
        first.  Raises ``LpError`` when HiGHS rejects it."""
        _set_basis(self._h, saved, self._model.n_rows, self._frozen)

    def solve(self, bounds_override=None):
        """LpSolution with status optimal, infeasible or unbounded; column
        bounds from ``bounds_override`` stay in force for later calls."""
        try:
            if bounds_override is not None:
                self._bounds = bounds_override
                _set_bounds(self._h, self._all_cols, bounds_override)
            self._h.run()
            self.iterations += _iterations(self._h)
            status = self._h.getModelStatus()
        except Exception:
            status = None
        sol = _verdict(status, self._model.objective, lambda: _optimum(self._h))
        if sol is not None:
            return sol
        self.fallbacks += 1
        return solve(self._model.with_bounds(self._bounds))

    def submit(self, saved, bounds):
        """``Job`` for the LP of the model as it is now, under the column
        bounds ``bounds`` (left unchanged from here on), restarted from the
        basis ``saved``.  The first call builds the second engine from the
        row store, priced as the session's own, and starts the worker; a
        frozen session's engine is rebuilt (``rebuild``) first, unless it
        was already."""
        if self._worker is None:
            self.rebuild()
            self._twin = _engine(self._model)
            if self._search_priced:
                _price_for_search(self._twin)
            self._twin_rows = self._model.n_rows
            self._worker = ThreadPoolExecutor(max_workers=1)
        return Job(self._worker.submit(self._prefetch, saved, bounds, self._model.rows), saved)

    def _prefetch(self, saved, bounds, rows):
        """The worker's job, a ``_solve_from`` result on the second engine.
        ``rows`` is the model's row block at submission, which later appends
        replace but never change."""
        n_rows = len(rows)
        if self._twin_rows < n_rows:
            try:
                _append_rows(self._twin, rows.slice(self._twin_rows, n_rows))
            except Exception:
                return None, None, None, 0
            self._twin_rows = n_rows
        return _solve_from(self._twin, self._all_cols, saved, bounds, n_rows, self._frozen)

    def restart(self, saved, bounds):
        """LpSolution of the model's LP restarted from the basis ``saved``
        under the column bounds ``bounds``, which stay in force: ``set_basis``
        then ``solve``.  A frozen session then restarts its engine from the
        final basis of an optimum, where collecting a worker's result for the
        LP leaves it; so neither the solution nor what the engine solves next
        depends on what it solved before."""
        self.set_basis(saved)
        sol = self.solve(bounds)
        if self._frozen and self._h.getModelStatus() == _hcore.HighsModelStatus.kOptimal:
            self.set_basis(self.basis())
        return sol

    def collect(self, job, bounds):
        """LpSolution of the LP a ``submit`` returned ``job`` for, under the
        column bounds ``bounds`` it was submitted with and with every row the
        model holds now.

        A frozen session takes back a job the worker has not started, counts
        it in ``stolen`` and ``restart``s its LP: its own engine, built from
        the same row store and cleared alike, gives the worker's result bit
        for bit.  A job that has started is waited for.

        An infeasible result stands, since rows appended since can only cut
        more.  An optimal one stands when no row was appended since; else
        the engine restarts from the job's final basis and solves again.
        Any other result is dropped, and the engine restarts the LP from the
        submitted basis.  After an optimal result the engine holds the LP's
        bounds and final basis, so a solve that follows goes on from them."""
        if self._frozen and job.future.cancel():
            self.stolen += 1
            return self.restart(job.saved, bounds)
        started = time.monotonic()
        status, optimum, final, iterations = job.future.result()
        self.prefetch_wait_s += time.monotonic() - started
        if status not in (_hcore.HighsModelStatus.kInfeasible, _hcore.HighsModelStatus.kOptimal):
            return self.restart(job.saved, bounds)
        self.iterations += iterations
        if status == _hcore.HighsModelStatus.kInfeasible:
            self.prefetched += 1
            return LpSolution("infeasible", -math.inf, None)
        self._bounds = bounds
        _set_bounds(self._h, self._all_cols, bounds)
        self.set_basis(final)
        if final[1] < self._model.n_rows:
            return self.solve()
        self.prefetched += 1
        return _verdict(status, self._model.objective, lambda: optimum)

    def drop(self, job):
        """Cancel ``job`` if the worker has not started it and the session is
        frozen.  A session that is not frozen runs every job: what its
        second engine solved before a job shows in the job's result."""
        if self._frozen:
            job.future.cancel()

    def close(self):
        """Stop the worker, its unstarted jobs dropped and its running one
        waited for, and free its engine; a later ``submit`` starts afresh."""
        if self._worker is not None:
            self._worker.shutdown(wait=True, cancel_futures=True)
            self._worker = self._twin = None


def export_lp_text(model, name="model"):
    """Human-readable LP-format dump for debugging (not bit-critical)."""
    out = [f"\\ {name}", "Maximize", " obj:"]
    terms = [
        f" {'+' if v >= 0 else '-'} {abs(v):.17g} x{j}"
        for j, v in enumerate(model.objective.tolist())
        if v != 0.0
    ]
    out[-1] += "".join(terms) if terms else " 0 x0"
    out.append("Subject To")
    rows = model.rows
    starts, indices, values = rows.starts.tolist(), rows.indices.tolist(), rows.values.tolist()
    for i, (lo, up) in enumerate(zip(rows.lower.tolist(), rows.upper.tolist())):
        body = "".join(
            f" {'+' if v >= 0 else '-'} {abs(v):.17g} x{j}"
            for j, v in zip(indices[starts[i] : starts[i + 1]], values[starts[i] : starts[i + 1]])
        )
        rel, rhs = (LE, up) if lo == -math.inf else (GE, lo) if up == math.inf else (EQ, lo)
        out.append(f" r{i}:{body} {rel} {rhs:.17g}")
    out.append("Bounds")
    for j, (lo, up) in enumerate(zip(model.lower.tolist(), model.upper.tolist())):
        lo_s = "-inf" if math.isinf(lo) else f"{lo:.17g}"
        up_s = "+inf" if math.isinf(up) else f"{up:.17g}"
        out.append(f" {lo_s} <= x{j} <= {up_s}")
    out.append("End")
    return "\n".join(out) + "\n"
