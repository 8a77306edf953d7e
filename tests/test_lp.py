import math
import os
import random
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orienteer import lp, simplex
from orienteer.instance import parse_instance, preprocess
from orienteer.solver import cutting_plane_phase

from conftest import BRANCHING, add_column, add_row, row_violations

# lp.solve is the solver's engine; the bundled dense simplex is an
# independent reference it is checked against
SOLVERS = pytest.mark.parametrize("solve", (lp.solve, simplex.solve_dense), ids=("highs", "dense"))


def _single_bound_model():
    m = lp.LpModel()
    x = add_column(m, 0.0, 10.0, 1.0)
    add_row(m, [(x, 1.0)], "<=", 3.0)
    return m


@SOLVERS
def test_single_constraint(solve):
    sol = solve(_single_bound_model())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


@SOLVERS
def test_contradictory_rows(solve):
    m = lp.LpModel()
    x = add_column(m, 0.0, 10.0, 1.0)
    add_row(m, [(x, 1.0)], ">=", 5.0)
    add_row(m, [(x, 1.0)], "<=", 3.0)
    assert solve(m).status == "infeasible"


@SOLVERS
def test_unbounded(solve):
    m = lp.LpModel()
    add_column(m, 0.0, math.inf, 1.0)
    assert solve(m).status == "unbounded"


def test_append_rows_is_pure():
    # rows appended to a copy leave the original as it was
    m = _single_bound_model()
    bigger = m.copy()
    add_row(bigger, [(0, 1.0)], "<=", 1.0)
    assert m.n_rows == 1 and bigger.n_rows == 2
    assert lp.solve(m).objective == pytest.approx(3.0)
    assert lp.solve(bigger).objective == pytest.approx(1.0)


def test_append_zero_rows_identity():
    m = _single_bound_model()
    same = m.copy()
    assert same.n_rows == m.n_rows
    assert lp.solve(same).objective == lp.solve(m).objective


def test_model_validation():
    m = lp.LpModel()
    with pytest.raises(lp.LpError):
        add_column(m, 2.0, 1.0)
    x = add_column(m, 0.0, 1.0)
    with pytest.raises(lp.LpError):
        add_row(m, [(x + 5, 1.0)], "<=", 1.0)
    with pytest.raises(lp.LpError):
        add_row(m, [(x, math.nan)], "<=", 1.0)
    with pytest.raises(lp.LpError):
        add_row(m, [(x, 1.0)], "<~", 1.0)


def _one_row(idx, vals, lower, upper):
    """A one-row block built directly, past ``make_row``'s checks."""
    return lp.Rows(
        np.array([0, len(idx)], dtype=np.int32),
        np.array(idx, dtype=np.int32),
        np.array(vals, dtype=float),
        np.array([lower]),
        np.array([upper]),
    )


# one-row blocks with one fault each, for a model of two columns
FAULTY_ROWS = {
    "duplicate column": _one_row([1, 1], [1.0, 2.0], -math.inf, 1.0),
    "unsorted columns": _one_row([1, 0], [1.0, 2.0], -math.inf, 1.0),
    "infinite coefficient": _one_row([0, 1], [1.0, math.inf], -math.inf, 1.0),
    "NaN coefficient": _one_row([0], [math.nan], -math.inf, 1.0),
    "infinite rhs": _one_row([0], [1.0], -math.inf, math.inf),
    "NaN rhs": _one_row([0], [1.0], math.nan, math.nan),
    "ranged row": _one_row([0], [1.0], 0.0, 1.0),
    "unknown column": _one_row([0, 2], [1.0, 1.0], -math.inf, 1.0),
    "negative column": _one_row([-1, 0], [1.0, 1.0], -math.inf, 1.0),
}


@pytest.mark.parametrize("fault", sorted(FAULTY_ROWS))
def test_row_store_rejects_what_make_row_rejects(fault):
    # a block appended to a model (how a formulation builds one) or to a
    # session is checked as a whole, alone or stacked behind good rows
    model = lp.LpModel()
    model.add_columns([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    good = lp.make_row([(0, 1.0), (1, 1.0)], "<=", 1.5)
    bad = FAULTY_ROWS[fault]
    for rows in (bad, [good, bad], [bad, good]):
        with pytest.raises(lp.LpError):
            model.copy().add_rows(rows)
    session = lp.HighsSession(model)
    with pytest.raises(lp.LpError):
        session.add_rows([good, bad])
    assert model.n_rows == 0
    assert session.solve().objective == pytest.approx(2.0)


def test_make_row_checks_each_row():
    with pytest.raises(lp.LpError, match="duplicate"):
        lp.make_row([(1, 1.0), (1, 2.0)], "<=", 1.0)
    with pytest.raises(lp.LpError, match="coefficient"):
        lp.make_row([(0, math.inf)], "<=", 1.0)
    for rhs in (math.inf, -math.inf, math.nan):
        with pytest.raises(lp.LpError, match="rhs"):
            lp.make_row([(0, 1.0)], ">=", rhs)
    model = lp.LpModel()
    add_column(model)
    with pytest.raises(lp.LpError, match="unknown column"):
        add_row(model, [(1, 1.0)], "=", 0.0)


def test_row_store_keeps_rows_that_restart_their_columns():
    # columns only rise within a row; the next row may start anywhere
    model = lp.LpModel()
    model.add_columns([0.0] * 3, [1.0] * 3, [1.0] * 3)
    model.add_rows([lp.make_row([(1, 1.0), (2, 1.0)], "<=", 1.0), lp.make_row([(0, 1.0), (1, 1.0)], "<=", 1.0)])
    add_row(model, [(2, 1.0)], ">=", 0.5)
    assert model.n_rows == 3
    assert lp.solve(model).objective == pytest.approx(2.0)
    assert model.rows.indices.tolist() == [1, 2, 0, 1, 2]


def test_appends_leave_earlier_copies_and_splits_unchanged():
    # an append replaces each array it grows by a grown copy, so a copy or a
    # block split off before sees none of it
    model = lp.LpModel()
    model.add_columns([0.0, -1.0], [1.0, 2.0], [1.0, 3.0])
    model.add_rows([lp.make_row([(0, 1.0), (1, 1.0)], "<=", 1.5), lp.make_row([(1, 1.0)], ">=", -0.5)])
    copy = model.copy()
    picked = model.rows.slice(0, 1)

    def state():
        arrays = (copy.lower, copy.upper, copy.objective, copy.rows.indices, copy.rows.upper)
        return [a.tolist() for a in arrays] + [picked.indices.tolist()]

    before = state()
    model.add_columns([0.0], [4.0], [2.0])
    model.add_rows(lp.make_row([(0, 1.0), (2, 1.0)], "<=", 3.0))
    assert (model.n_cols, model.n_rows) == (3, 3)
    assert state() == before
    assert lp.solve(copy).objective == pytest.approx(4.5)  # x = (0, 1.5)


def test_columns_are_read_only():
    model = _single_bound_model()
    for m in (model, model.copy(), model.with_bounds(np.array([[0.0, 2.0]]))):
        for column in (m.lower, m.upper, m.objective):
            with pytest.raises(ValueError):
                column[0] = 1.0
    assert (model.lower.tolist(), model.upper.tolist(), model.objective.tolist()) == ([0.0], [10.0], [1.0])


def _random_model(seed, n_max=7, m_max=8):
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    model = lp.LpModel()
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            lo, up = -math.inf, math.inf
        elif kind < 0.3:
            lo, up = -math.inf, rng.uniform(-2, 5)
        elif kind < 0.45:
            lo, up = rng.uniform(-5, 2), math.inf
        else:
            lo = rng.uniform(-5, 2)
            up = lo + rng.uniform(0, 6)
        add_column(model, lo, up, rng.uniform(-3, 3))
    for _ in range(rng.randint(0, m_max)):
        coeffs = [(j, rng.uniform(-4, 4)) for j in range(n) if rng.random() < 0.7]
        add_row(model, coeffs or [(rng.randrange(n), 1.0)], rng.choice(["<=", ">=", "="]), rng.uniform(-6, 6))
    return model


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_backends_agree(seed):
    model = _random_model(seed)
    a = lp.solve(model)
    b = simplex.solve_dense(model)
    assert a.status == b.status
    if a.status == "optimal":
        assert b.objective == pytest.approx(a.objective, abs=1e-6, rel=1e-6)
        assert row_violations(model, b.x, tol=1e-6) == []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_appending_rows_never_raises_objective(seed):
    model = _random_model(seed)
    base = lp.solve(model)
    if base.status != "optimal":
        return
    rng = random.Random(seed ^ 0xABCDEF)
    grown = model.copy()
    for _ in range(rng.randint(1, 3)):
        coeffs = [(j, rng.uniform(-2, 3)) for j in range(model.n_cols) if rng.random() < 0.8]
        add_row(grown, coeffs or [(0, 1.0)], "<=", rng.uniform(-0.5, 6))
    after = lp.solve(grown)
    if after.status == "optimal":
        assert after.objective <= base.objective + 1e-9


def _bounded_model(rng, n_max=7, m_max=8):
    model = lp.LpModel()
    for _ in range(rng.randint(1, n_max)):
        lo = rng.uniform(-5, 2)
        add_column(model, lo, lo + rng.uniform(0, 6), rng.uniform(-3, 3))
    for _ in range(rng.randint(0, m_max)):
        add_row(model, _random_inequality(rng, model.n_cols))
    return model


def _random_inequality(rng, n):
    coeffs = [(j, rng.uniform(-4, 4)) for j in range(n) if rng.random() < 0.7]
    return lp.make_row(coeffs or [(rng.randrange(n), 1.0)], rng.choice(["<=", ">="]), rng.uniform(-6, 6))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_session_agrees_with_stateless_solve(seed):
    # every column is bounded, so no LP here is unbounded; each call brings
    # its own column bounds, and rows join the session between calls
    rng = random.Random(seed)
    model = _bounded_model(rng)
    rows = model.n_rows
    session = lp.HighsSession(model)
    for _ in range(4):
        bounds = np.empty((model.n_cols, 2))
        for j, (lo, up) in enumerate(zip(model.lower, model.upper)):
            bounds[j, 0] = rng.uniform(lo, up)
            bounds[j, 1] = rng.uniform(bounds[j, 0], up)
        got = session.solve(bounds)
        want = lp.solve(model.with_bounds(bounds))
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective == pytest.approx(want.objective, abs=1e-6, rel=1e-6)
        extra = [_random_inequality(rng, model.n_cols) for _ in range(rng.randint(1, 2))]
        session.add_rows(extra)
        rows += len(extra)
        assert model.n_rows == rows  # the session's model gains what the engine gains


def _random_box(rng, model):
    bounds = np.empty((model.n_cols, 2))
    for j, (lo, up) in enumerate(zip(model.lower, model.upper)):
        bounds[j, 0] = rng.uniform(lo, up)
        bounds[j, 1] = rng.uniform(bounds[j, 0], up)
    return bounds


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_model_with_bounds_solves_as_a_session_under_them(seed):
    # the one way a fresh engine gets other column bounds: a model copy
    rng = random.Random(seed)
    model = _bounded_model(rng)
    own = np.column_stack((model.lower, model.upper))
    bounds = _random_box(rng, model)
    want = lp.HighsSession(model).solve(bounds)
    got = lp.solve(model.with_bounds(bounds))
    assert got.status == want.status
    if want.status == "optimal":
        assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
    assert np.array_equal(np.column_stack((model.lower, model.upper)), own)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_session_restarts_from_a_saved_basis(seed):
    # a basis saved before rows were appended and other bounds were solved
    # still restarts the engine to the right optimum
    rng = random.Random(seed)
    model = _bounded_model(rng)
    session = lp.HighsSession(model)
    saved = []
    for _ in range(4):
        session.solve(_random_box(rng, model))
        saved.append(session.basis())
        session.add_rows([_random_inequality(rng, model.n_cols) for _ in range(rng.randint(1, 2))])
    for basis in saved:
        bounds = _random_box(rng, model)
        session.set_basis(basis)
        got = session.solve(bounds)
        want = lp.solve(model.with_bounds(bounds))
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_worker_results_agree_with_stateless_solve(seed):
    # LPs handed to the worker come back as the LP of the model with every
    # row it holds at collection, rows appended after submission included
    rng = random.Random(seed)
    model = _bounded_model(rng)
    session = lp.HighsSession(model)
    session.solve()
    try:
        jobs = []
        for _ in range(4):
            bounds = _random_box(rng, model)
            jobs.append((session.submit(session.basis(), bounds), bounds))
            if rng.random() < 0.5:
                session.add_rows([_random_inequality(rng, model.n_cols)])
        for job, bounds in jobs:
            got = session.collect(job, bounds)
            want = lp.solve(model.with_bounds(bounds))
            assert got.status == want.status
            if want.status == "optimal":
                assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
                # the session's engine goes on from the collected optimum
                again = session.solve()
                assert again.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9)
                assert session._h.getInfo().simplex_iteration_count == 0
    finally:
        session.close()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_session_counts_the_iterations_of_the_results_it_uses(seed):
    # every run of the session's own engine counts, and a job's run when
    # collect goes on from its result; a job never collected counts nothing,
    # even once the worker has run it
    rng = random.Random(seed)
    model = _bounded_model(rng)
    session = lp.HighsSession(model)
    want = 0
    try:
        for _ in range(3):
            session.solve(_random_box(rng, model))
            want += session._h.getInfo().simplex_iteration_count
            assert session.iterations == want
        for collected in (True, False):
            bounds = _random_box(rng, model)
            job = session.submit(session.basis(), bounds)
            status, _, _, job_iterations = job.future.result()
            if not collected:
                continue
            session.collect(job, bounds)
            if status in (lp._hcore.HighsModelStatus.kOptimal, lp._hcore.HighsModelStatus.kInfeasible):
                want += job_iterations
            else:
                want += session._h.getInfo().simplex_iteration_count
            assert session.iterations == want
    finally:
        session.close()
    assert session.iterations == want


def _taken_back_and_run(session, saved, bounds, others):
    """(the LP of ``submit(saved, bounds)`` as the session's engine solves it
    when ``collect`` takes the job back after solving ``others``, as the
    worker's engine solves it; each a (solution, simplex iterations) pair).
    The worker is held with a first copy of the job, so the second is still
    queued when it is collected."""
    started, release = threading.Event(), threading.Event()
    prefetch, solve = session._prefetch, session.solve
    iterations = {}

    def held(*args):
        started.set()
        release.wait(timeout=60)
        out = prefetch(*args)
        iterations["worker"] = session._twin.getInfo().simplex_iteration_count
        return out

    def counted(*args):
        sol = solve(*args)
        iterations["session"] = session._h.getInfo().simplex_iteration_count
        return sol

    session._prefetch, session.solve = held, counted
    try:
        on_worker = session.submit(saved, bounds)
        assert started.wait(timeout=60)
        queued = session.submit(saved, bounds)
        for other in others:
            session.solve(other)
        stolen = session.stolen
        mine = session.collect(queued, bounds)
        assert session.stolen == stolen + 1
    finally:
        release.set()
    theirs = session.collect(on_worker, bounds)
    del session._prefetch, session.solve
    return (mine, iterations["session"]), (theirs, iterations["worker"])


def _assert_taken_back_alike(session, box, rng):
    """Freeze ``session`` and check three jobs from its current basis, each
    under a ``box()`` of column bounds and taken back after solving one to
    three other boxes: ``collect`` gives the worker's solution, bit for bit,
    in as many simplex iterations."""
    session.freeze()
    saved = session.basis()
    for _ in range(3):
        bounds, others = box(), [box() for _ in range(rng.randint(1, 3))]
        (mine, mine_iters), (theirs, their_iters) = _taken_back_and_run(session, saved, bounds, others)
        assert mine.status == theirs.status
        assert mine_iters == their_iters
        if mine.status == "optimal":
            assert mine.objective == theirs.objective
            assert np.array_equal(mine.x, theirs.x) and np.array_equal(mine.dual, theirs.dual)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_frozen_engines_solve_a_job_to_the_same_bits(seed):
    # rows appended before the freeze and solves on the session's engine
    # since leave no trace in a job the session takes back, under the
    # default pricing and under the search's
    for priced in (False, True):
        rng = random.Random(seed)
        model = _bounded_model(rng, n_max=25, m_max=20)
        session = lp.HighsSession(model)
        session.solve()
        try:
            for _ in range(rng.randint(1, 3)):
                session.add_rows([_random_inequality(rng, model.n_cols) for _ in range(rng.randint(1, 4))])
                session.solve(_random_box(rng, model))
            if priced:
                session.price_for_search()
            _assert_taken_back_alike(session, lambda: _random_box(rng, model), rng)
        finally:
            session.close()


@pytest.mark.parametrize("seed", range(8))
def test_frozen_root_session_solves_a_node_to_the_same_bits(seed):
    # the cpa search's case: the root session, its cuts appended in rounds,
    # and node LPs that fix a few binary columns; the simplex paths of such
    # degenerate LPs depend on the engine's history unless it is cleared.
    # The search prices with Devex, so its engines are checked that way too
    for priced in (False, True):
        phase = cutting_plane_phase(preprocess(parse_instance(BRANCHING))[0])
        session, handle = phase.session, phase.handle
        base = np.array([handle.model.lower, handle.model.upper], dtype=float).T
        binary = sorted(handle.x_index.values()) + sorted(handle.y_index.values())
        rng = random.Random(seed)

        def box():
            bounds = base.copy()
            for col in rng.sample(binary, 3):
                bounds[col] = rng.randint(0, 1)
            return bounds

        try:
            if priced:
                session.price_for_search()
            session.solve(box())
            _assert_taken_back_alike(session, box, rng)
        finally:
            session.close()


def test_frozen_session_takes_no_rows():
    model = _single_bound_model()
    session = lp.HighsSession(model)
    session.freeze()
    with pytest.raises(lp.LpError, match="frozen"):
        session.add_rows([lp.make_row([(0, 1.0)], "<=", 2.0)])
    assert model.n_rows == 1
    assert session.solve().objective == pytest.approx(3.0)


def test_rejected_basis_raises():
    # a basis of another model does not fit this engine's columns
    session = lp.HighsSession(_single_bound_model())
    session.solve()
    wider = _single_bound_model()
    add_column(wider, 0.0, 1.0, 1.0)
    other = lp.HighsSession(wider)
    other.solve()
    with pytest.raises(lp.LpError, match="rejected the basis"):
        session.set_basis(other.basis())


UNKNOWN = lp._hcore.HighsModelStatus.kUnknown


class UnknownStatus:
    """An engine that reports every run as unclassified and records the
    methods called on it; everything else goes to the real engine."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = []

    def getModelStatus(self):
        self.calls.append("getModelStatus")
        return UNKNOWN

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._engine, name)


def test_session_fallback_solves_the_engine_bounds():
    # the engine keeps the last override, so a fallback on a call without
    # one must use it too
    session = lp.HighsSession(_single_bound_model())
    assert session.solve(np.array([[0.0, 2.0]])).objective == pytest.approx(2.0)
    before = session.fallbacks
    session._h = UnknownStatus(session._h)
    assert session.solve().objective == pytest.approx(2.0)
    assert session.fallbacks == before + 1


def test_session_fallback_leaves_its_engine_alone():
    # a fallback settles on fresh engines and makes no call on the session's
    # own, so what the session solves next cannot depend on when it fell back
    model = _bounded_model(random.Random(111))  # optimal with and without the halving
    twin = lp.HighsSession(model.copy())
    session = lp.HighsSession(model)
    engine = session._h
    session._h = stub = UnknownStatus(engine)
    assert session.solve().status == lp.solve(model).status
    assert session.fallbacks == 1
    assert stub.calls[-1] == "getModelStatus"
    session._h = engine
    twin.solve()
    halved = np.array([[lo, 0.5 * (lo + up)] for lo, up in zip(model.lower, model.upper)])
    for bounds in (halved, None):
        got, want = session.solve(bounds), twin.solve(bounds)
        assert got.status == want.status and got.objective == want.objective
        assert session._h.getInfo().simplex_iteration_count == twin._h.getInfo().simplex_iteration_count


@SOLVERS
def test_resolve_reproducible(solve):
    model = _random_model(4242)
    first = solve(model)
    second = solve(model)
    assert first.status == second.status
    if first.status == "optimal":
        assert abs(first.objective - second.objective) <= 1e-9


@SOLVERS
def test_optimum_satisfies_rows(solve):
    # every row holds at the reported optimum, by a from-scratch dot product
    model = _random_model(99)
    sol = solve(model)
    if sol.status != "optimal":
        pytest.skip("seed produced a degenerate model")
    rows = model.rows
    for k in range(model.n_rows):
        span = slice(rows.starts[k], rows.starts[k + 1])
        manual = sum(v * sol.x[j] for j, v in zip(rows.indices[span], rows.values[span]))
        assert rows.lower[k] - 1e-7 <= manual <= rows.upper[k] + 1e-7


def test_export_lp_text_round():
    txt = lp.export_lp_text(_single_bound_model(), name="toy")
    assert "Maximize" in txt and "Subject To" in txt and "x0" in txt


def test_bounds_override():
    model = _single_bound_model()
    sol = lp.solve(model.with_bounds(np.array([[0.0, 2.0]])))
    assert sol.objective == pytest.approx(2.0)


def test_unclassified_lp_raises(monkeypatch):
    # when every fresh engine leaves the status unclassified, lp.solve must
    # name it instead of handing back another engine's answer
    fresh = []
    build = lp._engine

    def engine(*args, **kwargs):
        fresh.append(UnknownStatus(build(*args, **kwargs)))
        return fresh[-1]

    monkeypatch.setattr(lp, "_engine", engine)
    with pytest.raises(lp.LpError, match="model status Unknown"):
        lp.solve(_single_bound_model())
    # the first attempt, the retry without presolve and the zero-cost probe
    assert len(fresh) == 3


def test_unclassified_infeasible_lp_is_infeasible(monkeypatch):
    # HiGHS may leave an empty LP unclassified with and without presolve;
    # the zero-cost probe still proves that no point exists
    build = lp._engine

    def engine(model, cost=None):
        h = build(model, cost)
        return h if cost is not None else UnknownStatus(h)

    monkeypatch.setattr(lp, "_engine", engine)
    m = lp.LpModel()
    x = add_column(m, 0.0, 1.0, 1.0)
    add_row(m, [(x, 1.0)], ">=", 2.0)
    assert lp.solve(m).status == "infeasible"
    with pytest.raises(lp.LpError, match="model status Unknown"):
        lp.solve(_single_bound_model())  # feasible: the probe cannot settle it


def test_reduced_costs_bound_every_column_move():
    # ``dual`` holds the reduced costs of the maximized objective: forcing a
    # column at a bound one unit inward costs at least its reduced cost
    checked = 0
    for seed in range(20):
        model = _bounded_model(random.Random(seed))
        sol = lp.solve(model)
        if sol.status != "optimal":
            continue
        box = np.array([model.lower, model.upper], dtype=float).T
        for j in range(model.n_cols):
            for end, step in ((0, 1.0), (1, -1.0)):
                if abs(sol.x[j] - box[j, end]) > 1e-9 or box[j, 1] - box[j, 0] < 1.0:
                    continue
                moved = box.copy()
                moved[j] = box[j, end] + step
                forced = lp.solve(model.with_bounds(moved))
                if forced.status == "optimal":
                    assert forced.objective <= sol.objective + step * sol.dual[j] + 1e-6
                    checked += sol.dual[j] != 0.0
    assert checked


# -- how the HiGHS bindings are loaded ------------------------------------------

HIGHS_CORE = "scipy.optimize._highspy._core"
TINY_INSTANCE = "n 5\nm 2\ntmax 12.0\n0 0 0\n3 0 5\n0 3 4\n3 3 6\n6 0 0\n"


def _fresh_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this package from where
    the tests do (source tree or install); fail with its stderr if it fails."""
    env = dict(os.environ)
    here = os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (here, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_package_loads_highs_without_scipy_optimize():
    # scipy.optimize's package init is most of a cold start; the solver needs
    # only the extension, and scipy.optimize finds that same module later
    _fresh_python(
        f"""
        import sys
        import orienteer.cli
        from orienteer import lp

        assert "scipy.optimize" not in sys.modules
        assert lp._hcore is sys.modules[{HIGHS_CORE!r}]
        import scipy.optimize
        from scipy.optimize._highspy import _core

        assert _core is lp._hcore and sys.modules[{HIGHS_CORE!r}] is lp._hcore
        res = scipy.optimize.linprog(
            [-1, -2], A_ub=[[1, 1]], b_ub=[3], bounds=[(0, 2)] * 2, method="highs"
        )
        assert res.status == 0 and abs(res.fun + 5) < 1e-9, res
        """
    )
    # the other order: the package takes the module scipy.optimize loaded
    _fresh_python(
        f"""
        import sys
        import scipy.optimize

        core = sys.modules[{HIGHS_CORE!r}]
        from orienteer import lp, solver
        from orienteer.instance import parse_instance

        assert lp._hcore is core
        rep = solver.solve_stop(parse_instance(sys.argv[1]))
        assert rep.status == "optimal", rep
        """,
        TINY_INSTANCE,
    )


@pytest.mark.parametrize(
    ("core_file", "error", "message"),
    (
        (None, "ImportError", "scipy >= 1.15"),
        ("raise RuntimeError('broken build')\n", "RuntimeError", "broken build"),
    ),
    ids=("missing", "broken"),
)
def test_missing_highs_extension_fails_clearly(tmp_path, core_file, error, message):
    # scipy before 1.15 has no _highspy._core beside its package files, and a
    # broken one must not leave a half-built module behind either way
    if core_file is not None:
        (tmp_path / "optimize" / "_highspy").mkdir(parents=True)
        (tmp_path / "optimize" / "_highspy" / "_core.py").write_text(core_file)
    _fresh_python(
        f"""
        import builtins
        import sys
        import scipy

        scipy.__path__[:] = [sys.argv[1]]
        error = getattr(builtins, sys.argv[2])
        for _ in range(2):  # the second import must fail the same way
            try:
                import orienteer
            except error as exc:
                assert sys.argv[3] in str(exc), exc
            else:
                raise AssertionError("imported without the HiGHS extension")
            assert {HIGHS_CORE!r} not in sys.modules
            assert "orienteer.lp" not in sys.modules
        """,
        str(tmp_path),
        error,
        message,
    )
