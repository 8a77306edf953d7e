import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orienteer import lp, simplex

# lp.solve is the solver's engine; the bundled dense simplex is an
# independent reference it is checked against
SOLVERS = pytest.mark.parametrize("solve", (lp.solve, simplex.solve_dense), ids=("highs", "dense"))


def _single_bound_model():
    m = lp.LpModel()
    x = m.add_column(0.0, 10.0, 1.0)
    m.add_row([(x, 1.0)], "<=", 3.0)
    return m


@SOLVERS
def test_single_constraint(solve):
    sol = solve(_single_bound_model())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


@SOLVERS
def test_contradictory_rows(solve):
    m = lp.LpModel()
    x = m.add_column(0.0, 10.0, 1.0)
    m.add_row([(x, 1.0)], ">=", 5.0)
    m.add_row([(x, 1.0)], "<=", 3.0)
    assert solve(m).status == "infeasible"


@SOLVERS
def test_unbounded(solve):
    m = lp.LpModel()
    m.add_column(0.0, math.inf, 1.0)
    assert solve(m).status == "unbounded"


def test_append_rows_is_pure():
    # rows appended to a copy leave the original as it was
    m = _single_bound_model()
    bigger = m.copy()
    bigger.add_row([(0, 1.0)], "<=", 1.0)
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
        m.add_column(2.0, 1.0)
    x = m.add_column(0.0, 1.0)
    with pytest.raises(lp.LpError):
        m.add_row([(x + 5, 1.0)], "<=", 1.0)
    with pytest.raises(lp.LpError):
        m.add_row([(x, math.nan)], "<=", 1.0)
    with pytest.raises(lp.LpError):
        m.add_row([(x, 1.0)], "<~", 1.0)


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
        model.add_column(lo, up, rng.uniform(-3, 3))
    for _ in range(rng.randint(0, m_max)):
        coeffs = [(j, rng.uniform(-4, 4)) for j in range(n) if rng.random() < 0.7]
        model.add_row(coeffs or [(rng.randrange(n), 1.0)], rng.choice(["<=", ">=", "="]), rng.uniform(-6, 6))
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
        for row in model.rows:
            assert row.satisfied(b.x, tol=1e-6)


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
        grown.add_row(coeffs or [(0, 1.0)], "<=", rng.uniform(-0.5, 6))
    after = lp.solve(grown)
    if after.status == "optimal":
        assert after.objective <= base.objective + 1e-9


def _bounded_model(rng, n_max=7, m_max=8):
    model = lp.LpModel()
    for _ in range(rng.randint(1, n_max)):
        lo = rng.uniform(-5, 2)
        model.add_column(lo, lo + rng.uniform(0, 6), rng.uniform(-3, 3))
    for _ in range(rng.randint(0, m_max)):
        model.add_row(_random_inequality(rng, model.n_cols))
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
        want = lp.solve(model, bounds)
        assert got.status == want.status
        if want.status == "optimal":
            assert got.objective == pytest.approx(want.objective, abs=1e-6, rel=1e-6)
        extra = [_random_inequality(rng, model.n_cols) for _ in range(rng.randint(1, 2))]
        session.add_rows(extra)
        rows += len(extra)
        assert model.n_rows == rows  # the session's model gains what the engine gains


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
    for row in model.rows:
        manual = sum(v * sol.x[j] for j, v in zip(row.indices, row.values))
        if row.relation == "<=":
            assert manual <= row.rhs + 1e-7
        elif row.relation == ">=":
            assert manual >= row.rhs - 1e-7
        else:
            assert manual == pytest.approx(row.rhs, abs=1e-7)


def test_export_lp_text_round():
    txt = lp.export_lp_text(_single_bound_model(), name="toy")
    assert "Maximize" in txt and "Subject To" in txt and "x0" in txt


def test_bounds_override():
    model = _single_bound_model()
    sol = lp.solve(model, bounds_override=np.array([[0.0, 2.0]]))
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
    assert len(fresh) == 2  # the first attempt and the retry without presolve
