"""The uniform rule's screen against the scalar path it replaces.

On L1 problems uniform settles in bulk, from the kept gradient, the draws
that leave alpha as it is. A selector that replays the same stream of draws
takes every step through the scalar step, so the two solves must agree bit
for bit: the records, the step counts, the final alpha and the residual.
The screen's bound is remade after every move that refreshes the kept
gradient, from the state at that moment: the audit fixture (conftest)
holds it against a fresh one there.
"""

import struct

import numpy as np
import pytest

from conftest import random_problem
from greedycd import objectives, solver
from greedycd.objectives import make_lasso
from greedycd.selection import Rule
from greedycd.solver import SolverConfig, solve_l1
from greedycd.sparse import SparseColMatrix


def replay(seed):
    """A selector drawing the uniform rule's coordinates one at a time."""
    rng = np.random.default_rng(seed)
    return lambda p, s: int(rng.integers(p.n))


def fingerprint(trace):
    """Everything the screen must leave as the scalar path has it."""
    recs = [(r.iter, r.coord, r.step_kind, struct.pack("<d", r.f_value),
             r.nnz) for r in trace.records]
    c = trace.counters
    s = trace.final_state
    return (recs, trace.status, c["good"], c["bad"], c["cross"],
            s.alpha.tobytes(), s.residual.tobytes(), s.nnz)


def assert_same_as_scalar(p, cfg):
    """Solve with uniform and with the replaying selector; returns the
    uniform trace."""
    trace = solve_l1(p, cfg)
    scalar = solve_l1(p, SolverConfig(
        selector=replay(cfg.seed), use_line_search=cfg.use_line_search,
        max_iters=cfg.max_iters, tol=cfg.tol, trace_every=cfg.trace_every))
    assert fingerprint(trace) == fingerprint(scalar)
    assert scalar.counters["screened"] == 0
    return trace


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("line_search", [False, True], ids=["prox", "ls"])
@pytest.mark.parametrize("kind,lam", [("lasso", 0.5), ("elasticnet", 0.5),
                                      ("logistic", 0.3)])
def test_uniform_equals_scalar_steps(kind, lam, line_search, every,
                                     monkeypatch):
    # refreshes and refills every few hundred steps, so a short solve
    # passes several of each
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", 200)
    monkeypatch.setattr(solver, "UNIFORM_BLOCK", 1000)
    p = random_problem(kind, np.random.default_rng(3), n=60, d=20, lam=lam)
    trace = assert_same_as_scalar(p, SolverConfig(
        rule=Rule.UNIFORM, use_line_search=line_search, max_iters=2503,
        tol=0.0, seed=5, trace_every=every))
    assert trace.counters["grad_refreshes"] >= 3
    assert trace.counters["screened"] > 1000


def test_uniform_equals_scalar_steps_at_full_cadence():
    p = random_problem("lasso", np.random.default_rng(3), n=60, d=20,
                       lam=0.5)
    steps = 2 * solver.UNIFORM_BLOCK + 1000
    trace = assert_same_as_scalar(p, SolverConfig(
        rule=Rule.UNIFORM, max_iters=steps, tol=0.0, seed=5))
    assert trace.counters["grad_refreshes"] >= 3
    assert trace.counters["screened"] > steps // 2


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_stop_checks_match_the_scalar_uniform(tol):
    """Theta records keep uniform scalar, with the same every-n checks."""
    p = random_problem("lasso", np.random.default_rng(4), n=40, d=12,
                       lam=0.4)
    cfg = dict(rule=Rule.UNIFORM, max_iters=20000, tol=tol, seed=2)
    trace = solve_l1(p, SolverConfig(**cfg))
    scalar = solve_l1(p, SolverConfig(record_theta=True, **cfg))
    assert trace.status == "tol"
    assert fingerprint(trace) == fingerprint(scalar)
    assert trace.counters["screened"] > 0
    assert scalar.counters["screened"] == 0


def boundary_problem():
    """Lasso with A = I and lam = 1: at alpha = 0, g = -b. Coordinate 0
    sits just outside lam, 1 just inside it (within the margin), 2 and 3
    well inside."""
    b = np.array([1.0 + 1e-9, 1.0 - 1e-9, 0.25, -0.5])
    return make_lasso(SparseColMatrix.from_dense(np.eye(4)), b, 1.0)


def test_draws_at_the_threshold(monkeypatch):
    p = boundary_problem()
    read = []  # the coordinates that took the scalar step

    def coord_grad(p, s, j):
        read.append(j)
        return objectives.coord_grad(p, s, j)

    monkeypatch.setattr(solver, "coord_grad", coord_grad)
    cfg = SolverConfig(rule=Rule.UNIFORM, max_iters=60, tol=0.0, seed=7)
    trace = solve_l1(p, cfg)
    coords = [r.coord for r in trace.records]
    # |g_0| = lam (1 + 1e-9) moves at its first draw
    assert trace.final_state.alpha[0] > 0.0
    assert trace.records[coords.index(0)].nnz == 1
    # |g_1| = lam (1 - 1e-9) is inside the margin: every draw of it takes
    # the scalar step, which leaves it at zero
    assert trace.final_state.alpha[1] == 0.0
    assert read.count(1) == coords.count(1) > 0
    # the rest are settled by the screen
    assert 2 not in read and 3 not in read
    assert trace.counters["screened"] == coords.count(2) + coords.count(3)
    # a replaying selector would stop at the exact optimum this reaches,
    # where its every-step check reads a zero score
    scalar = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, max_iters=60,
                                      tol=0.0, seed=7, record_theta=True))
    assert fingerprint(trace) == fingerprint(scalar)


@pytest.mark.parametrize("cfg,screens", [
    (SolverConfig(rule=Rule.UNIFORM), True),
    (SolverConfig(rule=Rule.UNIFORM, record_gap=True, trace_every=5), True),
    (SolverConfig(rule=Rule.UNIFORM, record_theta=True), False),
    (SolverConfig(rule=Rule.UNIFORM, selector=replay(0)), False),
    (SolverConfig(rule=Rule.GSS), False),
    (SolverConfig(rule=Rule.GSQ), False)])
def test_steps_decide_the_screen(cfg, screens):
    """Only an unselected, untheta'd uniform solve screens its draws."""
    p = random_problem("lasso", np.random.default_rng(4), n=30, d=10)
    s = objectives.IterateState.zeros(p)
    steps = solver._steps_for(p, cfg, s)
    assert (steps.screen is not None) == screens
    assert s.grad is not None  # each of these keeps the gradient
    assert (solver._solve(p, cfg).counters["screened"] > 0) == screens


def test_bound_remade_at_each_refresh(audit, monkeypatch):
    """After every move that refreshes the kept gradient, the screen's
    bound is lam less the margin read from the state at that moment, which
    the audit holds against oracles.FRESH."""
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", 200)
    p = random_problem("lasso", np.random.default_rng(3), n=60, d=20,
                       lam=0.5)
    trace = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, max_iters=2503,
                                     tol=0.0, seed=5))
    assert trace.counters["screened"] > 1000
    bounds = [kept["bound"] for kept in audit.refreshed]
    assert len(bounds) == trace.counters["grad_refreshes"] >= 3
    assert len(set(bounds)) > 1  # a stale bound would be told apart
