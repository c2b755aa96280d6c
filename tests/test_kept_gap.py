"""The SVM duality gap read off the box steps' kept sums, against
duality_gap on the same state.

A box loop that reads an SVM dual's gap keeps sum_i alpha_i g_i and
sum_i g_i from step to step and recomputes them at each gradient refresh.
- Every read must be within 1e-12 of duality_gap: for gs-s, gs-q and
  uniform, with line search, under the hashing engine, at trace_every 7,
  at tol 0 with record_gap, and from a mid-solve start.
- max_gap_drift must stay bounded past at least three refreshes, and
  take a refresh that the solve's last move makes.
- With the gap read by duality_gap instead, a solve must take the same
  steps and record the same columns, bitwise, but the gap.
- The solve keeps duality_gap's refusals, with one call of it, made
  before any move.
- The stop check and the record of one iterate share one kept read.
- The refresh hook runs once per gradient refresh, right after the update
  of the move that made it, and on no other move.
"""

import numpy as np
import pytest

from conftest import random_problem, svm_problem as random_svm
from greedycd import solver
from greedycd.objectives import Box, CompositeProblem, duality_gap
from greedycd.selection import Rule
from greedycd.smips import HyperplaneLsh
from greedycd.solver import SolverConfig, _solve, solve_box

STEPS = 3500  # three refreshes at RESIDUAL_REFRESH_EVERY = 1000
CLOSE = 1e-12


def svm_problem(seed, n=150, d=30, svm_lambda=1e-3):
    return random_svm(seed, n, d, svm_lambda)


@pytest.fixture
def compared(monkeypatch):
    """The kept gap at each read, after checking it against duality_gap on
    the same state; a read that duality_gap answers counts as None."""
    reads = []
    kept = solver._BoxSteps.gap

    def comparing(steps, p, s):
        value = kept(steps, p, s)
        assert abs(value - duality_gap(p, s)) <= CLOSE
        reads.append(value if steps.sums is not None else None)
        return value

    monkeypatch.setattr(solver._BoxSteps, "gap", comparing)
    return reads


def assert_kept(trace, reads, at_least):
    assert len(reads) >= at_least and None not in reads
    c = trace.counters
    assert c["grad_refreshes"] >= 3
    assert 0.0 < c["max_gap_drift"] <= CLOSE


@pytest.mark.parametrize("rule,line_search", [
    (Rule.GSS, False), (Rule.GSQ, False), (Rule.UNIFORM, False),
    (Rule.GSS, True), (Rule.UNIFORM, True)])
def test_kept_gap_at_every_step(compared, rule, line_search):
    p = svm_problem(0)
    trace = solve_box(p, SolverConfig(rule=rule, use_line_search=line_search,
                                      max_iters=STEPS, tol=1e-14, seed=2))
    assert trace.status == "max_iters"
    # the stop check reads the gap before every step
    assert_kept(trace, compared, STEPS)


def test_kept_gap_under_the_hashing_engine(compared):
    p = svm_problem(1)
    trace = solve_box(p, SolverConfig(engine="smips",
                                      backend=HyperplaneLsh(3, 10, seed=0),
                                      max_iters=STEPS, tol=1e-14))
    assert trace.status == "max_iters"
    assert_kept(trace, compared, STEPS)


@pytest.mark.parametrize("every", [1, 7])
def test_kept_gap_recorded_at_tol_zero(compared, every):
    """At tol 0 only the records read the gap; the sums still take every
    move, so each recorded gap is the whole trace's at that step."""
    p = svm_problem(2)
    trace = solve_box(p, SolverConfig(max_iters=STEPS, tol=0.0,
                                      trace_every=every, record_gap=True))
    assert_kept(trace, compared, STEPS // every)
    np.testing.assert_array_equal(trace.columns["gap"], compared)
    if every == 7:
        whole = solve_box(p, SolverConfig(max_iters=STEPS, tol=0.0,
                                          record_gap=True))
        by_iter = dict(zip(whole.columns["iter"], whole.columns["gap"]))
        assert trace.columns["gap"].tolist() == \
            [by_iter[i] for i in trace.columns["iter"]]


def test_kept_gap_from_a_mid_solve_state(compared):
    p = svm_problem(3)
    start = solve_box(p, SolverConfig(rule=Rule.UNIFORM, max_iters=500,
                                      tol=0.0)).final_state
    assert 0 < np.count_nonzero(start.alpha) < p.n
    trace = _solve(p, SolverConfig(max_iters=STEPS, tol=1e-14,
                                   record_gap=True), start=start)
    assert_kept(trace, compared, STEPS)
    assert trace.columns["gap"][-1] == pytest.approx(
        duality_gap(p, trace.final_state), abs=CLOSE)


@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
@pytest.mark.parametrize("every", [1, 7])
def test_exact_gap_takes_the_same_steps(monkeypatch, rule, every):
    """The gap read from the kept sums moves nothing but the gap column."""
    p = svm_problem(4, svm_lambda=0.05)
    cfg = SolverConfig(rule=rule, max_iters=20_000, tol=1e-7,
                       trace_every=every, record_gap=True, seed=1)
    kept = solve_box(p, cfg)
    monkeypatch.setattr(solver._BoxSteps, "gap",
                        lambda steps, p, s: duality_gap(p, s))
    exact = solve_box(p, cfg)
    assert kept.status == exact.status == "tol"
    assert kept.counters == exact.counters
    for name, col in kept.columns.items():
        if name == "gap":
            np.testing.assert_allclose(col, exact.columns[name], rtol=0,
                                       atol=CLOSE)
        elif name != "wall_ns":
            assert col.tobytes() == exact.columns[name].tobytes(), name
    assert kept.final_state.alpha.tobytes() == \
        exact.final_state.alpha.tobytes()


def test_drift_of_a_refresh_at_the_last_move():
    """The sums take each move as it is made, so a refresh made by the last
    move counts in max_gap_drift though no read follows it."""
    p = svm_problem(8)
    steps = 1000  # RESIDUAL_REFRESH_EVERY moves: the last one refreshes
    trace = solve_box(p, SolverConfig(max_iters=steps, tol=1e-14))
    assert trace.status == "max_iters" and trace.n_steps == steps
    assert trace.counters["grad_refreshes"] == 1
    assert 0.0 < trace.counters["max_gap_drift"] <= CLOSE


def test_gram_row_sums_are_kept():
    p = svm_problem(5, n=40, d=10)
    A = p.matrix.to_dense()
    sums = p.matrix.gram_row_sums()
    np.testing.assert_allclose(sums, A.T @ A @ np.ones(p.n), rtol=1e-12)
    assert p.matrix.gram_row_sums() is sums and not sums.flags.writeable


@pytest.mark.parametrize("record_gap,tol", [(True, 0.0), (False, 1e-6)])
def test_refusals_keep_their_messages(monkeypatch, record_gap, tol):
    calls = []
    gap = solver.duality_gap
    monkeypatch.setattr(solver, "duality_gap",
                        lambda p, s: calls.append(1) or gap(p, s))
    q = svm_problem(6, n=30, d=8)
    c = np.full(q.n, -1.0 / q.n)
    c[2] = 0.0
    p = CompositeProblem(q.matrix, c, q.loss, q.reg)
    cfg = SolverConfig(max_iters=50, tol=tol, record_gap=record_gap)
    with pytest.raises(ValueError, match=r"c = -\(1/n\) 1"):
        solve_box(p, cfg)
    assert calls == [1]
    # a box problem with another loss has no gap; only a record asks
    lasso = random_problem("lasso", np.random.default_rng(6))
    boxed = CompositeProblem(lasso.matrix, np.zeros(lasso.n), lasso.loss,
                             q.reg)
    if record_gap:
        with pytest.raises(TypeError, match="SVM dual only"):
            solve_box(boxed, cfg)
    else:
        assert solve_box(boxed, cfg).n_steps > 0


@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
@pytest.mark.parametrize("every", [1, 7])
def test_kept_read_at_most_once_per_iterate(monkeypatch, rule, every):
    """The stop check and the record of one iterate share one kept read;
    only a move makes the next."""
    events = []
    read, move = solver._BoxSteps.read_gap, solver._BoxSteps.move
    monkeypatch.setattr(solver._BoxSteps, "read_gap",
                        lambda *args: events.append("read") or read(*args))
    monkeypatch.setattr(solver._BoxSteps, "move",
                        lambda *args: events.append("move") or move(*args))
    p = svm_problem(9, n=60, d=12)
    trace = solve_box(p, SolverConfig(rule=rule, max_iters=400, tol=1e-9,
                                      trace_every=every, record_gap=True))
    moves = events.count("move")
    assert moves > 0 and "read,read" not in ",".join(events)
    # the check reads every iterate, the record reads it again
    assert events.count("read") == moves + 1
    assert np.isfinite(trace.columns["gap"]).all()


@pytest.mark.parametrize("rule", [Rule.GSS, Rule.UNIFORM])
def test_box_lasso_gap_record_refused_before_any_move(monkeypatch, rule):
    moves = []
    move = solver._BoxSteps.move
    monkeypatch.setattr(solver._BoxSteps, "move",
                        lambda *args: moves.append(1) or move(*args))
    lasso = random_problem("lasso", np.random.default_rng(7))
    boxed = CompositeProblem(lasso.matrix, np.zeros(lasso.n), lasso.loss,
                             Box())
    with pytest.raises(TypeError, match="SVM dual only"):
        solve_box(boxed, SolverConfig(rule=rule, max_iters=50,
                                      record_gap=True))
    assert moves == []
    assert solve_box(boxed, SolverConfig(rule=rule, max_iters=50)).n_steps
    assert len(moves) > 0


@pytest.mark.parametrize("record_gap", [False, True])
def test_refresh_follows_each_refreshing_move(monkeypatch, record_gap):
    events = []  # (hook, grad_refreshes when it ran)
    for hook in ("update", "refresh"):
        def recording(steps, p, s, *args, hook=hook,
                      run=getattr(solver._BoxSteps, hook)):
            events.append((hook, s.grad_refreshes))
            return run(steps, p, s, *args)

        monkeypatch.setattr(solver._BoxSteps, hook, recording)
    p = svm_problem(10, n=60, d=12)
    trace = solve_box(p, SolverConfig(rule=Rule.UNIFORM, max_iters=STEPS,
                                      tol=0.0, record_gap=record_gap))
    at = [k for k, (hook, _) in enumerate(events) if hook == "refresh"]
    assert len(at) == trace.counters["grad_refreshes"] >= 3
    for n, k in enumerate(at):
        # the hook follows the update of the move that made the refresh,
        # the first update to see it
        assert events[k - 1:k + 1] == [("update", n + 1), ("refresh", n + 1)]
        assert events[k - 2] == ("update", n)
