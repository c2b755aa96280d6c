"""The box check's score buffer, the column read a step shares with its
move, and the SVM gap read off the gradient, each against the expression it
replaces.

- The box steps' check must give select_gss_box's outcome over
  ActiveSet.from_state, and uniform must draw from from_state's set, at
  every check, for every rule, with and without line search, under the
  hashing engine (a check every n steps) and in a solve to round-off from
  a mid-solve state, over runs past several refreshes, when a move leaves
  alpha_j one ulp off a bound, and at the buffer's edge cases: an empty
  set, a zero best, a NaN, ties and signed zeros.
- After every move, what the box steps keep must equal fresh values: the
  bound state and |g| bitwise, the SVM gap's sums to 1e-12.
- duality_gap must match the hinge primal less the dual from a fresh
  matvec, and the benchmark's own certificate at solves' final states.
- The objective change read off a step's column must equal the one computed
  from the column afresh, bitwise, for every loss and regularizer.
"""

import copy
import importlib.util
import os

import numpy as np
import pytest

from conftest import random_problem, random_state, svm_problem
from greedycd import objectives, solver
from greedycd.data_io import RandomSvm, SynthSpec, fold_labels, gen_synthetic
from greedycd.objectives import (Box, CompositeProblem, ElasticNetL1,
                                 IterateState, L1, Logistic,
                                 apply_coord_delta, coord_grad, duality_gap,
                                 make_svm_dual)
from greedycd.selection import ActiveSet, Rule, select_gss_box
from greedycd.smips import HyperplaneLsh
from greedycd.solver import SolverConfig, solve_box

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def assert_checked(steps, p, s, out):
    """The check's outcome and uniform's set are select_gss_box's and
    from_state's on the same state, bitwise."""
    ref_set = ActiveSet.from_state(s.alpha, s.grad)
    ref = select_gss_box(p, s, active=ref_set)
    if ref is None:
        assert out is None
    else:
        # NaN equals NaN here, and 0.0 does not equal -0.0
        np.testing.assert_equal((out.coord, out.score), (ref.coord, ref.score))
    np.testing.assert_array_equal(steps.members, ref_set.membership)


@pytest.fixture
def checked(monkeypatch):
    """Counts the box steps' checks after checking each against
    select_gss_box over ActiveSet.from_state."""
    calls = []
    steepest = solver._BoxSteps.steepest

    def checking(steps, p, s):
        out = steepest(steps, p, s)
        assert_checked(steps, p, s, out)
        calls.append(s.grad_refreshes)
        return out

    monkeypatch.setattr(solver._BoxSteps, "steepest", checking)
    return calls


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
def test_kept_active_set_matches_from_state(checked, rule, line_search):
    p = svm_problem(0)
    trace = solve_box(p, SolverConfig(rule=rule, use_line_search=line_search,
                                      max_iters=STEPS, tol=0.0, seed=3))
    assert trace.n_steps == STEPS
    assert len(checked) == STEPS
    assert checked[-1] > 3  # checked past more than three refreshes


def test_kept_active_set_under_hashing_engine(checked):
    p = svm_problem(1)
    steps = 2 * STEPS  # many hashed picks move nothing
    trace = solve_box(p, SolverConfig(engine="smips",
                                      backend=HyperplaneLsh(3, 10, seed=0),
                                      max_iters=steps, tol=0.0))
    assert trace.n_steps == steps
    # a check every n steps, with the moves in between re-read
    assert len(checked) == -(-steps // p.n)
    assert checked[-1] > 3


def test_kept_active_set_in_polish(checked):
    p = svm_problem(2)
    start = solve_box(p, SolverConfig(rule=Rule.UNIFORM, max_iters=300,
                                      tol=0.0)).final_state
    assert 0 < np.count_nonzero(start.alpha) < p.n  # not from zero
    solver._solve(p, SolverConfig(max_iters=STEPS, tol=1e-14), start=start)
    assert len(checked) >= STEPS
    assert checked[-1] > 3


@pytest.mark.parametrize("target", [1.0 - 2.0**-53, 1.0 + 2.0**-52, 1.0,
                                    2.0**-1074, 0.0, 0.5])
def test_kept_active_set_one_ulp_off_a_bound(checked, target):
    p = svm_problem(3, n=30, d=8)
    s = IterateState.zeros(p)
    steps = solver._steps_for(p, SolverConfig(), s)
    steps.steepest(p, s)
    for j in (4, 7):
        for value in (0.5, 0.0, target):
            steps.move(p, s, j, float(s.alpha[j]), value)  # the move is ours
            assert s.alpha[j] == value
            steps.steepest(p, s)
    assert len(checked) == 7


@pytest.fixture
def moved(monkeypatch):
    """Counts the box steps' moves after checking that what they keep is
    fresh: the bound state and |g| bitwise, the SVM gap's sums to 1e-12."""
    calls = []
    move = solver._BoxSteps.move

    def checking(steps, p, s, j, aj, new):
        read = move(steps, p, s, j, aj, new)
        alpha, g = s.alpha, s.grad
        np.testing.assert_array_equal(steps.interior,
                                      (alpha > 0) & (alpha < 1))
        assert steps.sign.tobytes() == \
            ((alpha == 1).astype(float) - (alpha == 0)).tobytes()
        assert steps.abs_g.tobytes() == np.abs(g).tobytes()
        a, total = steps.sums
        assert abs(a - float(alpha @ g)) <= 1e-12
        assert abs(total - float(g.sum())) <= 1e-12
        calls.append(s.grad_refreshes)
        return read

    monkeypatch.setattr(solver._BoxSteps, "move", checking)
    return calls


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
def test_kept_state_fresh_after_every_move(moved, rule, line_search):
    p = svm_problem(5)
    trace = solve_box(p, SolverConfig(rule=rule, use_line_search=line_search,
                                      max_iters=STEPS, tol=0.0,
                                      record_gap=True, seed=3))
    assert len(moved) == trace.n_steps == STEPS
    assert moved[-1] > 3  # past more than three refreshes


def test_kept_state_fresh_under_hashing_engine(moved):
    p = svm_problem(6)
    trace = solve_box(p, SolverConfig(engine="smips",
                                      backend=HyperplaneLsh(3, 10, seed=0),
                                      max_iters=2 * STEPS, tol=0.0,
                                      record_gap=True))
    assert len(moved) == trace.n_steps == 2 * STEPS
    assert moved[-1] > 3


def test_kept_state_fresh_from_a_mid_solve_state(moved):
    p = svm_problem(7)
    start = solve_box(p, SolverConfig(rule=Rule.UNIFORM, max_iters=300,
                                      tol=0.0, record_gap=True)).final_state
    assert 0 < np.count_nonzero(start.alpha) < p.n  # not from zero
    moved.clear()
    trace = solver._solve(p, SolverConfig(max_iters=STEPS, tol=1e-14,
                                          record_gap=True), start=start)
    assert len(moved) == trace.n_steps == STEPS
    assert moved[-1] > 3


def box_state(alpha, grad):
    """An SVM-dual state at alpha whose kept gradient is set to grad, and the
    box steps with their check made on it."""
    p = svm_problem(4, n=len(alpha), d=5)
    alpha = np.array(alpha, dtype=float)
    s = IterateState(alpha=alpha, residual=p.matrix.matvec(alpha),
                     nnz=int(np.count_nonzero(alpha)))
    s.grad = np.array(grad, dtype=float)
    steps = solver._steps_for(p, SolverConfig(tol=0.0), s)
    assert_checked(steps, p, s, steps.steepest(p, s))
    return p, s, steps


def stop_status(p, s, steps):
    """The status of a one-step descent from the state at tol 0."""
    return solver._descend(p, s, steps, SolverConfig(tol=0.0, max_iters=1),
                           solver._Records(1))[0]


def test_check_on_an_empty_active_set():
    # at 0 with g >= 0 and at 1 with g <= 0, nothing may move
    p, s, steps = box_state([0.0, 1.0, 0.0, 1.0], [0.1, -0.2, 0.0, 0.0])
    assert steps.steepest(p, s) is None and not steps.members.any()
    assert stop_status(p, s, steps) == "optimal"


@pytest.mark.parametrize("g", [0.0, -0.0])
def test_check_on_a_lone_interior_member_at_zero(g):
    p, s, steps = box_state([0.0, 0.5, 1.0], [0.4, g, -0.4])
    out = steps.steepest(p, s)
    assert (out.coord, out.score) == (1, 0.0)
    np.testing.assert_array_equal(steps.members, [False, True, False])
    assert stop_status(p, s, steps) == "tol"


@pytest.mark.parametrize("alpha", [[0.5, 0.0, 1.0, 0.5], [0.0, 0.5, 0.0, 1.0],
                                   [1.0, 1.0, 0.5, 0.0]])
@pytest.mark.parametrize("at", [0, 1, 2, 3])
def test_check_with_a_nan_gradient(alpha, at):
    grad = np.array([-0.3, 0.2, 0.7, -0.1])
    grad[at] = np.nan
    box_state(alpha, grad)  # which checks against select_gss_box


@pytest.mark.parametrize("alpha,grad,coord", [
    # members at both bounds and inside, each scoring 0.3: the first wins
    ([0.0, 0.5, 1.0, 0.0, 0.5, 1.0], [-0.3, 0.3, 0.3, -0.3, -0.3, 0.3], 0),
    # a non-member of the same |g| comes first
    ([0.0, 1.0, 0.5, 1.0, 0.0], [0.3, -0.3, -0.3, 0.3, -0.3], 2),
    ([1.0, 0.0, 0.0, 0.5], [-0.3, 0.3, -0.3, 0.3], 2),
])
def test_check_breaks_ties_to_the_lowest_index(alpha, grad, coord):
    p, s, steps = box_state(alpha, grad)
    out = steps.steepest(p, s)
    assert (out.coord, out.score) == (coord, 0.3)


@pytest.mark.parametrize("inside,status", [(None, "optimal"), (0.2, None),
                                           (-0.0, "tol")])
def test_check_on_signed_zeros_at_both_bounds(inside, status):
    alpha, grad = [0.0, 0.0, 1.0, 1.0], [0.0, -0.0, 0.0, -0.0]
    if inside is not None:
        alpha, grad = alpha + [0.5], grad + [inside]
    p, s, steps = box_state(alpha, grad)
    np.testing.assert_array_equal(steps.members[:4], False)
    if status is not None:
        assert stop_status(p, s, steps) == status


def primal_minus_dual(p, s):
    """The hinge primal at w = A alpha / (lam n) less the dual value, each
    from a fresh matvec of alpha."""
    n = p.n
    lam = p.loss.svm_lambda
    v = p.matrix.matvec(s.alpha)
    w = v / (lam * n)
    margins = p.matrix.matvec_T(w)
    primal = float(np.maximum(1.0 - margins, 0.0).mean()) \
        + 0.5 * lam * float(w @ w)
    dual = float(s.alpha.mean()) - float(v @ v) / (2.0 * lam * n * n)
    return primal - dual


def test_duality_gap_matches_primal_minus_dual():
    checked = 0
    for n, seed in ((7, 0), (130, 1), (800, 2), (3001, 3)):
        p = svm_problem(seed, n=n, d=12)
        rng = np.random.default_rng(seed)
        for k in range(50):
            s = random_state(p, rng, box=True)
            if k % 3:
                s.track_gradient(p)
            if k % 2:
                s.track_objective(p)
            assert duality_gap(p, s) == pytest.approx(
                primal_minus_dual(p, s), rel=1e-12, abs=1e-12)
            checked += 1
    assert checked == 200


def load_certify():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "perfbench", "certify.py")
    spec = importlib.util.spec_from_file_location("perfbench_certify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("rule,line_search", [
    (Rule.GSS, False), (Rule.GSQ, False), (Rule.UNIFORM, False),
    (Rule.GSS, True)])
def test_duality_gap_matches_the_benchmarks_certificate(rule, line_search):
    certify = load_certify()
    lam = 0.05
    ds = gen_synthetic(SynthSpec(RandomSvm(n=300, d=20, margin=0.1), 0))
    p = make_svm_dual(fold_labels(ds), lam)
    trace = solve_box(p, SolverConfig(rule=rule, use_line_search=line_search,
                                      tol=1e-5, max_iters=100_000))
    assert trace.status == "tol"
    s = trace.final_state
    _, gap = certify.svm_gap(certify.csc_of(p.matrix), lam, s.alpha)
    assert duality_gap(p, s) == pytest.approx(gap, rel=1e-10)
    s.track_gradient(p)  # read off the kept g
    assert duality_gap(p, s) == pytest.approx(gap, rel=1e-10)


def reference_change(p, s, j, delta):
    """F(alpha + delta e_j) - F(alpha) with the column read afresh."""
    a = float(s.alpha[j])
    new = a + delta
    ridx, vals = p.matrix.col(j)
    if isinstance(p.loss, Logistic):
        z = -s.residual[ridx]
        lc = float(np.sum(np.logaddexp(0.0, z - delta * vals)
                          - np.logaddexp(0.0, z)))
    else:
        lc = delta * float(vals @ p.loss.grad(p, s.residual[ridx], ridx)) \
            + 0.5 * (1.0 / p.loss.scale(p)) * delta * delta \
            * float(p.matrix.col_sq_norms[j])
    change = lc + p.linear_term[j] * delta
    penalty = p.reg.change(a, new)
    if p.reg.lam2:
        penalty += 0.5 * p.reg.lam2 * delta * (a + new)
    return change + penalty


@pytest.mark.parametrize("reg", ["l1", "elasticnet", "box"])
@pytest.mark.parametrize("kind", ["lasso", "svm", "logistic"])
def test_objective_change_from_the_read_column(kind, reg, rng):
    base = random_problem(kind, rng, n=15, d=9)
    regs = {"l1": L1(0.05), "elasticnet": ElasticNetL1(0.05, 0.03),
            "box": Box()}
    p = CompositeProblem(base.matrix, base.linear_term, base.loss, regs[reg])
    for _ in range(40):
        s = random_state(p, rng, box=reg == "box")
        s.track_objective(p)
        j = int(rng.integers(p.n))
        a = float(s.alpha[j])
        new = float(rng.uniform(0.0, 1.0)) if reg == "box" \
            else float(rng.standard_normal())
        delta = new - a
        expected = reference_change(p, s, j, delta)
        coord_grad(p, s, j)
        assert objectives._objective_change(p, s, j, delta, s._read) \
            == expected
        # as a step applies it: read by coord_grad, then moved
        before = s._f_since
        coord_grad(p, s, j)
        apply_coord_delta(p, s, j, delta)
        assert s._f_since == before + expected


def test_move_without_a_matching_read(rng):
    """A move of another coordinate than the last one read, or with no read,
    reads its own column."""
    p = random_problem("svm", rng, n=15, d=9)
    s = random_state(p, rng, box=True)
    twin = copy.deepcopy(s)
    for st in (s, twin):
        st.track_gradient(p)
        st.track_objective(p)
    coord_grad(p, s, 3)
    for st in (s, twin):
        apply_coord_delta(p, st, 5, 0.25 - float(st.alpha[5]))
    np.testing.assert_array_equal(s.residual, twin.residual)
    np.testing.assert_array_equal(s.grad, twin.grad)
    assert s.objective == twin.objective
