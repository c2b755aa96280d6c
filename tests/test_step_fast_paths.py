"""The box steps' kept state and check, the column read a step shares with
its move, and the SVM gap read off the gradient, each against the
expression it replaces.

- Under the audit fixture (conftest), which holds the kept bound state,
  |g| and gap sums against fresh values after every move and the check
  against select_gss_box over ActiveSet.from_state at every check: SVM
  solves for gs-s, gs-q and uniform, with and without line search, with
  the gap sums kept and without, under the hashing engine (a check every n
  steps), to round-off from a mid-solve state, past at least three
  refreshes, and moves that leave alpha_j one ulp off a bound.
- The check at the buffer's edge cases, against select_gss_box over
  from_state's set: an empty set, a zero best, a NaN, ties and signed
  zeros.
- duality_gap must match the hinge primal less the dual from a fresh
  matvec, and the benchmark's own certificate at solves' final states.
- The objective change read off a step's column must equal the one computed
  from the column afresh, bitwise, for every loss and regularizer.
- A step's new alpha_j is a Python float, for every loss, with and without
  line search, on sparse and fully stored matrices.
- A step that reads g_j off the kept gradient takes the steps of the column
  dot it replaces, on the benchmark's SVM dual and a lasso of lasso-dense's
  shape: the same coordinates, kinds, status and counters but the drifts,
  and F and the gap to round-off.
- The residual moves a solve queues stay invisible: reading the residual
  after every move leaves the trace and the final state bitwise.
"""

import copy
import importlib.util
import os

import numpy as np
import pytest

from conftest import assert_checked, random_problem, random_state, \
    svm_problem
from greedycd import objectives, solver
from greedycd.data_io import (CorrelatedLasso, RandomSvm, SynthSpec,
                              fold_labels, gen_synthetic)
from greedycd.objectives import (Box, CompositeProblem, ElasticNetL1,
                                 IterateState, L1, Logistic,
                                 apply_coord_delta, coord_grad, duality_gap,
                                 make_lasso, make_svm_dual)
from greedycd.selection import Rule
from greedycd.smips import HyperplaneLsh
from greedycd.solver import SolverConfig, solve_box
from greedycd.sparse import SparseColMatrix

STEPS = 500
EVERY = 100  # RESIDUAL_REFRESH_EVERY here: five refreshes in STEPS moves


def audited(monkeypatch, p, cfg, start=None):
    """The trace of a solve from start (alpha = 0 when None) at
    RESIDUAL_REFRESH_EVERY = EVERY, which must pass at least three
    refreshes; the test's audit fixture checks every move and check."""
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", EVERY)
    trace = solver._solve(p, cfg, start=start)
    assert trace.counters["grad_refreshes"] >= 3
    return trace


def mid_solve_state(p):
    """The state after 300 uniform steps: some, not all, alpha_i nonzero."""
    start = solve_box(p, SolverConfig(rule=Rule.UNIFORM, max_iters=300,
                                      tol=0.0)).final_state
    assert 0 < np.count_nonzero(start.alpha) < p.n
    return start


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
def test_kept_active_set_matches_from_state(audit, monkeypatch, rule,
                                            line_search):
    trace = audited(monkeypatch, svm_problem(0), SolverConfig(
        rule=rule, use_line_search=line_search, max_iters=STEPS, tol=0.0,
        seed=3))
    assert trace.n_steps == len(audit.checks) == STEPS


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
def test_kept_state_fresh_after_every_move(audit, monkeypatch, rule,
                                           line_search):
    trace = audited(monkeypatch, svm_problem(5), SolverConfig(
        rule=rule, use_line_search=line_search, max_iters=STEPS, tol=0.0,
        record_gap=True, seed=3))
    assert trace.n_steps == len(audit.moves) == STEPS


def assert_hashed(audit, monkeypatch, record_gap):
    """A solve by the hashing engine, whose picks often move nothing: a
    check every n steps, and every move in between audited."""
    p = svm_problem(1)
    steps = 10 * EVERY
    trace = audited(monkeypatch, p, SolverConfig(
        engine="smips", backend=HyperplaneLsh(3, 10, seed=0), max_iters=steps,
        tol=0.0, record_gap=record_gap))
    assert trace.n_steps == len(audit.moves) == steps
    assert len(audit.checks) == -(-steps // p.n)


def test_kept_active_set_under_hashing_engine(audit, monkeypatch):
    assert_hashed(audit, monkeypatch, record_gap=False)


def test_kept_state_fresh_under_hashing_engine(audit, monkeypatch):
    assert_hashed(audit, monkeypatch, record_gap=True)


def test_kept_active_set_in_polish(audit, monkeypatch):
    p = svm_problem(2)
    audited(monkeypatch, p, SolverConfig(max_iters=STEPS, tol=1e-14),
            start=mid_solve_state(p))


def test_kept_state_fresh_from_a_mid_solve_state(audit, monkeypatch):
    p = svm_problem(7)
    audited(monkeypatch, p, SolverConfig(max_iters=STEPS, tol=1e-14,
                                         record_gap=True),
            start=mid_solve_state(p))


@pytest.mark.parametrize("target", [1.0 - 2.0**-53, 1.0 + 2.0**-52, 1.0,
                                    2.0**-1074, 0.0, 0.5])
def test_kept_active_set_one_ulp_off_a_bound(audit, target):
    p = svm_problem(3, n=30, d=8)
    s = IterateState.zeros(p)
    steps = solver._steps_for(p, SolverConfig(), s)
    steps.steepest(p, s)
    for j in (4, 7):
        for value in (0.5, 0.0, target):
            steps.move(p, s, j, float(s.alpha[j]), value)  # the move is ours
            assert s.alpha[j] == value
            steps.steepest(p, s)
    assert len(audit.moves) == 6 and len(audit.checks) == 7


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


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic", "svm"])
def test_steps_take_python_floats(kind, line_search, rng, monkeypatch):
    base = random_problem(kind, rng)
    full = SparseColMatrix.from_dense(rng.standard_normal((base.d, base.n)))
    steps_cls = solver._BoxSteps if kind == "svm" else solver._L1Steps
    news = []

    def stepping(steps, p, s, j, aj, step=steps_cls.step):
        label, new = step(steps, p, s, j, aj)
        news.append(new)
        return label, new

    monkeypatch.setattr(steps_cls, "step", stepping)
    for M in (base.matrix, full):
        p = CompositeProblem(M, base.linear_term, base.loss, base.reg)
        solver._solve(p, SolverConfig(max_iters=5, tol=0.0,
                                      use_line_search=line_search))
    assert len(news) == 10
    assert all(type(new) is float for new in news), news


def column_dot_coord_grad(p, s, j):
    """coord_grad as it was before a kept gradient gave g_j: the column dot
    <A_j, nabla l> on supp(A_j), plus c_j and lam2 alpha_j, always."""
    rows, vals = p.matrix.col_view(j)
    gl = p.loss.grad(p, s.residual[rows], rows)
    dot = float(vals @ gl)
    s._read = (j, rows, vals, gl, dot)
    g = dot + p.linear_term.item(j)
    if p.reg.lam2:
        g += p.reg.lam2 * s.alpha.item(j)
    return g


def bench_shaped(kind):
    """The benchmark's SVM dual, or a lasso of lasso-dense's shape, with
    the tol the benchmark solves it to."""
    if kind == "svm":
        ds = gen_synthetic(SynthSpec(RandomSvm(n=800, d=40, margin=0.1), 0))
        return make_svm_dual(fold_labels(ds), 0.05), 1e-5
    ds = gen_synthetic(SynthSpec(CorrelatedLasso(n=1000, d=100,
                                                 density=0.05), 0))
    return make_lasso(ds.matrix, ds.labels, 0.5), 1e-4


DRIFTS = {"max_grad_drift", "max_f_drift", "max_gap_drift"}


@pytest.mark.parametrize("line_search", [False, True])
@pytest.mark.parametrize("rule", [Rule.GSS, Rule.GSQ, Rule.UNIFORM])
@pytest.mark.parametrize("kind", ["lasso", "svm"])
def test_kept_gradient_step_takes_the_column_dots_steps(kind, rule,
                                                         line_search,
                                                         monkeypatch):
    """A step that reads g_j off the kept gradient takes the steps the
    column dot takes: the same coordinates, kinds, status and counters,
    F and the gap to round-off."""
    p, tol = bench_shaped(kind)
    cfg = SolverConfig(rule=rule, use_line_search=line_search, tol=tol,
                       max_iters=100_000, record_gap=kind == "svm")
    kept = solver._solve(p, cfg)
    monkeypatch.setattr(objectives, "coord_grad", column_dot_coord_grad)
    monkeypatch.setattr(solver, "coord_grad", column_dot_coord_grad)
    dot = solver._solve(p, cfg)
    assert kept.status == dot.status == "tol"
    for name in ("coord", "step_kind"):
        assert kept.columns[name].tobytes() == dot.columns[name].tobytes()
    assert {k: v for k, v in kept.counters.items() if k not in DRIFTS} \
        == {k: v for k, v in dot.counters.items() if k not in DRIFTS}
    f = dot.columns["f_value"]
    assert np.all(np.abs(kept.columns["f_value"] - f) <= 1e-12 * (1 + abs(f)))
    if cfg.record_gap:
        assert np.all(np.abs(kept.columns["gap"] - dot.columns["gap"])
                      <= 1e-12)


# kind, rule, record_gap, and the most moves queued after a move: a
# quadratic loss on a kept gradient queues them till a refresh, unless an
# L1 gap record reads the residual; logistic's move reads it
@pytest.mark.parametrize("kind,rule,record_gap,most", [
    ("lasso", Rule.UNIFORM, False, EVERY - 1), ("lasso", Rule.GSS, True, 1),
    ("elasticnet", Rule.GSQ, False, EVERY - 1),
    ("logistic", Rule.UNIFORM, False, 0), ("svm", Rule.GSS, True, EVERY - 1),
    ("svm", Rule.UNIFORM, False, EVERY - 1)])
def test_residual_reads_leave_the_solve_as_it_was(kind, rule, record_gap,
                                                  most, monkeypatch):
    """A read of the residual after every move applies each queued move at
    once; the trace, the final alpha and the residual keep every bit."""
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", EVERY)
    p = random_problem(kind, np.random.default_rng(8), n=60, d=20, lam=0.1)
    cfg = SolverConfig(rule=rule, max_iters=STEPS, tol=0.0,
                       record_gap=record_gap)
    move = solver._Steps.move
    queued = []  # per move of the first solve, the moves then queued

    def moving(steps, p, s, j, aj, new):
        move(steps, p, s, j, aj, new)
        if len(traces) == 0:
            queued.append(len(s._moves or ()))
        else:
            s.residual  # which applies the one move queued
            assert s._moves is None

    monkeypatch.setattr(solver._Steps, "move", moving)
    traces = []
    for _ in range(2):
        traces.append(solver._solve(p, cfg))
    assert max(queued) == most
    queued, read = traces
    assert queued.status == read.status
    assert queued.counters == read.counters
    assert queued.counters["grad_refreshes"] >= 3
    assert queued.columns.keys() == read.columns.keys()
    for name in queued.columns.keys() - {"wall_ns"}:
        assert queued.columns[name].tobytes() == read.columns[name].tobytes()
    for name in ("alpha", "residual"):
        assert getattr(queued.final_state, name).tobytes() \
            == getattr(read.final_state, name).tobytes()
