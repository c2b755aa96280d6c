"""The maintained gradient against loops that recompute it every step.

solve_l1 (every rule but the hashing engine), solve_box and the harness
polish keep the full gradient current after each step instead of
recomputing it. Each case runs past four refreshes (RESIDUAL_REFRESH_EVERY
steps apart) and must pick the same coordinates as the recomputing
reference while the scores are above round-off, end at the same objective,
and refresh with a bounded drift.
"""

import numpy as np
import pytest

from conftest import random_matrix, random_problem, random_state
from greedycd import objectives, solver, sparse
from greedycd.harness import _polish
from greedycd.objectives import (IterateState, apply_coord_delta, coord_grad,
                                 duality_gap, full_grad, make_svm_dual,
                                 objective_value, subgrad_score)
from greedycd.selection import ActiveSet, Rule
from greedycd.solver import SolverConfig, solve_box, solve_l1
from greedycd.sparse import shrink

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def reference_l1(p, steps, rule=Rule.GSS):
    """GS-s / GS-q on an L1 problem with full_grad recomputed every step."""
    from greedycd.selection import select_gsq
    s = IterateState.zeros(p)
    L = p.smoothness
    coords, scores = [], []
    for _ in range(steps):
        grad = full_grad(p, s)
        sv = np.abs(subgrad_score(p, s, grad=grad))
        if rule is Rule.GSS:
            j = int(np.argmax(sv))
        else:
            j = select_gsq(p, s, grad=grad).coord
        aj = float(s.alpha[j])
        a_plus = shrink(aj - coord_grad(p, s, j) / L, p.l1_lambda / L)
        new = a_plus if aj * a_plus >= 0.0 else 0.0
        apply_coord_delta(p, s, j, new - aj)
        coords.append(j)
        scores.append(float(sv.max()))
    return coords, scores, s


def reference_box(p, steps):
    """GS-s over the active set with full_grad recomputed every step."""
    s = IterateState.zeros(p)
    L = p.smoothness
    coords, scores = [], []
    for _ in range(steps):
        grad = full_grad(p, s)
        active = ActiveSet.from_state(s.alpha, grad)
        masked = np.where(active.membership, np.abs(grad), -1.0)
        j = int(np.argmax(masked))
        aj = float(s.alpha[j])
        new = min(1.0, max(0.0, aj - coord_grad(p, s, j) / L))
        apply_coord_delta(p, s, j, new - aj)
        coords.append(j)
        scores.append(float(masked.max()))
    return coords, scores, s


def svm_problem(seed):
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], 200)
    return make_svm_dual(random_matrix(rng, 20, 200).scale_columns(labels),
                         0.01)


def l1_problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        return random_problem(kind, rng, n=40, d=60, lam=0.01)
    return random_problem(kind, rng, n=60, d=40, lam=0.01, lam2=0.01)


def assert_equivalent(p, trace, ref_coords, ref_scores, ref_state):
    g = full_grad(p, trace.final_state)
    roundoff = 1e-9 * (1.0 + float(np.abs(g).max()))
    live = [k for k, sc in enumerate(ref_scores) if sc > roundoff]
    upto = live[-1] + 1 if live else 0
    got = [r.coord for r in trace.records]
    assert got[:upto] == ref_coords[:upto]
    f_ref = objective_value(p, ref_state)
    f_new = objective_value(p, trace.final_state)
    assert abs(f_new - f_ref) <= 1e-10 * max(1.0, abs(f_ref))
    assert trace.counters["grad_refreshes"] > 3
    assert trace.counters["max_grad_drift"] <= roundoff


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic"])
def test_l1_matches_recomputing_loop(kind):
    p = l1_problem(kind, 0)
    trace = solve_l1(p, SolverConfig(max_iters=STEPS, tol=0.0))
    assert_equivalent(p, trace, *reference_l1(p, STEPS))


def test_gsq_matches_recomputing_loop():
    p = l1_problem("lasso", 1)
    trace = solve_l1(p, SolverConfig(rule=Rule.GSQ, max_iters=STEPS,
                                     tol=0.0))
    assert_equivalent(p, trace, *reference_l1(p, STEPS, Rule.GSQ))


def test_svm_dual_matches_recomputing_loop():
    p = svm_problem(0)
    trace = solve_box(p, SolverConfig(max_iters=STEPS, tol=0.0))
    assert_equivalent(p, trace, *reference_box(p, STEPS))


def test_uniform_keeps_gradient():
    # the screen settles a draw only when |g_j| is below lam by a margin of
    # at least SCREEN_MARGIN * lam, which must hold 1000x the drift
    p = l1_problem("lasso", 2)
    trace = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, max_iters=2500,
                                     tol=0.0))
    c = trace.counters
    assert c["good"] + c["bad"] - c["screened"] > 1000  # scalar steps
    assert c["grad_refreshes"] >= 1
    margin = solver.SCREEN_MARGIN * p.reg.lam
    assert c["max_grad_drift"] <= margin / solver.SCREEN_DRIFT_MULTIPLE


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic", "svm"])
def test_updates_track_full_grad(kind, rng):
    p = random_problem(kind, rng, n=15, d=9)
    s = random_state(p, rng, box=(kind == "svm"))
    s.track_gradient(p)
    for _ in range(300):
        j = int(rng.integers(p.n))
        if kind == "svm":
            delta = float(rng.uniform(0.0, 1.0)) - s.alpha[j]
        else:
            delta = float(rng.standard_normal())
        apply_coord_delta(p, s, j, delta)
        np.testing.assert_allclose(s.grad, full_grad(p, s), rtol=0,
                                   atol=1e-10)


def test_refresh_recomputes_gradient(rng):
    p = random_problem("lasso", rng, n=15, d=9)
    s = IterateState.zeros(p)
    s.track_gradient(p)
    for _ in range(objectives.RESIDUAL_REFRESH_EVERY):
        apply_coord_delta(p, s, int(rng.integers(p.n)),
                          float(rng.standard_normal()))
    assert s.grad_refreshes == 1
    np.testing.assert_array_equal(s.grad, full_grad(p, s))
    assert 0.0 <= s.max_grad_drift <= 1e-9 * (1 + np.abs(s.grad).max())


def test_gram_cache_cap_changes_nothing(monkeypatch):
    p = l1_problem("lasso", 3)
    cached = solve_l1(p, SolverConfig(max_iters=1500, tol=0.0))
    monkeypatch.setattr(sparse, "GRAM_CACHE_INPUT_MULTIPLE", 0)
    # a fresh matrix, which keeps no column
    uncached = solve_l1(l1_problem("lasso", 3),
                        SolverConfig(max_iters=1500, tol=0.0))
    assert [r.coord for r in cached.records] == \
        [r.coord for r in uncached.records]
    assert [r.f_value for r in cached.records] == \
        [r.f_value for r in uncached.records]


def test_gram_cache_stays_under_cap(rng):
    p = make_svm_dual(random_matrix(rng, 10, 400), 0.01)
    s = IterateState.zeros(p)
    s.track_gradient(p)
    M = p.matrix
    gram = M._gram
    cap = sparse.GRAM_CACHE_INPUT_MULTIPLE * (M.values.nbytes
                                              + M.row_indices.nbytes)
    for j in rng.permutation(p.n):
        apply_coord_delta(p, s, int(j), 0.5)
    # this instance's full Gram matrix outgrows the cap
    assert p.n * p.n * 8 > cap
    assert 0 < sum(col.nbytes for col in gram.values()) <= cap
    np.testing.assert_allclose(s.grad, full_grad(p, s), rtol=0, atol=1e-12)


def test_solve_frees_the_cache():
    p = svm_problem(2)
    trace = solve_box(p, SolverConfig(max_iters=50, tol=0.0))
    s = trace.final_state
    assert s.grad is None and s.objective is None
    # the Gram columns stay with the matrix; the state holds arrays,
    # numbers and its last column read only
    assert p.matrix._gram
    assert all(isinstance(v, (np.ndarray, int, float, tuple, type(None)))
               for v in vars(s).values())


def test_duality_gap_from_gradient_matches_matvec(rng):
    p = svm_problem(2)
    for _ in range(20):
        s = random_state(p, rng, box=True)
        n, lam = p.n, p.loss.svm_lambda
        w = s.residual / (lam * n)
        margins = p.matrix.matvec_T(w)
        primal = float(np.maximum(1.0 - margins, 0.0).mean()) \
            + 0.5 * lam * float(w @ w)
        dual = float(s.alpha.mean()) - float(s.residual @ s.residual) \
            / (2.0 * lam * n * n)
        untracked = duality_gap(p, s)
        s.track_gradient(p)
        from_grad = duality_gap(p, s)
        s.track_objective(p)  # the dual value is then read off as -F
        for gap in (untracked, from_grad, duality_gap(p, s)):
            assert gap == pytest.approx(primal - dual, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["lasso", "svm"])
def test_polish_matches_recomputing_loop(kind):
    p = svm_problem(3) if kind == "svm" else l1_problem("lasso", 4)
    start = IterateState.zeros(p)
    polished = _polish(p, start, 1500)
    ref = reference_box if kind == "svm" else reference_l1
    _, _, ref_state = ref(p, 1500)
    f_ref = objective_value(p, ref_state)
    assert abs(polished - f_ref) <= 1e-10 * max(1.0, abs(f_ref))
