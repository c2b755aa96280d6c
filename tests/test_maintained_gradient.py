"""The maintained gradient: long solves and each move's update and refresh
against full_grad, the drift the uniform screen's margin must hold, the
Gram cache the updates read, and the SVM duality gap read off the kept
gradient.

solve_l1 and solve_box keep the full gradient current after each step
instead of recomputing it. The long cases run past four refreshes
(RESIDUAL_REFRESH_EVERY steps apart) against oracles.reference_solve, which
recomputes it every step: they must pick the same coordinates while the
scores are above round-off, end at the same objective, and refresh with a
bounded drift. test_differential.py covers every rule and layout on
shorter runs.
"""

import numpy as np
import pytest

from conftest import (l1_problem, random_matrix, random_problem,
                      random_state, svm_problem)
from greedycd import objectives, oracles, solver, sparse
from greedycd.objectives import (IterateState, apply_coord_delta,
                                 duality_gap, full_grad, make_svm_dual)
from greedycd.oracles import reference_solve
from greedycd.selection import Rule
from greedycd.solver import SolverConfig, solve_box, solve_l1
from test_step_fast_paths import primal_minus_dual

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def reference_scores(monkeypatch, p, cfg):
    """reference_solve(p, cfg) and the steepest score of each of its steps,
    read off the gradient it recomputes at that step."""
    scores = []

    def scoring(p, s):
        g = full_grad(p, s)
        scores.append(float(np.abs(p.reg.subgrad_vec(s.alpha, g)).max()))
        return g

    monkeypatch.setattr(oracles, "full_grad", scoring)
    return reference_solve(p, cfg), scores


def assert_equivalent(monkeypatch, p, cfg, trace):
    ref, scores = reference_scores(monkeypatch, p, cfg)
    g = full_grad(p, trace.final_state)
    roundoff = 1e-9 * (1.0 + float(np.abs(g).max()))
    live = [k for k, sc in enumerate(scores) if sc > roundoff]
    upto = live[-1] + 1 if live else 0
    np.testing.assert_array_equal(trace.columns["coord"][:upto],
                                  ref.columns["coord"][:upto])
    f_ref = ref.f_values[-1]
    assert abs(trace.f_values[-1] - f_ref) <= 1e-10 * max(1.0, abs(f_ref))
    assert trace.counters["grad_refreshes"] > 3
    assert trace.counters["max_grad_drift"] <= roundoff


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic"])
def test_l1_matches_recomputing_loop(monkeypatch, kind):
    p = l1_problem(kind, 0)
    cfg = SolverConfig(max_iters=STEPS, tol=0.0)
    assert_equivalent(monkeypatch, p, cfg, solve_l1(p, cfg))


def test_svm_dual_matches_recomputing_loop(monkeypatch):
    p = svm_problem(0)
    cfg = SolverConfig(max_iters=STEPS, tol=0.0)
    assert_equivalent(monkeypatch, p, cfg, solve_box(p, cfg))


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
        expected = primal_minus_dual(p, s)
        untracked = duality_gap(p, s)
        s.track_gradient(p)
        from_grad = duality_gap(p, s)
        s.track_objective(p)  # the dual value is then read off as -F
        for gap in (untracked, from_grad, duality_gap(p, s)):
            assert gap == pytest.approx(expected, rel=1e-12, abs=1e-12)
