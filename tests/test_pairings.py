"""Every loss paired with every regularizer.

The paper's rates hold for any pairing of a smooth loss with a separable
regularizer, and every pairing runs through the same loss and regularizer
objects. The combination test runs each loss with L1, elastic net and the
unit box, without and with line search, under every exact rule and
uniform: F must never rise, a kept gradient must stay within round-off of
full_grad past residual refreshes, and a stop status must hold when its
score is recomputed from scratch. The cases after it pin down the
elastic-net and box pairings on the logistic and SVM-dual losses.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit

from conftest import random_matrix, random_state
from greedycd import objectives
from greedycd.objectives import (Box, CompositeProblem, DualSVM,
                                 ElasticNetL1, IterateState, L1, Logistic,
                                 SquaredResidual, apply_coord_delta,
                                 duality_gap, full_grad, objective_value,
                                 subgrad_score)
from greedycd.selection import Rule, select_gss_box
from greedycd.solver import SolverConfig, line_search_1d, solve_box, solve_l1

REFRESH = 5  # residual refresh cadence for these runs, so they pass several


def build(loss, reg, seed=0):
    """A small instance. A has full column rank, so every pairing is bounded
    below; the SVM dual takes its usual c = -(1/n) 1."""
    rng = np.random.default_rng(seed)
    M = random_matrix(rng, 12, 10, normalize=True).scale_columns(
        rng.uniform(0.6, 1.0, 10))
    n = M.n_cols
    losses = {"squared": lambda: SquaredResidual(rng.standard_normal(12)),
              "svm": lambda: DualSVM(0.05), "logistic": Logistic}
    regs = {"l1": L1(0.05), "elasticnet": ElasticNetL1(0.05, 0.03),
            "box": Box()}
    c = np.full(n, -1.0 / n) if loss == "svm" else np.zeros(n)
    return CompositeProblem(M, c, losses[loss](), regs[reg])


def solve(p, cfg):
    return (solve_box if isinstance(p.reg, Box) else solve_l1)(p, cfg)


def recomputed_score(p, s):
    """The steepest score from a fresh full gradient: the largest
    steepest-subgradient entry for L1 types, the largest gradient entry on
    the active set for the box (0 when it is empty)."""
    g = full_grad(p, s)
    if isinstance(p.reg, Box):
        out = select_gss_box(p, s, grad=g)
        return 0.0 if out is None else out.score
    return float(np.abs(subgrad_score(p, s, grad=g)).max())


def assert_monotone(f):
    f = np.asarray(f)
    assert np.all(np.diff(f) <= 1e-12 * (1.0 + np.abs(f[:-1])))


def assert_stop_backed(p, trace, tol, slack=0.0):
    """A "tol" stop has a recomputed score (or, on the SVM dual, gap) within
    tol; an "optimal" stop has an empty active set."""
    s = trace.final_state
    score = recomputed_score(p, s)
    if trace.status == "optimal":
        assert score == 0.0
    elif trace.status == "tol":
        if isinstance(p.loss, DualSVM) and isinstance(p.reg, Box):
            score = min(score, duality_gap(p, s))
        assert score <= tol + slack


@pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
@pytest.mark.parametrize("line_search", [False, True], ids=["prox", "ls"])
@pytest.mark.parametrize("reg", ["l1", "elasticnet", "box"])
@pytest.mark.parametrize("loss", ["squared", "svm", "logistic"])
def test_every_pairing(loss, reg, line_search, rule, monkeypatch):
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", REFRESH)
    p = build(loss, reg)
    cfg = SolverConfig(rule=rule, use_line_search=line_search,
                       max_iters=12 * REFRESH, tol=0.0)
    trace = solve(p, cfg)
    assert_monotone(trace.f_values)
    f_end = objective_value(p, trace.final_state)
    assert trace.counters["max_f_drift"] <= 1e-12 * (1.0 + abs(f_end))
    roundoff = 1e-9 * (1.0 + float(np.abs(full_grad(p, trace.final_state))
                                   .max()))
    if trace.status == "max_iters":  # every rule keeps the gradient
        assert trace.counters["grad_refreshes"] >= 1
    assert trace.counters["max_grad_drift"] <= roundoff
    assert_stop_backed(p, trace, 0.0, slack=roundoff)

    tol = 1e-6
    trace = solve(p, SolverConfig(rule=rule, use_line_search=line_search,
                                  max_iters=10000, tol=tol))
    assert_monotone(trace.f_values)
    assert trace.status in ("tol", "optimal")
    assert_stop_backed(p, trace, tol, slack=roundoff)


def logistic_elastic_net():
    M = random_matrix(np.random.default_rng(0), 8, 12)
    return CompositeProblem(M, np.zeros(12), Logistic(),
                            ElasticNetL1(0.05, 0.03))


def test_logistic_elastic_net_gradient_tracks_full_grad(rng):
    p = logistic_elastic_net()
    s = IterateState.zeros(p)
    s.track_gradient(p)
    for _ in range(40):
        apply_coord_delta(p, s, int(rng.integers(p.n)),
                          float(rng.standard_normal()))
        np.testing.assert_allclose(s.grad, full_grad(p, s), rtol=0,
                                   atol=1e-12)


def test_logistic_elastic_net_line_search_is_the_1d_minimum(rng):
    """Bounded scalar minimization of the dense F along coordinate j finds
    no better point within 2 of the line search's answer x. F(x + t e_j) -
    F(x) is evaluated term by term in forms that keep their precision for
    small t, since F itself is flat to round-off within 1e-7 of x."""
    p = logistic_elastic_net()
    A = p.matrix.to_dense()
    lam1, lam2 = p.reg.lam1, p.reg.lam2
    states = [IterateState.zeros(p)] + [random_state(p, rng)
                                        for _ in range(4)]
    for s in states:
        for j in range(p.n):
            x = line_search_1d(p, s, j)
            alpha = s.alpha.copy()
            alpha[j] = x
            v, col = A @ alpha, A[:, j]

            def change(t):
                loss = np.sum(np.log1p(expit(-v) * np.expm1(-t * col)))
                # |x + t| - |x| as a difference of squares
                l1 = t * (2.0 * x + t) / (abs(x + t) + abs(x)) if t else 0.0
                return loss + lam1 * l1 + lam2 * t * (x + 0.5 * t)

            res = minimize_scalar(change, bounds=(-2.0, 2.0),
                                  method="bounded",
                                  options={"xatol": 1e-12})
            assert abs(res.x) <= 1e-8


@pytest.mark.parametrize("line_search", [False, True], ids=["prox", "ls"])
def test_logistic_elastic_net_solve_descends_and_stops_backed(line_search):
    p = logistic_elastic_net()
    tol = 1e-6
    trace = solve_l1(p, SolverConfig(use_line_search=line_search,
                                     max_iters=2000, tol=tol))
    assert_monotone(trace.f_values)
    assert trace.status == "tol"
    assert recomputed_score(p, trace.final_state) <= tol


def test_svm_dual_elastic_net_descends_and_converges():
    M = random_matrix(np.random.default_rng(0), 8, 12)
    p = CompositeProblem(M, np.full(12, -1.0 / 12), DualSVM(0.5),
                         ElasticNetL1(0.001, 2.0))
    trace = solve_l1(p, SolverConfig(max_iters=5000, tol=1e-8))
    assert_monotone(trace.f_values)
    assert trace.status == "tol"
    assert recomputed_score(p, trace.final_state) <= 1e-8


def test_logistic_box_line_search_stays_in_the_box():
    M = random_matrix(np.random.default_rng(0), 8, 12)
    p = CompositeProblem(M, np.zeros(12), Logistic(), Box())
    trace = solve_box(p, SolverConfig(use_line_search=True, max_iters=300,
                                      tol=1e-9))
    assert_monotone(trace.f_values)
    alpha = trace.final_state.alpha
    assert np.all((alpha >= 0.0) & (alpha <= 1.0))
    assert trace.status in ("tol", "optimal")
    assert recomputed_score(p, trace.final_state) <= 1e-9
