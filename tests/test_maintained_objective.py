"""The maintained objective against objective_value: over long solves,
after each move of apply_coord_delta, at a refresh, and on a move the unit
box refuses.

solve_l1 and solve_box keep F(alpha) current by adding each step's change,
read off supp(A_j), and reset it with the residual every
RESIDUAL_REFRESH_EVERY steps. The long cases run past four refreshes
against oracles.reference_solve, which recomputes F after every step: the
coordinates must be the same, every recorded value must agree with the
recomputed one to 1e-12 (1 + |F|), and so must every refresh (max_f_drift).
test_differential.py covers every rule and layout on shorter runs.
"""

import numpy as np
import pytest

from conftest import l1_problem, random_problem, random_state, svm_problem
from greedycd import objectives
from greedycd.objectives import IterateState, apply_coord_delta, \
    objective_value
from greedycd.oracles import reference_solve
from greedycd.solver import SolverConfig, solve_box, solve_l1

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def assert_tracks_objective(p, trace, ref):
    np.testing.assert_array_equal(trace.columns["coord"],
                                  ref.columns["coord"])
    got, want = trace.f_values, ref.f_values
    scale = 1.0 + np.abs(want)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # the last record is recomputed exactly, from the solve's own state
    assert got[-1] == objective_value(p, trace.final_state)
    assert 0.0 <= trace.counters["max_f_drift"] <= 1e-12 * scale.max()


@pytest.mark.parametrize("kind,line_search", [
    ("lasso", False), ("elasticnet", False),
    ("logistic", False), ("logistic", True)])
def test_l1_objective_matches_recomputed(kind, line_search):
    p = l1_problem(kind, 5)
    cfg = SolverConfig(max_iters=STEPS, tol=0.0,
                       use_line_search=line_search)
    trace = solve_l1(p, cfg)
    assert trace.counters["grad_refreshes"] > 3
    assert_tracks_objective(p, trace, reference_solve(p, cfg))


def test_svm_dual_objective_matches_recomputed():
    p = svm_problem(7)
    cfg = SolverConfig(max_iters=STEPS, tol=0.0)
    trace = solve_box(p, cfg)
    assert trace.counters["grad_refreshes"] > 3
    assert_tracks_objective(p, trace, reference_solve(p, cfg))


@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "logistic", "svm"])
def test_apply_coord_delta_keeps_objective(kind, rng):
    p = random_problem(kind, rng, n=15, d=9)
    s = random_state(p, rng, box=(kind == "svm"))
    s.track_objective(p)
    for _ in range(300):
        j = int(rng.integers(p.n))
        if kind == "svm":
            delta = float(rng.uniform(0.0, 1.0)) - s.alpha[j]
        else:
            delta = float(rng.standard_normal())
        apply_coord_delta(p, s, j, delta)
        f = objective_value(p, s)
        assert abs(s.objective - f) <= 1e-12 * (1.0 + abs(f))


def test_refresh_resets_objective(rng):
    p = random_problem("logistic", rng, n=15, d=9)
    s = IterateState.zeros(p)
    s.track_objective(p)
    for _ in range(objectives.RESIDUAL_REFRESH_EVERY):
        apply_coord_delta(p, s, int(rng.integers(p.n)),
                          float(rng.standard_normal()))
    f = objective_value(p, s)
    assert s.objective == f
    assert 0.0 <= s.max_f_drift <= 1e-12 * (1.0 + abs(f))


def test_untracked_state_keeps_no_objective(rng):
    p = random_problem("lasso", rng)
    s = IterateState.zeros(p)
    apply_coord_delta(p, s, 0, 1.0)
    assert s.objective is None
    s.track_objective(p)
    s.untrack()
    assert s.objective is None


@pytest.mark.parametrize("target", [-0.5, 1.5])
def test_box_move_outside_unit_box_raises(target, rng):
    p = random_problem("svm", rng)
    s = IterateState.zeros(p)
    s.track_objective(p)
    apply_coord_delta(p, s, 2, 0.5)
    before = (s.alpha.copy(), s.residual.copy(), s.objective)
    with pytest.raises(ValueError, match="iterate outside the unit box"):
        apply_coord_delta(p, s, 2, target - 0.5)
    # the rejected move left the state as it was
    np.testing.assert_array_equal(s.alpha, before[0])
    np.testing.assert_array_equal(s.residual, before[1])
    assert s.objective == before[2]
