"""The maintained objective against objective_value recomputed every step.

solve_l1 and solve_box keep F(alpha) current by adding each step's change,
read off supp(A_j), and reset it with the residual every
RESIDUAL_REFRESH_EVERY steps. Each case runs past four refreshes against a
reference loop that steps like the solver but recomputes F after every step:
the coordinates must be the same, every recorded value must agree with the
recomputed one to 1e-12 (1 + |F|), and so must every refresh (max_f_drift).
The cases cover every rule on each regularizer kind, and line search on
both, since the two solvers share one step loop.
"""

import numpy as np
import pytest

from conftest import random_matrix, random_problem, random_state
from greedycd import objectives
from greedycd.objectives import (IterateState, apply_coord_delta, coord_grad,
                                 make_svm_dual, objective_value,
                                 subgrad_score)
from greedycd.selection import ActiveSet, Rule, select_gsq, select_gsr
from greedycd.solver import (SolverConfig, line_search_1d, solve_box,
                             solve_l1)
from greedycd.sparse import shrink

STEPS = 4200  # four refreshes at RESIDUAL_REFRESH_EVERY = 1000


def reference(p, steps, box=False, line_search=False, rule=Rule.GSS,
              seed=0):
    """The solver's steps with F recomputed by objective_value after each.

    The exact rules and the box active set read the maintained gradient as
    the solver does; uniform draws one coordinate at a time, from the active
    set on a box. Returns the coordinates and the objective values.
    """
    s = IterateState.zeros(p)
    rng = np.random.default_rng(seed)
    if box or rule is not Rule.UNIFORM:
        s.track_gradient(p)
    L = p.smoothness
    coords, f_values = [], []
    for _ in range(steps):
        if box:
            active = ActiveSet.from_state(s.alpha, s.grad)
            masked = np.where(active.membership, np.abs(s.grad), -1.0)
            if masked.max() <= 0.0:
                break
            if rule is Rule.GSS:
                j = int(np.argmax(masked))
            elif rule is Rule.GSQ:
                j = select_gsq(p, s).coord
            else:
                ids = np.nonzero(active.membership)[0]
                j = int(ids[rng.integers(len(ids))])
            aj = float(s.alpha[j])
            if line_search:
                new = line_search_1d(p, s, j)
            else:
                new = min(1.0, max(0.0, aj - coord_grad(p, s, j) / L))
        else:
            if rule is Rule.GSS:
                j = int(np.argmax(np.abs(subgrad_score(p, s))))
            elif rule is Rule.GSR:
                j = select_gsr(p, s).coord
            else:
                j = int(rng.integers(p.n))
            aj = float(s.alpha[j])
            if line_search:
                a_plus = line_search_1d(p, s, j)
            else:
                a_plus = shrink(aj - coord_grad(p, s, j) / L,
                                p.l1_lambda / L)
            new = a_plus if aj * a_plus >= 0.0 else 0.0
        apply_coord_delta(p, s, j, new - aj)
        coords.append(j)
        f_values.append(objective_value(p, s))
    return coords, f_values


def assert_tracks_objective(trace, ref_coords, ref_f):
    assert [r.coord for r in trace.records] == ref_coords
    got = np.array([r.f_value for r in trace.records])
    want = np.array(ref_f)
    scale = 1.0 + np.abs(want)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    assert got[-1] == want[-1]  # the last record is recomputed exactly
    assert 0.0 <= trace.counters["max_f_drift"] <= 1e-12 * scale.max()


def l1_problem(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        return random_problem(kind, rng, n=40, d=60, lam=0.01)
    return random_problem(kind, rng, n=60, d=40, lam=0.01, lam2=0.01)


@pytest.mark.parametrize("kind,line_search", [
    ("lasso", False), ("elasticnet", False),
    ("logistic", False), ("logistic", True)])
def test_l1_objective_matches_recomputed(kind, line_search):
    p = l1_problem(kind, 5)
    trace = solve_l1(p, SolverConfig(max_iters=STEPS, tol=0.0,
                                     use_line_search=line_search))
    assert trace.counters["grad_refreshes"] > 3
    assert_tracks_objective(trace, *reference(p, STEPS,
                                              line_search=line_search))


def test_uniform_objective_matches_recomputed():
    p = l1_problem("lasso", 6)
    trace = solve_l1(p, SolverConfig(rule=Rule.UNIFORM, max_iters=STEPS,
                                     tol=0.0, seed=3))
    assert_tracks_objective(trace, *reference(p, STEPS, rule=Rule.UNIFORM,
                                              seed=3))


def svm_problem(seed):
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], 200)
    return make_svm_dual(random_matrix(rng, 20, 200).scale_columns(labels),
                         0.01)


def test_svm_dual_objective_matches_recomputed():
    p = svm_problem(7)
    trace = solve_box(p, SolverConfig(max_iters=STEPS, tol=0.0))
    assert trace.counters["grad_refreshes"] > 3
    assert_tracks_objective(trace, *reference(p, STEPS, box=True))


@pytest.mark.parametrize("rule,line_search", [
    (Rule.UNIFORM, False), (Rule.GSQ, False), (Rule.GSS, True)])
def test_box_rules_objective_matches_recomputed(rule, line_search):
    p = svm_problem(8)
    trace = solve_box(p, SolverConfig(rule=rule, use_line_search=line_search,
                                      max_iters=STEPS, tol=0.0, seed=4))
    assert trace.n_steps == STEPS  # no early stop: all four refreshes run
    assert trace.counters["grad_refreshes"] > 3
    assert_tracks_objective(trace, *reference(
        p, STEPS, box=True, line_search=line_search, rule=rule, seed=4))


def test_gsr_objective_matches_recomputed():
    p = l1_problem("lasso", 9)
    trace = solve_l1(p, SolverConfig(rule=Rule.GSR, max_iters=STEPS,
                                     tol=0.0))
    assert trace.counters["grad_refreshes"] > 3
    assert_tracks_objective(trace, *reference(p, STEPS, rule=Rule.GSR))


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
