"""The maintained objective against objective_value: over solves, after
each move of apply_coord_delta, at a refresh, and on a move the unit box
refuses.

solve_l1 and solve_box keep F(alpha) current by adding each step's change,
read off supp(A_j), and reset it with the residual every
RESIDUAL_REFRESH_EVERY steps. The solves run past at least three refreshes
under the audit fixture (conftest), which holds the kept F to
1e-12 (1 + |F|) against objective_value after every move, so every
recorded value is held too; the last record must be recomputed exactly,
and every refresh must move F by at most that much (max_f_drift).
test_differential.py covers every rule and layout.
"""

import numpy as np
import pytest

from conftest import l1_problem, random_problem, random_state, svm_problem
from greedycd import objectives
from greedycd.objectives import IterateState, apply_coord_delta, \
    objective_value
from greedycd.solver import SolverConfig, _solve

STEPS = 500  # five refreshes at RESIDUAL_REFRESH_EVERY = 100


@pytest.fixture
def audited(audit, monkeypatch):
    """Solves STEPS steps under the audit at RESIDUAL_REFRESH_EVERY = 100:
    each passes at least three refreshes, each refresh moves the kept F by
    round-off, and the last record is F recomputed."""
    monkeypatch.setattr(objectives, "RESIDUAL_REFRESH_EVERY", 100)

    def solving(p, line_search=False):
        trace = _solve(p, SolverConfig(max_iters=STEPS, tol=0.0,
                                       use_line_search=line_search))
        assert audit.moves[-1][2] == trace.counters["grad_refreshes"] >= 3
        f = trace.f_values
        # the last record is recomputed exactly, from the solve's own state
        assert f[-1] == objective_value(p, trace.final_state)
        assert 0.0 <= trace.counters["max_f_drift"] \
            <= 1e-12 * (1.0 + np.abs(f).max())

    return solving


@pytest.mark.parametrize("kind,line_search", [
    ("lasso", False), ("elasticnet", False),
    ("logistic", False), ("logistic", True)])
def test_l1_objective_matches_recomputed(audited, kind, line_search):
    audited(l1_problem(kind, 5), line_search)


def test_svm_dual_objective_matches_recomputed(audited):
    audited(svm_problem(7))


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
