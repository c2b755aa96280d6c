"""The steepest L1 select, three ufunc passes over g, and logistic's planned
gradient update, each against the expression it replaces.

- select_gss_l1 must return the coordinate and score of
  argmax |subgrad_score|, bitwise, on any state: alpha with zeros, -0.0 and
  both signs; g with ties, entries at exactly +-lam and non-finite entries;
  all scores zero; no nonzeros and all nonzeros; L1 and elastic net.
- The kept gradient under planned row products must equal the dense
  row_product update of every move, under == (so -0.0 matches +0.0): over a
  GS-s solve and a solve to round-off past three refreshes, on a column's first
  and later moves, and when the room for plans runs out. Plans change no
  trace, max_grad_drift included.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_problem, sparse_logistic
from greedycd import objectives, sparse
from greedycd.objectives import (IterateState, make_elastic_net, make_lasso,
                                 subgrad_score)
from greedycd.selection import select_gss_l1
from greedycd.solver import SolverConfig, _solve, solve_l1
from greedycd.sparse import GATHER_MAX_ROW_FRACTION, SparseColMatrix

LAMS = (0.0, 1e-300, 0.25, 1.0, 3.0)
NONZERO_ALPHA = (1.0, -1.0, 0.5, -2.0, 5e-324, -5e-324)


def _bits(x):
    return struct.pack("<d", x)


@st.composite
def l1_states(draw):
    """(problem, state, g, all_zero): all_zero says every score is 0."""
    n = draw(st.integers(1, 24))
    lam = draw(st.sampled_from(LAMS))
    lam2 = draw(st.sampled_from([None, 0.1]))  # None: plain L1
    eye = SparseColMatrix.from_dense(np.eye(n))
    p = make_lasso(eye, np.zeros(n), lam) if lam2 is None \
        else make_elastic_net(eye, np.zeros(n), lam, lam2)
    support = draw(st.sampled_from(["mixed", "none", "all"]))
    nonzero = st.one_of(st.sampled_from(NONZERO_ALPHA),
                        st.floats(-3, 3).filter(bool))
    zero = st.sampled_from([0.0, -0.0])
    entry = {"mixed": st.one_of(zero, nonzero), "none": zero,
             "all": nonzero}[support]
    alpha = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    all_zero = draw(st.booleans())
    if all_zero:
        # |g| <= lam where alpha is zero, g = -sign(alpha) lam elsewhere
        small = st.one_of(st.sampled_from([0.0, -0.0, lam, -lam]),
                          st.floats(-lam, lam))
        g = np.array(draw(st.lists(small, min_size=n, max_size=n)))
        g[alpha != 0] = -np.sign(alpha[alpha != 0]) * lam
    else:
        ties = (0.0, -0.0, lam, -lam, 2 * lam, -2 * lam, 0.5 * lam, 1.0,
                -1.0, math.inf, -math.inf, math.nan)
        entry = st.one_of(st.sampled_from(ties), st.floats(-5, 5))
        g = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    s = IterateState(alpha=alpha, residual=np.zeros(n),
                     nnz=int(np.count_nonzero(alpha)))
    return p, s, g, all_zero


@settings(max_examples=400, deadline=None)
@given(l1_states())
def test_steepest_select_matches_score_argmax(case):
    p, s, g, all_zero = case
    scores = np.abs(subgrad_score(p, s, grad=g))
    j = int(np.argmax(scores))
    got = select_gss_l1(p, s, grad=g)
    assert got.coord == j
    assert _bits(got.score) == _bits(float(scores[j]))
    if all_zero:
        assert got.score == 0.0


def test_steepest_select_reads_the_kept_gradient(rng):
    p = random_problem("elasticnet", rng, n=30, d=10)
    s = IterateState.zeros(p)
    s.track_gradient(p)
    for j in range(0, 30, 3):
        objectives.apply_coord_delta(p, s, j, float(rng.standard_normal()))
    got = select_gss_l1(p, s)
    scores = np.abs(subgrad_score(p, s))
    assert got.coord == int(np.argmax(scores))
    assert _bits(got.score) == _bits(float(scores.max()))


def test_steepest_select_refuses_the_box(rng):
    p = random_problem("svm", rng)
    with pytest.raises(TypeError):
        select_gss_l1(p, IterateState.zeros(p))


@pytest.mark.parametrize("n_rows", [0, 1, 3, 40])
def test_row_plan_adds_what_the_dense_product_adds(rng, n_rows):
    A = rng.standard_normal((400, 60)) * (rng.random((400, 60)) < 0.05)
    A[7] = 0.0  # a row with no stored entry
    M = SparseColMatrix.from_dense(A)
    rows = np.sort(np.append(rng.choice(np.arange(8, 400), n_rows,
                                        replace=False), 7))
    w = rng.standard_normal(len(rows))
    plan = M.row_plan(rows)
    if len(rows) > GATHER_MAX_ROW_FRACTION * M.n_rows:
        assert plan is None
        return
    u = rng.standard_normal(M.n_cols)
    expect = u + M.row_product(rows, w)
    plan.add_to(u, w)
    assert np.array_equal(u, expect)
    assert set(plan.ids) == set(np.flatnonzero(A[rows].any(axis=0)))


@pytest.fixture
def checked(monkeypatch):
    """Checks every kept-gradient row update against the dense row_product
    update of the same move; returns each move's path: "first" (a column's
    first move), "planned" or "dense"."""
    moves = []
    add_rows = SparseColMatrix.add_rows

    def checking(self, g, j, weights):
        first = j not in self._plans
        expect = g + self.row_product(self.col(j)[0], weights)
        add_rows(self, g, j, weights)
        assert np.array_equal(g, expect)
        moves.append("first" if first else
                     "planned" if self._plans[j] else "dense")

    monkeypatch.setattr(SparseColMatrix, "add_rows", checking)
    return moves


def test_planned_update_over_a_solve(checked):
    trace = solve_l1(sparse_logistic(0), SolverConfig(max_iters=3500,
                                                      tol=0.0))
    assert trace.counters["grad_refreshes"] >= 3
    assert len(checked) == trace.n_steps
    # every column fits: each moves first by the dense product, then by plan
    assert set(checked) == {"first", "planned"}
    assert checked.count("planned") > 10 * checked.count("first")


def test_planned_update_in_the_polish(checked):
    p = sparse_logistic(1)
    _solve(p, SolverConfig(max_iters=3500, tol=1e-14))
    assert len(checked) > 3 * objectives.RESIDUAL_REFRESH_EVERY
    assert set(checked) == {"first", "planned"}


def test_planned_update_once_the_room_is_spent(checked, monkeypatch):
    # room for about ten plans of about 1.5 KB each
    monkeypatch.setattr(sparse, "GRAM_CACHE_INPUT_MULTIPLE", 0.5)
    solve_l1(sparse_logistic(2), SolverConfig(max_iters=1500, tol=0.0))
    assert {"first", "planned", "dense"} == set(checked)


def test_rows_over_the_gather_fraction_stay_dense(checked, rng):
    p = random_problem("logistic", rng, n=40, d=10)  # columns on ~7 rows
    solve_l1(p, SolverConfig(max_iters=300, tol=0.0))
    assert set(checked) == {"first", "dense"}


def test_plans_change_no_trace(monkeypatch):
    p = sparse_logistic(3)
    cfg = SolverConfig(max_iters=3500, tol=0.0)
    planned = solve_l1(p, cfg)
    monkeypatch.setattr(sparse, "GRAM_CACHE_INPUT_MULTIPLE", 0)
    # a fresh matrix, with no room: every move takes the dense product
    dense = solve_l1(sparse_logistic(3), cfg)
    assert [r.coord for r in planned.records] == \
        [r.coord for r in dense.records]
    assert [r.f_value for r in planned.records] == \
        [r.f_value for r in dense.records]
    assert planned.counters == dense.counters
    assert planned.counters["max_grad_drift"] > 0.0
    np.testing.assert_array_equal(planned.final_state.alpha,
                                  dense.final_state.alpha)
    np.testing.assert_array_equal(planned.final_state.residual,
                                  dense.final_state.residual)
