"""The Gram columns and row plans a matrix keeps for every solve of it.

- Warm caches change nothing: gs-s, uniform, gs-s to round-off from the
  uniform run's final state and gs-q, run in that order on one problem,
  are each bitwise equal to the same solve on a freshly built problem
  (records, counters, final alpha and residual), past three refreshes.
  Dense lasso takes its Gram columns from the transposed product, sparse
  logistic runs from row plans, and the SVM dual keeps Gram columns until
  the cap.
- The kept bytes stay within GRAM_CACHE_INPUT_MULTIPLE times the input's
  bytes across several solves of one matrix.
- While it fits, a column's Gram is computed once, and its rows are planned
  once, however many solves move it.
"""

import numpy as np
import pytest

from conftest import random_matrix, sparse_logistic, svm_problem
from greedycd import sparse
from greedycd.objectives import make_lasso
from greedycd.selection import Rule
from greedycd.solver import SolverConfig, _solve, solve_box, solve_l1
from greedycd.sparse import SparseColMatrix

ITERS = {"gs-s": 3500, "uniform": 12000, "gs-q": 3500}
# a gs-s solve to round-off
ROUNDOFF = SolverConfig(max_iters=2000, tol=1e-14)


def dense_lasso(seed=0):
    rng = np.random.default_rng(seed)
    M = SparseColMatrix.from_dense(rng.standard_normal((30, 90)))
    return make_lasso(M, rng.standard_normal(30), 0.01)


def svm_dual(seed=0, d=10, n=300):
    return svm_problem(seed, n, d)


def solve(p, rule):
    cfg = SolverConfig(rule=Rule(rule), max_iters=ITERS[rule], tol=0.0)
    return (solve_box if p.reg.kind == "box" else solve_l1)(p, cfg)


def assert_same(warm, fresh):
    assert warm.status == fresh.status
    assert warm.counters == fresh.counters
    assert warm.columns.keys() == fresh.columns.keys()
    for name, col in warm.columns.items():
        if name != "wall_ns":
            assert col.tobytes() == fresh.columns[name].tobytes(), name
    for name in ("alpha", "residual"):
        assert getattr(warm.final_state, name).tobytes() == \
            getattr(fresh.final_state, name).tobytes()


@pytest.mark.parametrize("make", [dense_lasso, sparse_logistic, svm_dual])
def test_warm_caches_change_no_solve(make):
    p = make()
    for rule in ("gs-s", "uniform"):
        warm = solve(p, rule)
        assert warm.counters["grad_refreshes"] >= 3
        assert_same(warm, solve(make(), rule))
    start = warm.final_state
    cfg = SolverConfig(max_iters=3500, tol=1e-14)
    assert_same(_solve(p, cfg, start=start),
                _solve(make(), cfg, start=start))
    warm = solve(p, "gs-q")
    assert warm.counters["grad_refreshes"] >= 3
    assert_same(warm, solve(make(), "gs-q"))
    # the matrix kept what the solves built
    assert p.matrix._gram or any(p.matrix._plans.values())


def kept_bytes(M):
    return sum(col.nbytes for col in M._gram.values()) \
        + sum(plan.nbytes for plan in M._plans.values() if plan)


def gram_cap_binds(M):
    return len(M._gram) < M.n_cols


def plan_cap_binds(M):
    return False in M._plans.values()


@pytest.mark.parametrize("make,multiple,binds", [
    (svm_dual, 8, gram_cap_binds), (sparse_logistic, 0.5, plan_cap_binds)])
def test_kept_bytes_stay_under_the_cap(make, multiple, binds, monkeypatch):
    monkeypatch.setattr(sparse, "GRAM_CACHE_INPUT_MULTIPLE", multiple)
    p = make()
    M = p.matrix
    cap = multiple * (M.values.nbytes + M.row_indices.nbytes)
    for rule in ("gs-s", "uniform", "gs-q", "uniform"):
        solve(p, rule)
        assert 0 < M._kept_bytes == kept_bytes(M) <= cap
    _solve(p, ROUNDOFF)
    assert M._kept_bytes == kept_bytes(M) <= cap
    assert binds(M)  # some column moved is not kept


def test_cap_is_read_at_each_use(rng, monkeypatch):
    M = random_matrix(rng, 20, 30)
    M.gram_column(0)
    monkeypatch.setattr(sparse, "GRAM_CACHE_INPUT_MULTIPLE", 0)
    M.gram_column(1)
    assert list(M._gram) == [0]


def counting(monkeypatch, name):
    calls = []
    original = getattr(SparseColMatrix, name)

    def wrapper(self, *arrays):
        calls.append((id(self),) + tuple(a.tobytes() for a in arrays))
        return original(self, *arrays)

    monkeypatch.setattr(SparseColMatrix, name, wrapper)
    return calls


def test_gram_column_computed_once(monkeypatch):
    calls = counting(monkeypatch, "row_product")
    p = svm_dual(1, d=40, n=100)
    for rule in ("gs-s", "uniform", "gs-q"):
        solve(p, rule)
    _solve(p, ROUNDOFF)
    # the room holds the whole Gram matrix: each column is computed once
    assert len(p.matrix._gram) > 10
    assert len(calls) == len(set(calls)) == len(p.matrix._gram)


def test_rows_planned_once(monkeypatch):
    planned = counting(monkeypatch, "row_plan")
    p = sparse_logistic(1)
    for rule in ("gs-s", "uniform", "gs-q"):
        solve(p, rule)
    _solve(p, ROUNDOFF)
    plans = [plan for plan in p.matrix._plans.values() if plan]
    assert len(plans) > 10
    assert len(planned) == len(set(planned)) == len(plans)


def test_transpose_keeps_its_own_caches(rng):
    M = random_matrix(rng, 20, 30)
    A = M.to_dense()
    T = M.transpose()
    np.testing.assert_allclose(M.gram_column(3), A.T @ A[:, 3], rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(T.gram_column(3), A @ A[3], rtol=0,
                               atol=1e-12)
    assert len(M._gram[3]) == 30 and len(T._gram[3]) == 20
    assert not M._gram[3].flags.writeable
    assert M.transpose()._gram == {}


def test_rows_planned_on_a_columns_second_move():
    M = sparse_logistic(2).matrix
    rows = M.col(5)[0]
    g, w = np.zeros(M.n_cols), np.ones(len(rows))
    M.add_rows(g, 5, w)  # the first move takes the dense product
    assert M._plans == {5: None} and M._kept_bytes == 0
    M.add_rows(g, 5, w)
    assert M._kept_bytes == M._plans[5].nbytes > 0
    np.testing.assert_array_equal(g, 2 * M.row_product(rows, w))
