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
- A matrix that stores every entry keeps A^T as a read-only view of its
  values, and only then; its Gram columns and transposed products from
  that view agree with scipy's to 1e-13 of the terms' magnitudes. On the
  benchmark's lasso and SVM dual, the gather-free column reads of such a
  matrix leave every step's coordinate, kind, F and gap and the counters
  bitwise as row-id gathers give them, and scipy's products in place of
  the view leave the coordinates and kinds bitwise and F within 1e-12 of
  its size, since a step reads its g_j off the kept gradient. The view's
  products, and a short solve through them, read the same at one BLAS
  thread and at two.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sps

from conftest import random_matrix, sparse_logistic, svm_problem
from greedycd import sparse
from greedycd.data_io import (CorrelatedLasso, RandomSvm, SynthSpec,
                              fold_labels, gen_synthetic)
from greedycd.objectives import CompositeProblem, make_lasso, make_svm_dual
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


def test_full_matrix_keeps_a_transposed_view(rng):
    A = rng.standard_normal((30, 45))
    M = SparseColMatrix.from_dense(A)
    At = M._dense_T
    assert At.shape == (45, 30) and np.shares_memory(At, M.values)
    assert not At.flags.writeable
    np.testing.assert_array_equal(At, A.T)
    # the transpose stores every entry too
    np.testing.assert_array_equal(M.transpose()._dense_T, A)
    A[7, 11] = 0.0
    assert SparseColMatrix.from_dense(A)._dense_T is None
    assert random_matrix(rng, 30, 45)._dense_T is None


def without_view(M, products=True):
    """A copy of M whose column reads gather by row ids and, with products
    True, whose products take scipy's path."""
    U = SparseColMatrix(M.n_rows, M.col_starts, M.row_indices, M.values)
    U._all_rows = None
    if products:
        U._dense_T = U._T = None
    return U


@pytest.mark.parametrize("d,n", [(100, 1000), (40, 800), (7, 3)])
def test_view_products_match_scipy(rng, d, n):
    A = rng.standard_normal((d, n))
    M = SparseColMatrix.from_dense(A)
    U = without_view(M)
    # a round-off bound for each entry: 1e-13 of its terms' magnitudes
    scale = np.abs(A).T @ np.abs(A)
    for j in rng.choice(n, 3, replace=False):
        got, want = M.gram_column(j), U.gram_column(j)
        assert np.all(np.abs(got - want) <= 1e-13 * scale[:, j])
    v = rng.standard_normal(d)
    got, want = M.matvec_T(v), U.matvec_T(v)
    assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(A).T @ np.abs(v)))
    assert M._gram and M._T is M._dense_T and sps.issparse(U._T)


def bench_lasso():
    """The benchmark's lasso instance and its tol."""
    ds = gen_synthetic(SynthSpec(CorrelatedLasso(n=1000, d=100,
                                                 density=0.05), 0))
    return make_lasso(ds.matrix, ds.labels, 0.5), 1e-4


def bench_svm():
    """The benchmark's SVM dual and its tol."""
    ds = gen_synthetic(SynthSpec(RandomSvm(n=800, d=40, margin=0.1), 0))
    return make_svm_dual(fold_labels(ds), 0.05), 1e-5


@pytest.mark.parametrize("make,rule,extras", [
    (bench_lasso, "gs-s", False), (bench_lasso, "gs-q", False),
    (bench_lasso, "uniform", False), (bench_svm, "gs-s", False),
    (bench_svm, "gs-q", False), (bench_svm, "uniform", False),
    (bench_lasso, "gs-s", True), (bench_svm, "uniform", True)],
    ids=["gs-s", "gs-q", "uniform", "svm-gs-s", "svm-gs-q", "svm-uniform",
         "gs-s-gap-line-search", "svm-uniform-gap-line-search"])
def test_view_leaves_the_bench_solve_as_it_was(make, rule, extras):
    """The solve through the view and its gather-free column reads, against
    the same solve with the column reads gathering, and against scipy's
    products; extras records the gap and takes the line search."""
    p, tol = make()
    cfg = SolverConfig(rule=Rule(rule), max_iters=100_000, tol=tol,
                       record_gap=extras, use_line_search=extras)
    traces = []
    for M in (p.matrix, without_view(p.matrix, products=False),
              without_view(p.matrix)):
        assert isinstance(M.col_view(3)[0], slice) == (M is p.matrix)
        traces.append(_solve(CompositeProblem(M, p.linear_term, p.loss,
                                              p.reg), cfg))
    fast, gathered, scipy_products = traces
    # the gather-free reads change no bit
    assert fast.status == gathered.status == "tol"
    assert fast.counters == gathered.counters
    for name in ["coord", "step_kind", "f_value"] + ["gap"] * extras:
        assert fast.columns[name].tobytes() == \
            gathered.columns[name].tobytes(), name
    # the view's products change the kept gradient's round-off only, which
    # a step reads as its g_j, so F's last bits may move
    assert scipy_products.status == "tol"
    for name in ("coord", "step_kind"):
        assert fast.columns[name].tobytes() == \
            scipy_products.columns[name].tobytes(), name
    f = scipy_products.columns["f_value"]
    assert np.all(np.abs(fast.columns["f_value"] - f) <= 1e-12 * (1 + abs(f)))


PRODUCTS = """
import hashlib, sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from greedycd.objectives import make_lasso
from greedycd.solver import SolverConfig, solve_l1
from greedycd.sparse import SparseColMatrix
rng = np.random.default_rng(0)
M = SparseColMatrix.from_dense(rng.standard_normal((100, 1000)))
h = hashlib.sha256(M.matvec_T(rng.standard_normal(100)).tobytes())
for j in range(0, 1000, 97):
    h.update(M.gram_column(j).tobytes())
tr = solve_l1(make_lasso(M, rng.standard_normal(100), 0.5),
              SolverConfig(max_iters=300, tol=0.0))
for name in ("coord", "f_value"):
    h.update(tr.columns[name].tobytes())
h.update(tr.final_state.alpha.tobytes())
print(h.hexdigest())
"""


def test_view_products_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(sparse.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", PRODUCTS, src], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout)
    assert len(digests) == 1
