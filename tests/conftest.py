"""Shared builders for random problems and iterate states."""

import numpy as np
import pytest

from greedycd.objectives import (IterateState, make_elastic_net, make_lasso,
                                 make_logistic, make_svm_dual)
from greedycd.sparse import SparseColMatrix


def random_matrix(rng, d, n, density=0.7, normalize=False):
    A = rng.standard_normal((d, n)) * (rng.random((d, n)) < density)
    # keep every column nonzero so smoothness and point sets are well posed
    for j in range(n):
        if not A[:, j].any():
            A[rng.integers(d), j] = rng.standard_normal()
    if normalize:
        A /= np.linalg.norm(A, axis=0, keepdims=True)
    return SparseColMatrix.from_dense(A)


def random_problem(kind, rng, n=12, d=8, lam=0.05, lam2=0.03):
    """A small random instance of the requested problem kind."""
    if kind == "lasso":
        M = random_matrix(rng, d, n)
        return make_lasso(M, rng.standard_normal(d), lam)
    if kind == "elasticnet":
        M = random_matrix(rng, d, n)
        return make_elastic_net(M, rng.standard_normal(d), lam, lam2)
    if kind == "svm":
        labels = rng.choice([-1.0, 1.0], n)
        M = random_matrix(rng, d, n).scale_columns(labels)
        return make_svm_dual(M, 0.5)
    if kind == "logistic":
        M = random_matrix(rng, d, n)
        return make_logistic(M, lam)
    raise ValueError(kind)


def svm_problem(seed, n=200, d=20, svm_lambda=0.01, density=0.7):
    """An SVM dual on a random matrix, its labels drawn first."""
    rng = np.random.default_rng(seed)
    labels = rng.choice([-1.0, 1.0], n)
    M = random_matrix(rng, d, n, density).scale_columns(labels)
    return make_svm_dual(M, svm_lambda)


def l1_problem(kind, seed):
    """A lasso or elastic net at n=60, d=40, or a logistic at n=40, d=60."""
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        return random_problem(kind, rng, n=40, d=60, lam=0.01)
    return random_problem(kind, rng, n=60, d=40, lam=0.01, lam2=0.01)


def sparse_logistic(seed=0):
    """Columns on about 12 of 400 rows, so row products gather."""
    rng = np.random.default_rng(seed)
    return make_logistic(random_matrix(rng, 400, 150, density=0.03), 0.01)


def random_state(p, rng, box=False, zero_frac=0.4):
    """Feasible iterate with a mix of zero, boundary, and interior values."""
    n = p.n
    if box:
        alpha = rng.uniform(0.0, 1.0, n)
        alpha[rng.random(n) < 0.25] = 0.0
        alpha[rng.random(n) < 0.15] = 1.0
    else:
        alpha = rng.standard_normal(n)
        alpha[rng.random(n) < zero_frac] = 0.0
    s = IterateState(alpha=alpha, residual=np.zeros(p.d),
                     nnz=int(np.count_nonzero(alpha)))
    s.recompute_residual(p)
    return s


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
