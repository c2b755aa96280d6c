import numpy as np
import pytest
from hypothesis import given, strategies as st

from greedycd.sparse import (RowProduct, SparseColMatrix, col_axpy, col_dot,
                             shrink)


def loop_row_order_error(col_starts, row_indices):
    """The per-column loop SparseColMatrix once ran: its message, or None."""
    for j in range(len(col_starts) - 1):
        lo, hi = col_starts[j], col_starts[j + 1]
        if hi - lo > 1 and np.any(np.diff(row_indices[lo:hi]) <= 0):
            return "row indices in column %d not strictly increasing" % j
    return None


def loop_transpose(M):
    """The double loop transpose() once ran."""
    cols = [[] for _ in range(M.n_rows)]
    for j in range(M.n_cols):
        ridx, v = M.col(j)
        for i, x in zip(ridx, v):
            cols[i].append((j, x))
    built = []
    for entries in cols:
        if entries:
            idx, vv = zip(*entries)
        else:
            idx, vv = (), ()
        built.append((np.array(idx, dtype=np.int64), np.array(vv)))
    return SparseColMatrix.from_columns(M.n_cols, built)


def random_sparse(rng, d, n, density):
    A = rng.standard_normal((d, n)) * (rng.random((d, n)) < density)
    return SparseColMatrix.from_dense(A), A


class TestShrink:
    def test_above_threshold(self):
        assert shrink(3.0, 1.0) == 2.0
        assert shrink(-3.0, 1.0) == -2.0

    def test_inside_threshold(self):
        assert shrink(0.5, 1.0) == 0.0
        assert shrink(-0.5, 1.0) == 0.0

    def test_boundary(self):
        assert shrink(1.0, 1.0) == 0.0
        assert shrink(2.0, 0.0) == 2.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            shrink(1.0, -0.1)

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
    def test_magnitude_never_grows(self, x, lam):
        y = shrink(x, lam)
        assert abs(y) <= abs(x)
        assert y * x >= 0.0

    @given(st.floats(-1e6, 1e6), st.floats(0.0, 1e6))
    def test_distance_at_most_lambda(self, x, lam):
        # one ulp of slack: x - lam rounds to the nearest double
        assert abs(x - shrink(x, lam)) <= lam * (1 + 1e-12) + np.spacing(abs(x))


class TestMatrix:
    def test_from_dense_roundtrip(self, rng):
        A = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.5)
        M = SparseColMatrix.from_dense(A)
        np.testing.assert_array_equal(M.to_dense(), A)

    def test_col_sq_norms(self, rng):
        A = rng.standard_normal((7, 5))
        M = SparseColMatrix.from_dense(A)
        np.testing.assert_allclose(M.col_sq_norms, (A**2).sum(axis=0))

    def test_empty_column_norm_is_zero(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        M = SparseColMatrix.from_dense(A)
        assert M.col_sq_norms[1] == 0.0

    def test_matvec_T_matches_dense(self, rng):
        A = rng.standard_normal((8, 6)) * (rng.random((8, 6)) < 0.4)
        M = SparseColMatrix.from_dense(A)
        v = rng.standard_normal(8)
        np.testing.assert_allclose(M.matvec_T(v), A.T @ v, atol=1e-12)

    def test_matvec_T_empty_columns(self):
        A = np.array([[0.0, 3.0, 0.0], [0.0, 4.0, 0.0]])
        M = SparseColMatrix.from_dense(A)
        np.testing.assert_array_equal(M.matvec_T(np.array([1.0, 1.0])),
                                      [0.0, 7.0, 0.0])

    def test_col_dot_and_axpy(self, rng):
        A = rng.standard_normal((5, 3))
        M = SparseColMatrix.from_dense(A)
        v = rng.standard_normal(5)
        assert col_dot(M, 1, v) == pytest.approx(A[:, 1] @ v)
        w = v.copy()
        col_axpy(M, 2, 0.7, w)
        np.testing.assert_allclose(w, v + 0.7 * A[:, 2])

    def test_scale_columns(self, rng):
        A = rng.standard_normal((4, 3))
        M = SparseColMatrix.from_dense(A).scale_columns([1.0, 2.0, -1.0])
        np.testing.assert_allclose(M.to_dense(), A * [1.0, 2.0, -1.0])

    def test_transpose(self, rng):
        A = rng.standard_normal((5, 7)) * (rng.random((5, 7)) < 0.4)
        M = SparseColMatrix.from_dense(A)
        np.testing.assert_array_equal(M.transpose().to_dense(), A.T)

    def test_immutable_after_build(self):
        M = SparseColMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            M.values[0] = 5.0

    def test_validation_bad_col_starts(self):
        with pytest.raises(ValueError):
            SparseColMatrix(2, [1, 2], [0], [1.0])
        with pytest.raises(ValueError):
            SparseColMatrix(2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_validation_row_out_of_range(self):
        with pytest.raises(ValueError):
            SparseColMatrix(2, [0, 1], [5], [1.0])

    def test_validation_rows_not_increasing(self):
        with pytest.raises(ValueError):
            SparseColMatrix(3, [0, 2], [1, 1], [1.0, 2.0])

    def test_from_columns_sorts_rows(self):
        M = SparseColMatrix.from_columns(
            3, [(np.array([2, 0]), np.array([5.0, 1.0]))])
        ridx, vals = M.col(0)
        np.testing.assert_array_equal(ridx, [0, 2])
        np.testing.assert_array_equal(vals, [1.0, 5.0])

    def test_col_out_of_range(self):
        M = SparseColMatrix.from_dense(np.eye(2))
        with pytest.raises(IndexError):
            M.col(2)


class TestVectorizedAgainstLoops:
    SHAPES = [(5, 7, 0.4), (1, 1, 1.0), (6, 4, 0.0), (0, 3, 0.5), (4, 0, 0.5),
              (30, 20, 0.1), (3, 9, 0.9)]

    @pytest.mark.parametrize("d,n,density", SHAPES)
    def test_transpose_identical_arrays(self, rng, d, n, density):
        M, _ = random_sparse(rng, d, n, density)
        got, ref = M.transpose(), loop_transpose(M)
        assert got.n_rows == ref.n_rows
        for name in ("col_starts", "row_indices", "values", "col_sq_norms"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)

    @given(st.lists(st.lists(st.integers(0, 5), max_size=5), max_size=6))
    def test_row_order_check_matches_loop(self, columns):
        starts = np.cumsum([0] + [len(c) for c in columns])
        rows = np.array([i for c in columns for i in c], dtype=np.int64)
        expect = loop_row_order_error(starts, rows)
        if expect is None:
            SparseColMatrix(6, starts, rows, np.ones(len(rows)))
        else:
            with pytest.raises(ValueError) as err:
                SparseColMatrix(6, starts, rows, np.ones(len(rows)))
            assert str(err.value) == expect

    @pytest.mark.parametrize("n_rows", [1, 3, 40])
    def test_row_product_matches_dense(self, rng, n_rows):
        # few rows gather from the row-major copy; many take a full product
        M, A = random_sparse(rng, 40, 25, 0.3)
        rows = np.sort(rng.choice(40, n_rows, replace=False))
        w = rng.standard_normal(n_rows)
        np.testing.assert_allclose(RowProduct(M)(rows, w), A[rows].T @ w,
                                   rtol=0, atol=1e-12)
