import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greedycd.sparse import (SparseColMatrix, col_axpy, col_dot,
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


def loop_from_dense(arr):
    """The per-column loop from_dense once ran."""
    arr = np.asarray(arr, dtype=np.float64)
    cols = []
    for j in range(arr.shape[1]):
        (ridx,) = np.nonzero(arr[:, j])
        cols.append((ridx, arr[ridx, j]))
    return SparseColMatrix.from_columns(arr.shape[0], cols)


def loop_to_dense(M):
    """The per-column loop to_dense once ran."""
    out = np.zeros((M.n_rows, M.n_cols))
    for j in range(M.n_cols):
        ridx, v = M.col(j)
        out[ridx, j] = v
    return out


def loop_product(M, x):
    """A x as a loop of col_axpy over the nonzero x_j, as the residual
    refresh once computed it."""
    v = np.zeros(M.n_rows)
    for j in np.nonzero(x)[0]:
        col_axpy(M, j, x[j], v)
    return v


def appended_reduceat_norms(M):
    """The squared column norms as SparseColMatrix once summed them: one
    reduceat over the squares with a zero appended, empty columns set to 0
    afterwards."""
    sq = np.append(M.values**2, 0.0)
    norms = np.add.reduceat(sq, M.col_starts[:-1]) if M.n_cols \
        else np.zeros(0)
    norms[np.diff(M.col_starts) == 0] = 0.0
    return norms


def assert_same_arrays(got, ref):
    assert got.n_rows == ref.n_rows
    for name in ("col_starts", "row_indices", "values", "col_sq_norms"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


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

    def test_python_floats_as_the_sign_formula(self):
        """A Python float in, a Python float out, with the bits of
        x - sign(x) * lam where |x| >= lam (NaN for NaN), else 0."""
        tiny = 5e-324
        for lam in (0.0, 1.0, np.inf):
            xs = [0.0, lam, np.nextafter(lam, 0.0), np.nextafter(lam, np.inf),
                  tiny, 1e-310, np.inf, np.nan]
            for x in map(float, xs + [-x for x in xs]):
                got = shrink(x, lam)
                with np.errstate(invalid="ignore"):  # inf - inf
                    want = x - np.sign(x) * lam if abs(x) >= lam else 0.0
                assert type(got) is float, (x, lam)
                assert struct.pack("<d", got) == struct.pack("<d", want) \
                    or got != got and want != want, (x, lam, got, want)

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

    def test_row_major_kept_read_only(self, rng):
        M, A = random_sparse(rng, 6, 9, 0.4)
        rows = M.row_major()
        assert rows is M.row_major()
        assert not any(arr.flags.writeable for arr in rows)
        # the transpose's copy is M's own storage, equal to a built one
        T = M.transpose()
        for kept, own in zip(T.row_major(), (M.col_starts, M.row_indices,
                                             M.values)):
            assert kept is own
        U = SparseColMatrix(T.n_rows, T.col_starts, T.row_indices, T.values)
        for kept, built in zip(T.row_major(), U.row_major()):
            assert kept.dtype == built.dtype
            np.testing.assert_array_equal(kept, built)

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

    def test_validation_negative_n_rows(self):
        with pytest.raises(ValueError, match="nonnegative integer, got -3"):
            SparseColMatrix(-3, [0, 0], [], [])

    @pytest.mark.parametrize("n_rows", [2.5, 3.0, "3", None, True])
    def test_validation_non_integral_n_rows(self, n_rows):
        # 2.5 would pass the range check of row id 2 and be stored as 2;
        # a bool is an int, but True is no row count
        with pytest.raises(ValueError, match="n_rows must be a nonnegative"):
            SparseColMatrix(n_rows, [0, 1], [2], [1.0])

    def test_numpy_integer_n_rows(self):
        M = SparseColMatrix(np.int64(3), [0, 1], [2], [1.0])
        assert type(M.n_rows) is int and M.n_rows == 3
        np.testing.assert_array_equal(M.to_dense(), [[0.0], [0.0], [1.0]])

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
        assert_same_arrays(M.transpose(), loop_transpose(M))

    @pytest.mark.parametrize("d,n,density", SHAPES)
    def test_dense_conversions_identical_arrays(self, rng, d, n, density):
        A = rng.standard_normal((d, n)) * (rng.random((d, n)) < density)
        if n > 2:
            A[:, 1] = 0.0   # an all-zero column between stored ones
            A[:, -1] = 0.0  # and a trailing one
        M = SparseColMatrix.from_dense(A)
        assert_same_arrays(M, loop_from_dense(A))
        dense = M.to_dense()
        assert dense.dtype == np.float64
        np.testing.assert_array_equal(dense, loop_to_dense(M))
        np.testing.assert_array_equal(dense, A)

    @pytest.mark.parametrize("empty", ["none", "leading", "middle",
                                       "trailing", "all"])
    def test_col_sq_norms_bitwise_equal_appended_reduceat(self, rng, empty):
        # columns of 20 to 40 entries, long enough that numpy's blocked
        # sums can round the last column, once summed with one trailing
        # zero, otherwise without it
        cols = {"none": [], "leading": [0, 1], "middle": [3, 4, 7],
                "trailing": [10, 11], "all": list(range(12))}[empty]
        for _ in range(60):
            A = rng.standard_normal((40, 12)) * (rng.random((40, 12)) < 0.7)
            A[:, cols] = 0.0
            M = SparseColMatrix.from_dense(A)
            assert M.col_sq_norms.tobytes() == \
                appended_reduceat_norms(M).tobytes()
            assert not M.col_sq_norms[cols].any()

    def test_full_matrix_to_dense_is_a_fresh_copy(self, rng):
        A = rng.standard_normal((6, 9))
        M = SparseColMatrix.from_dense(A)
        dense = M.to_dense()
        np.testing.assert_array_equal(dense, A)
        np.testing.assert_array_equal(dense, loop_to_dense(M))
        assert dense.flags.c_contiguous and dense.flags.writeable
        assert not np.shares_memory(dense, M.values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_from_dense_edge_cases_identical_arrays(self, rng):
        # NaN and +-inf are stored, -0.0 is not, whatever the input's dtype,
        # memory order or strides, and a shape with no rows or no columns
        # divides by nothing
        A = rng.standard_normal((7, 9)) * (rng.random((7, 9)) < 0.6)
        A[0, 0], A[3, 0], A[6, 4] = np.nan, np.inf, -np.inf
        A[2, 2], A[5, 8] = -0.0, np.nan
        big = rng.standard_normal((12, 20))
        big[::3, ::4] = 0.0
        cases = [A, np.asfortranarray(A), A[::2, 1::3], big[1::2, ::3],
                 np.arange(-6, 6).reshape(3, 4),
                 np.zeros((0, 5)), np.zeros((4, 0)), np.zeros((0, 0)),
                 np.full((2, 3), -0.0)]
        for arr in cases:
            M = SparseColMatrix.from_dense(arr)
            assert_same_arrays(M, loop_from_dense(arr))
        assert SparseColMatrix.from_dense(np.full((2, 3), -0.0)).nnz == 0
        assert SparseColMatrix.from_dense(A).nnz == np.count_nonzero(A)

    @pytest.mark.parametrize("d,n,density", SHAPES)
    def test_matvec_bitwise_equals_column_loop(self, rng, d, n, density):
        M, _ = random_sparse(rng, d, n, density)
        for zero_frac in (0.0, 0.5, 0.95, 1.0):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            x[rng.random(n) < zero_frac] = 0.0
            got = M.matvec(x)
            ref = loop_product(M, x)
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    def test_matvec_length_checked(self):
        with pytest.raises(ValueError):
            SparseColMatrix.from_dense(np.eye(3)).matvec(np.ones(2))

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
        np.testing.assert_allclose(M.row_product(rows, w), A[rows].T @ w,
                                   rtol=0, atol=1e-12)
