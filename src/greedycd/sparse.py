"""Column-compressed sparse matrix kernels and the scalar shrinkage operator.

Everything downstream (coordinate gradients, residual maintenance, point-set
extraction) is a column access, so the matrix is stored column-major. A
row-major copy is built on request for products over a few rows
(`RowProduct`). Matrices are immutable after construction.
"""

import numpy as np
import scipy.sparse as sps

__all__ = ["SparseColMatrix", "RowProduct", "shrink", "col_dot", "col_axpy"]

# a row product over more than this fraction of the rows runs as one
# transposed product over the whole matrix instead of a gather
GATHER_MAX_ROW_FRACTION = 0.1


def shrink(x, lam):
    """Soft-threshold x by lam: x - sign(x)*lam if |x| >= lam, else 0."""
    if lam < 0:
        raise ValueError("shrink threshold must be nonnegative, got %r" % lam)
    if abs(x) >= lam:
        return x - np.sign(x) * lam
    return 0.0


class SparseColMatrix:
    """Immutable CSC-style matrix with cached per-column squared norms.

    Parameters
    ----------
    n_rows : int
        Number of rows (the ambient dimension of each column).
    col_starts : array of int, length n_cols + 1
        Offsets into row_indices/values; non-decreasing.
    row_indices : array of int
        Row ids per stored entry; strictly increasing within each column.
    values : array of float
        Stored entry values, aligned with row_indices.
    """

    def __init__(self, n_rows, col_starts, row_indices, values):
        col_starts = np.asarray(col_starts, dtype=np.int64)
        row_indices = np.asarray(row_indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)

        if col_starts.ndim != 1 or len(col_starts) < 1:
            raise ValueError("col_starts must be a 1-d array of length n_cols+1")
        if col_starts[0] != 0 or np.any(np.diff(col_starts) < 0):
            raise ValueError("col_starts must start at 0 and be non-decreasing")
        if col_starts[-1] != len(values) or len(values) != len(row_indices):
            raise ValueError("col_starts[-1] must equal the number of stored values")
        if len(row_indices) and (row_indices.min() < 0 or row_indices.max() >= n_rows):
            raise ValueError("row index out of range")
        nnz = len(row_indices)
        if nnz > 1:
            # entry k+1 continues entry k's column unless a column starts there
            same_col = np.ones(nnz - 1, dtype=bool)
            starts = col_starts[(col_starts > 0) & (col_starts < nnz)]
            same_col[starts - 1] = False
            bad = np.flatnonzero(same_col & (np.diff(row_indices) <= 0))
            if len(bad):
                j = int(np.searchsorted(col_starts, bad[0], side="right")) - 1
                raise ValueError("row indices in column %d not strictly increasing" % j)

        self.n_rows = int(n_rows)
        self.col_starts = col_starts
        self.row_indices = row_indices
        self.values = values
        self.col_sq_norms = np.add.reduceat(
            np.append(values**2, 0.0), col_starts[:-1]
        ) if len(col_starts) > 1 else np.zeros(0)
        # reduceat yields garbage for empty trailing columns; fix empties to 0
        empty = np.diff(col_starts) == 0
        if empty.any():
            self.col_sq_norms[empty] = 0.0

        for arr in (self.col_starts, self.row_indices, self.values,
                    self.col_sq_norms):
            arr.setflags(write=False)
        self._scipy_T = None  # built on the first transposed product

    @property
    def n_cols(self):
        return len(self.col_starts) - 1

    @property
    def nnz(self):
        return len(self.values)

    def col(self, j):
        """Row ids and values of column j as (views into) the storage."""
        if not 0 <= j < self.n_cols:
            raise IndexError("column %d out of range [0, %d)" % (j, self.n_cols))
        lo, hi = self.col_starts[j], self.col_starts[j + 1]
        return self.row_indices[lo:hi], self.values[lo:hi]

    @classmethod
    def from_columns(cls, n_rows, columns):
        """Build from a list of (row_ids, values) pairs, one per column."""
        starts = [0]
        rows, vals = [], []
        for ridx, v in columns:
            ridx = np.asarray(ridx, dtype=np.int64)
            v = np.asarray(v, dtype=np.float64)
            order = np.argsort(ridx, kind="stable")
            rows.append(ridx[order])
            vals.append(v[order])
            starts.append(starts[-1] + len(ridx))
        rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        vals = np.concatenate(vals) if vals else np.zeros(0)
        return cls(n_rows, np.array(starts), rows, vals)

    @classmethod
    def from_dense(cls, arr):
        arr = np.asarray(arr, dtype=np.float64)
        cols = []
        for j in range(arr.shape[1]):
            (ridx,) = np.nonzero(arr[:, j])
            cols.append((ridx, arr[ridx, j]))
        return cls.from_columns(arr.shape[0], cols)

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        for j in range(self.n_cols):
            ridx, v = self.col(j)
            out[ridx, j] = v
        return out

    def scale_columns(self, scales):
        """New matrix with column j multiplied by scales[j]."""
        scales = np.asarray(scales, dtype=np.float64)
        if len(scales) != self.n_cols:
            raise ValueError("need one scale per column")
        reps = np.diff(self.col_starts)
        new_vals = self.values * np.repeat(scales, reps)
        return SparseColMatrix(self.n_rows, self.col_starts.copy(),
                               self.row_indices.copy(), new_vals)

    def row_major(self):
        """(row_starts, col_indices, values) of the row-compressed copy.

        Column ids increase within each row. The arrays are new, so the copy
        costs O(nnz) time and memory on every call.
        """
        csr = self._scipy(sps.csc_matrix, (self.n_rows, self.n_cols)).tocsr()
        return csr.indptr.astype(np.int64), csr.indices.astype(np.int64), \
            csr.data

    def transpose(self):
        """Row-compressed view of self, returned as a new column matrix."""
        return SparseColMatrix(self.n_cols, *self.row_major())

    def _scipy(self, kind, shape):
        # scipy's constructor would copy the row ids down to int32; assigned
        # arrays are shared as they are
        m = kind(shape)
        m.indptr, m.indices, m.data = (self.col_starts, self.row_indices,
                                       self.values)
        m.check_format()
        return m

    def matvec_T(self, v):
        """A^T v, vectorized over all columns."""
        v = np.asarray(v, dtype=np.float64)
        if len(v) != self.n_rows:
            raise ValueError("length mismatch in matvec_T")
        return self._product_T(v)

    def _product_T(self, v):
        # the column-major arrays of A are the row-major arrays of A^T
        if self._scipy_T is None:
            self._scipy_T = self._scipy(sps.csr_matrix,
                                        (self.n_cols, self.n_rows))
        return self._scipy_T @ v


class RowProduct:
    """u = sum_k weights[k] * A[rows[k], :] for a fixed matrix A.

    The result is a dense n_cols-vector. A few rows are gathered from a
    row-major copy of A, built on the first such call and owned by this
    object; rows covering more than GATHER_MAX_ROW_FRACTION of A take one
    transposed product over all of A instead, which is cheaper there.
    """

    def __init__(self, M):
        self.matrix = M
        self._rows = None

    def __call__(self, rows, weights):
        M = self.matrix
        if len(rows) > GATHER_MAX_ROW_FRACTION * M.n_rows:
            v = np.zeros(M.n_rows)
            v[rows] = weights
            return M._product_T(v)
        if self._rows is None:
            self._rows = M.row_major()
        starts, cols, vals = self._rows
        lo = starts[rows]
        counts = starts[rows + 1] - lo
        # positions of the chosen rows' entries, row after row
        pos = np.repeat(lo - (np.cumsum(counts) - counts), counts) \
            + np.arange(counts.sum())
        scaled = vals[pos] * np.repeat(weights, counts)
        return np.bincount(cols[pos], weights=scaled, minlength=M.n_cols)


def col_dot(M, j, v):
    """Inner product of column j of M with dense vector v."""
    v = np.asarray(v)
    if len(v) != M.n_rows:
        raise ValueError("vector length %d != n_rows %d" % (len(v), M.n_rows))
    ridx, vals = M.col(j)
    return float(vals @ v[ridx])


def col_axpy(M, j, scale, v):
    """In-place v += scale * M[:, j], touching only the column's nonzeros."""
    if len(v) != M.n_rows:
        raise ValueError("vector length %d != n_rows %d" % (len(v), M.n_rows))
    if scale == 0.0:
        return
    ridx, vals = M.col(j)
    v[ridx] += scale * vals
