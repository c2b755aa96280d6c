"""Column-compressed sparse matrix kernels and the scalar shrinkage operator.

Everything downstream (coordinate gradients, residual maintenance, point-set
extraction) is a column access, so the matrix is stored column-major. A
matrix keeps what is derived from it for as long as it lives: a row-major
copy for products over a few rows, the Gram columns and row plans of the
gradient updates, and the Gram matrix's row sums, built on first use and
shared by every solve of it.
Matrices are immutable after construction.
"""

import numpy as np
import scipy.sparse as sps

__all__ = ["SparseColMatrix", "RowPlan", "shrink", "col_dot", "col_axpy"]

# a row product over more than this fraction of the rows runs as one
# transposed product over the whole matrix instead of a gather
GATHER_MAX_ROW_FRACTION = 0.1
# the Gram columns and row plans one matrix keeps take at most this multiple
# of the bytes its values and row ids take, read at each use; past that, a
# column is recomputed on every use
GRAM_CACHE_INPUT_MULTIPLE = 8


def _ranges(starts, ids):
    """(lengths, positions) of the storage ranges starts[i]:starts[i + 1]
    for i in ids, one range after another."""
    lo = starts[ids]
    counts = starts[ids + 1] - lo
    pos = np.repeat(lo - (np.cumsum(counts) - counts), counts) \
        + np.arange(counts.sum())
    return counts, pos


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

        if not isinstance(n_rows, (int, np.integer)) or n_rows < 0:
            raise ValueError("n_rows must be a nonnegative integer, got %r"
                             % (n_rows,))
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
        # a column with entries above about 1.3e154 reads inf, which
        # CompositeProblem refuses by name and normalize_columns measures
        # safely
        with np.errstate(over="ignore"):
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
        # scipy views of the storage, built on the first product that needs
        # one, and the row-major copy, built on the first call for it
        self._scipy_csc = None
        self._scipy_T = None
        self._row_major = None
        # the kept Gram columns; per column, None after its first row update,
        # then its RowPlan, or False when it has none; the bytes of both
        self._gram, self._plans, self._kept_bytes = {}, {}, 0
        # A^T A 1, built on its first read
        self._gram_sums = None

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
        d, n = arr.shape
        # entry k of the contiguous transpose is row k % d of column k // d,
        # so its nonzeros come column by column, rows ascending; NaN is one
        flat = np.ascontiguousarray(arr.T).ravel()
        ids = np.flatnonzero(flat != 0)
        starts = np.searchsorted(ids, np.arange(n + 1) * d)
        values = flat[ids]
        # row ids overwrite the positions, which saves an allocation
        rows = np.remainder(ids, max(d, 1), out=ids)
        return cls(d, starts, rows, values)

    def col_ids(self):
        """The column of every stored entry, in storage order."""
        return np.repeat(np.arange(self.n_cols), np.diff(self.col_starts))

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_indices, self.col_ids()] = self.values
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

    def take_columns(self, cols):
        """New matrix of the given columns, in the given order."""
        cols = np.asarray(cols, dtype=np.int64)
        counts, pos = _ranges(self.col_starts, cols)
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        return SparseColMatrix(self.n_rows, starts, self.row_indices[pos],
                               self.values[pos])

    def row_major(self):
        """(row_starts, col_indices, values) of the row-compressed copy.

        Column ids increase within each row. The copy is built on the first
        call, in O(nnz) time and memory, and kept read-only with the matrix.
        """
        if self._row_major is None:
            csr = self._scipy(sps.csc_matrix,
                              (self.n_rows, self.n_cols)).tocsr()
            self._row_major = (csr.indptr.astype(np.int64),
                               csr.indices.astype(np.int64), csr.data)
            for arr in self._row_major:
                arr.setflags(write=False)
        return self._row_major

    def transpose(self):
        """Row-compressed view of self, returned as a new column matrix
        whose row-major copy is this matrix's own storage."""
        T = SparseColMatrix(self.n_cols, *self.row_major())
        T._row_major = (self.col_starts, self.row_indices, self.values)
        return T

    def _scipy(self, kind, shape):
        # scipy's constructor would copy the row ids down to int32; assigned
        # arrays are shared as they are
        m = kind(shape)
        m.indptr, m.indices, m.data = (self.col_starts, self.row_indices,
                                       self.values)
        m.check_format()
        return m

    def matvec(self, x):
        """A x, as one scipy CSC product over A's own arrays."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) != self.n_cols:
            raise ValueError("length mismatch in matvec")
        if self._scipy_csc is None:
            self._scipy_csc = self._scipy(sps.csc_matrix,
                                          (self.n_rows, self.n_cols))
        return self._scipy_csc @ x

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

    def _gather(self, rows):
        """(counts, column ids, values) of the given rows' stored entries."""
        starts, cols, vals = self.row_major()
        counts, pos = _ranges(starts, rows)
        return counts, cols[pos], vals[pos]

    def row_product(self, rows, weights):
        """sum_k weights[k] * A[rows[k], :], a dense n_cols-vector.

        A few rows are gathered from the row-major copy; rows covering more
        than GATHER_MAX_ROW_FRACTION of A take one transposed product over
        all of A instead, which is cheaper there.
        """
        if len(rows) > GATHER_MAX_ROW_FRACTION * self.n_rows:
            v = np.zeros(self.n_rows)
            v[rows] = weights
            return self._product_T(v)
        counts, cols, vals = self._gather(rows)
        scaled = vals * np.repeat(weights, counts)
        return np.bincount(cols, weights=scaled, minlength=self.n_cols)

    def row_plan(self, rows):
        """A RowPlan of the row product over these rows, or None where they
        take the transposed product."""
        if len(rows) > GATHER_MAX_ROW_FRACTION * self.n_rows:
            return None
        n = self.n_cols
        counts, cols, vals = self._gather(rows)
        touched = np.zeros(n, dtype=bool)
        touched[cols] = True
        ids = np.flatnonzero(touched)
        bin_of = np.empty(n, dtype=np.intp)
        bin_of[ids] = np.arange(len(ids))
        return RowPlan(ids, bin_of[cols], vals, counts)

    def _keep(self, nbytes):
        """Whether nbytes more fit within GRAM_CACHE_INPUT_MULTIPLE times
        the input's bytes; if they do, they count as kept."""
        cap = GRAM_CACHE_INPUT_MULTIPLE * (self.values.nbytes
                                           + self.row_indices.nbytes)
        if nbytes > cap - self._kept_bytes:
            return False
        self._kept_bytes += nbytes
        return True

    def gram_column(self, j):
        """A^T A_j, computed on first use and kept, read-only, while it
        fits."""
        col = self._gram.get(j)
        if col is None:
            col = self.row_product(*self.col(j))
            if self._keep(col.nbytes):
                col.setflags(write=False)
                self._gram[j] = col
        return col

    def gram_row_sums(self):
        """A^T (A 1), the row sums of the Gram matrix: one product each
        way on the first call, then kept read-only with the matrix."""
        if self._gram_sums is None:
            sums = self._product_T(self.matvec(np.ones(self.n_cols)))
            sums.setflags(write=False)
            self._gram_sums = sums
        return self._gram_sums

    def add_rows(self, g, j, weights):
        """g += sum_k weights[k] * A[rows[k], :], the rows being supp(A_j).

        Column j's first update takes the dense row product; its second
        plans the rows, and later updates run from the plan. A plan that
        does not fit, and rows the plan refuses, keep the dense product.
        """
        rows = self.col(j)[0]
        plans = self._plans
        if j not in plans:
            plans[j] = None
        elif plans[j] is None:
            plan = self.row_plan(rows)
            fits = plan is not None and self._keep(plan.nbytes)
            plans[j] = plan if fits else False
        plan = plans[j]
        if plan:
            plan.add_to(g, weights)
        else:
            g += self.row_product(rows, weights)


class RowPlan:
    """A row product over a fixed set of rows, gathered once: the touched
    column ids, each gathered entry's bin among them, the entries' values
    and the entry count per row.

    add_to(u, weights) adds the product to u at the touched ids only. Each
    bin sums its entries in storage order, as row_product's dense result
    does, so those entries of u come out bitwise equal to u + row_product.
    """

    def __init__(self, ids, bins, values, counts):
        self.ids, self.bins = ids, bins
        self.values, self.counts = values, counts
        self.nbytes = ids.nbytes + bins.nbytes + values.nbytes + counts.nbytes

    def add_to(self, u, weights):
        scaled = self.values * np.repeat(weights, self.counts)
        u[self.ids] += np.bincount(self.bins, weights=scaled,
                                   minlength=len(self.ids))


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
