"""CSR sparse matrix storage and matrix-free operators.

A `SparseMatrix` holds a scipy CSR matrix and its transpose in CSR form,
both built once at construction; the matrix is immutable afterwards.
`spmv` and `spmv_t` are the two CSR products, and `gram_apply` never
materializes the Gram matrix. All three call scipy's CSR matvec kernel
directly: it is the kernel behind `csr @ x`, so the results are the same
bits, without the cost of the operator's dispatch on every product.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import DimensionError, DomainError


class SparseMatrix:
    """CSR matrix with sorted, unique column indices per row, plus its
    cached transpose (which is the matrix in CSC form)."""

    __slots__ = ("csr", "csr_t")

    def __init__(self, csr):
        self.csr = csr
        self.csr_t = csr.T.tocsr()

    @property
    def n_rows(self):
        return self.csr.shape[0]

    @property
    def n_cols(self):
        return self.csr.shape[1]

    @property
    def row_offsets(self):
        return self.csr.indptr

    @property
    def col_indices(self):
        return self.csr.indices

    @property
    def values(self):
        return self.csr.data

    def nnz(self):
        return self.csr.data.size

    @property
    def shape(self):
        return self.csr.shape

    def to_dense(self):
        return self.csr.toarray()


def from_triplets(n_rows, n_cols, entries):
    """Build a SparseMatrix from (row, col, value) triplets.

    Duplicate (row, col) pairs are summed. Raises IndexError on any
    out-of-range index.
    """
    rows = np.asarray([e[0] for e in entries], dtype=np.int64)
    cols = np.asarray([e[1] for e in entries], dtype=np.int64)
    vals = np.asarray([e[2] for e in entries], dtype=np.float64)
    bad = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols)
    if bad.any():
        i = int(np.argmax(bad))
        raise IndexError(
            f"entry ({rows[i]}, {cols[i]}, {vals[i]}) out of range for "
            f"shape ({n_rows}, {n_cols})"
        )
    return _from_arrays(n_rows, n_cols, rows, cols, vals)


def _from_arrays(n_rows, n_cols, rows, cols, vals):
    """CSR assembly from parallel index/value arrays; duplicates summed in
    their input order."""
    rows = np.asarray(rows, dtype=np.int64)
    key = rows * n_cols + np.asarray(cols, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    key = key[order]
    vals = vals[order]
    uniq, inverse = np.unique(key, return_inverse=True)
    # bincount returns int64 when there are no entries
    summed = np.bincount(inverse, weights=vals).astype(np.float64, copy=False)
    row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(uniq // n_cols, minlength=n_rows), out=row_offsets[1:])
    csr = sp.csr_matrix((summed, uniq % n_cols, row_offsets), shape=(n_rows, n_cols))
    return SparseMatrix(csr)


def from_dense(dense):
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return _from_arrays(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])


def row_subset(A, rows):
    """New SparseMatrix containing the given rows of A, in the given order."""
    return SparseMatrix(A.csr[np.asarray(rows, dtype=np.int64)])


def _matvec(csr, x):
    """csr @ x for a float64 vector x of conforming length: the call that
    scipy's `csr @ x` makes, on a zeroed output."""
    m, n = csr.shape
    out = np.zeros(m)
    _sparsetools.csr_matvec(m, n, csr.indptr, csr.indices, csr.data, x, out)
    return out


def spmv(A, x):
    """A @ x for CSR A."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != A.n_cols:
        raise DimensionError(f"spmv: len(x)={x.size}, n_cols={A.n_cols}")
    return _matvec(A.csr, x)


def spmv_t(A, x):
    """A.T @ x through the cached CSR transpose."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != A.n_rows:
        raise DimensionError(f"spmv_t: len(x)={x.size}, n_rows={A.n_rows}")
    return _matvec(A.csr_t, x)


def gram_apply(A, diag_shift, x):
    """(A.T A + diag(diag_shift)) @ x, the SPD operator of the sampler."""
    diag_shift = np.asarray(diag_shift, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    csr, csr_t = A.csr, A.csr_t
    m, n = csr.shape
    if diag_shift.size != n or x.size != n:
        raise DimensionError(
            f"gram_apply: len(shift)={diag_shift.size}, len(x)={x.size}, n_cols={n}"
        )
    # one reduce; `not min > 0` also rejects a NaN shift
    if n and not diag_shift.min() > 0:
        raise DomainError("gram_apply: diag_shift must be strictly positive")
    Ax = np.zeros(m)
    _sparsetools.csr_matvec(m, n, csr.indptr, csr.indices, csr.data, x, Ax)
    out = np.zeros(n)
    _sparsetools.csr_matvec(n, m, csr_t.indptr, csr_t.indices, csr_t.data, Ax, out)
    out += diag_shift * x
    return out
