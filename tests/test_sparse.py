"""CSR storage and matrix-free operators against dense oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlgibbs import (
    DimensionError,
    DomainError,
    from_dense,
    from_triplets,
    gram_apply,
    row_subset,
    spmv,
    spmv_t,
)
from mlgibbs.harness import load_matrix
from conftest import random_sparse


class TestFromTriplets:
    def test_single_entry(self):
        A = from_triplets(1, 1, [(0, 0, 1.0)])
        assert np.array_equal(A.to_dense(), [[1.0]])

    def test_duplicates_summed(self):
        A = from_triplets(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
        assert np.array_equal(A.to_dense(), [[3.0]])
        assert A.nnz() == 1

    def test_dense_reconstruction(self):
        A = from_triplets(2, 2, [(1, 0, 2.0), (0, 1, 3.0)])
        assert np.array_equal(A.to_dense(), [[0, 3], [2, 0]])

    def test_empty(self):
        A = from_triplets(3, 4, [])
        assert A.nnz() == 0
        assert A.shape == (3, 4)
        assert np.array_equal(spmv(A, np.ones(4)), np.zeros(3))

    def test_empty_values_are_float(self, tmp_path):
        p = tmp_path / "empty.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 0\n")
        for A in (load_matrix(p), from_dense(np.zeros((2, 2))), from_triplets(2, 2, [])):
            assert A.nnz() == 0
            assert A.values.dtype == np.float64

    def test_out_of_range_reports_entry(self):
        with pytest.raises(IndexError, match=r"\(2, 0, 1.0\)"):
            from_triplets(2, 2, [(0, 0, 5.0), (2, 0, 1.0)])
        with pytest.raises(IndexError):
            from_triplets(2, 2, [(0, -1, 5.0)])

    def test_csr_invariants(self, rng):
        A, dense = random_sparse(rng, 8, 6)
        assert A.row_offsets[0] == 0
        assert A.row_offsets[-1] == A.nnz()
        for i in range(A.n_rows):
            cols = A.col_indices[A.row_offsets[i] : A.row_offsets[i + 1]]
            assert np.all(np.diff(cols) > 0)


class TestSpmv:
    def test_identity(self):
        I3 = from_dense(np.eye(3))
        assert np.array_equal(spmv(I3, [1, 2, 3]), [1, 2, 3])

    def test_hand_product(self):
        A = from_dense([[0, 3], [2, 0]])
        assert np.array_equal(spmv(A, [1, 1]), [3, 2])

    def test_dense_oracle(self, rng):
        A, dense = random_sparse(rng, 5, 4)
        x = rng.standard_normal(4)
        assert np.allclose(spmv(A, x), dense @ x, atol=1e-14)

    def test_dimension_error(self):
        A = from_dense(np.eye(3))
        with pytest.raises(DimensionError):
            spmv(A, np.ones(4))


class TestSpmvT:
    def test_identity(self):
        I3 = from_dense(np.eye(3))
        assert np.array_equal(spmv_t(I3, [4, 5, 6]), [4, 5, 6])

    def test_hand_product(self):
        A = from_dense([[0, 3], [2, 0]])
        assert np.array_equal(spmv_t(A, [1, 1]), [2, 3])

    def test_dense_oracle(self, rng):
        A, dense = random_sparse(rng, 6, 3)
        x = rng.standard_normal(6)
        assert np.allclose(spmv_t(A, x), dense.T @ x, atol=1e-14)

    def test_dimension_error(self):
        A = from_dense(np.eye(3))
        with pytest.raises(DimensionError):
            spmv_t(A, np.ones(2))


class TestGramApply:
    def test_identity_shift(self):
        A = from_dense(np.eye(2))
        assert np.array_equal(gram_apply(A, [1.0, 1.0], [1, 2]), [2, 4])

    def test_hand_computation(self):
        A = from_dense([[1, 1]])
        assert np.array_equal(gram_apply(A, [0.5, 0.5], [1, 0]), [1.5, 1.0])

    def test_dense_oracle(self, rng):
        A, dense = random_sparse(rng, 8, 5)
        tau = 2.0
        lam = rng.uniform(0.5, 3.0, 5)
        x = rng.standard_normal(5)
        want = (dense.T @ dense + np.diag(lam / tau)) @ x
        assert np.allclose(gram_apply(A, lam / tau, x), want, atol=1e-12)

    def test_nonpositive_shift(self):
        A = from_dense(np.eye(2))
        with pytest.raises(DomainError):
            gram_apply(A, [1.0, 0.0], [1, 1])

    def test_nan_shift(self):
        A = from_dense(np.eye(2))
        with pytest.raises(DomainError):
            gram_apply(A, [np.nan, 1.0], [1, 1])

    def test_dimension_error(self):
        A = from_dense(np.eye(2))
        with pytest.raises(DimensionError):
            gram_apply(A, [1.0, 1.0, 1.0], [1, 1, 1])


def _matrix_with_index_dtype(n_rows, dtype):
    """A 7-column matrix with empty rows (none when n_rows is 0) and an
    empty column, whose CSR form and transpose have `dtype` indices."""
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((n_rows, 7))
    dense[rng.random((n_rows, 7)) > 0.4] = 0.0
    dense[::4] = 0.0  # empty rows, the first and last among them
    dense[:, 2] = 0.0
    A = from_dense(dense)
    for m in (A.csr, A.csr_t):
        m.indptr, m.indices = m.indptr.astype(dtype), m.indices.astype(dtype)
    return A


def _vectors(n, rng):
    """A float64, a strided, an int and a float32 vector of length n."""
    return [
        rng.standard_normal(n),
        rng.standard_normal(2 * n)[::2],
        np.arange(n) - n // 2,
        rng.standard_normal(n).astype(np.float32),
    ]


class TestScipyBitIdentity:
    """The products call scipy's CSR kernel directly; they must give the
    same bits as scipy's `@` on the same matrices."""

    @pytest.mark.parametrize("n_rows", [9, 0])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_products(self, n_rows, index_dtype):
        A = _matrix_with_index_dtype(n_rows, index_dtype)
        assert A.csr.indices.dtype == A.csr_t.indptr.dtype == index_dtype
        rng = np.random.default_rng(n_rows)
        shift = rng.uniform(0.1, 2.0, A.n_cols)
        for x in _vectors(A.n_cols, rng):
            got = spmv(A, x)
            assert got.dtype == np.float64 and got.shape == (A.n_rows,)
            assert np.array_equal(got, A.csr @ x)
            want = A.csr_t @ (A.csr @ x) + shift * x
            assert np.array_equal(gram_apply(A, shift, x), want)
        for y in _vectors(A.n_rows, rng):
            assert np.array_equal(spmv_t(A, y), A.csr_t @ y)

    def test_inputs_untouched(self, rng):
        A, _ = random_sparse(rng, 6, 5)
        x, shift = rng.standard_normal(5), np.full(5, 0.5)
        x0, s0 = x.copy(), shift.copy()
        gram_apply(A, shift, x)
        assert np.array_equal(x, x0) and np.array_equal(shift, s0)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_adjoint_property(seed):
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 12, 2)
    A, dense = random_sparse(rng, int(n), int(m))
    x = rng.standard_normal(int(m))
    z = rng.standard_normal(int(n))
    lhs = float(spmv(A, x) @ z)
    rhs = float(x @ spmv_t(A, z))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_gram_symmetric_positive_definite(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 10))
    A, _ = random_sparse(rng, int(rng.integers(1, 10)), m)
    s = rng.uniform(0.1, 2.0, m)
    x = rng.standard_normal(m)
    z = rng.standard_normal(m)
    lhs = float(gram_apply(A, s, x) @ z)
    rhs = float(x @ gram_apply(A, s, z))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    if np.any(x != 0):
        assert float(gram_apply(A, s, x) @ x) > 0


def test_row_subset(rng):
    A, dense = random_sparse(rng, 10, 4)
    rows = np.array([7, 0, 3])
    B = row_subset(A, rows)
    assert np.array_equal(B.to_dense(), dense[rows])
    empty = row_subset(A, np.array([], dtype=np.int64))
    assert empty.shape == (0, 4)


def test_from_dense_round_trip(rng):
    _, dense = random_sparse(rng, 6, 6)
    assert np.array_equal(from_dense(dense).to_dense(), dense)
